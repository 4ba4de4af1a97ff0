package core

import (
	"bytes"
	"testing"

	"github.com/rvm-go/rvm/internal/wal"
)

// logBytesFor runs fn against a fresh engine with the given options and
// returns the log bytes appended.
func logBytesFor(t *testing.T, opts Options, fn func(*env, *Region)) uint64 {
	t.Helper()
	v := newEnv(t, 1<<18, pageBytes(2), opts)
	r := v.mapWhole()
	fn(v, r)
	if err := v.eng.Flush(); err != nil {
		t.Fatal(err)
	}
	return v.eng.Stats().LogBytes
}

func TestIntraOptDuplicateSetRanges(t *testing.T) {
	// Defensive programming: the same range declared many times must cost
	// one record's worth of log space (paper §5.2).
	workload := func(dups int) func(*env, *Region) {
		return func(v *env, r *Region) {
			tx, _ := v.eng.Begin(Restore)
			for i := 0; i < dups; i++ {
				if err := tx.SetRange(r, 100, 200); err != nil {
					t.Fatal(err)
				}
			}
			copy(r.Data()[100:], bytes.Repeat([]byte{0xCD}, 200))
			if err := tx.Commit(Flush); err != nil {
				t.Fatal(err)
			}
		}
	}
	once := logBytesFor(t, Options{}, workload(1))
	many := logBytesFor(t, Options{}, workload(10))
	if many != once {
		t.Fatalf("duplicate set-ranges grew the log: %d vs %d", many, once)
	}
}

func TestIntraOptOverlapAndAdjacency(t *testing.T) {
	// Overlapping and adjacent ranges coalesce into one range.
	v := newEnv(t, 1<<18, pageBytes(2), Options{})
	r := v.mapWhole()
	tx, _ := v.eng.Begin(Restore)
	tx.SetRange(r, 0, 100)
	tx.SetRange(r, 50, 100)  // overlaps
	tx.SetRange(r, 150, 100) // adjacent
	if err := tx.Commit(Flush); err != nil {
		t.Fatal(err)
	}
	st := v.eng.Stats()
	if st.IntraSavedBytes == 0 {
		t.Fatal("no intra-transaction savings recorded")
	}
	// One coalesced range of 250 bytes: 20 header + 250 data (+record
	// framing).  Three separate ranges would cost 60 + 300.
	if st.LogBytes > 400 {
		t.Fatalf("log bytes %d suggest ranges were not coalesced", st.LogBytes)
	}
}

func TestIntraSavingsAccounting(t *testing.T) {
	v := newEnv(t, 1<<18, pageBytes(2), Options{})
	r := v.mapWhole()
	tx, _ := v.eng.Begin(Restore)
	tx.SetRange(r, 0, 100)
	tx.SetRange(r, 0, 100) // fully duplicate: saves 20+100
	tx.Commit(Flush)
	st := v.eng.Stats()
	if st.IntraSavedBytes != 120 {
		t.Fatalf("IntraSavedBytes=%d want 120", st.IntraSavedBytes)
	}
}

func TestInterOptSubsumption(t *testing.T) {
	// Temporal locality: repeated no-flush updates to the same data need
	// only the last one in the log (paper §5.2 "cp d1/* d2").
	v := newEnv(t, 1<<18, pageBytes(2), Options{})
	r := v.mapWhole()
	for i := 0; i < 10; i++ {
		tx, _ := v.eng.Begin(Restore)
		if err := tx.Modify(r, 0, bytes.Repeat([]byte{byte(i)}, 300)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(NoFlush); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.eng.Flush(); err != nil {
		t.Fatal(err)
	}
	// Nine of the ten records never reached the log.
	if got, want := v.eng.Stats().InterSavedBytes, uint64(9*rangeEncodedLen(300)); got != want {
		t.Fatalf("InterSavedBytes=%d want %d", got, want)
	}
	// Durability check: the final value must survive a crash.
	v.reopen(Options{})
	r2 := v.mapWhole()
	if r2.Data()[0] != 9 {
		t.Fatalf("final value lost: %d", r2.Data()[0])
	}
}

func TestInterOptRequiresFullSubsumption(t *testing.T) {
	// A later transaction covering only part of an earlier one must not
	// discard it.
	v := newEnv(t, 1<<18, pageBytes(2), Options{})
	r := v.mapWhole()
	tx1, _ := v.eng.Begin(Restore)
	tx1.Modify(r, 0, []byte("AAAAAAAAAA")) // [0,10)
	tx1.Commit(NoFlush)
	tx2, _ := v.eng.Begin(Restore)
	tx2.Modify(r, 0, []byte("BBBB")) // [0,4): partial
	tx2.Commit(NoFlush)
	if err := v.eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := v.eng.Stats().InterSavedBytes; got != 0 {
		t.Fatalf("partial overlap subsumed: %d", got)
	}
	v.reopen(Options{})
	r2 := v.mapWhole()
	if !bytes.Equal(r2.Data()[:10], []byte("BBBBAAAAAA")) {
		t.Fatalf("recovered %q", r2.Data()[:10])
	}
}

func TestInterOptMultiRangeSubsumption(t *testing.T) {
	// Subsumption works across multiple ranges: the newer tx covers the
	// older one's two ranges with one larger range.
	v := newEnv(t, 1<<18, pageBytes(2), Options{})
	r := v.mapWhole()
	tx1, _ := v.eng.Begin(Restore)
	tx1.Modify(r, 0, []byte("aa"))
	tx1.Modify(r, 10, []byte("bb"))
	tx1.Commit(NoFlush)
	tx2, _ := v.eng.Begin(Restore)
	tx2.Modify(r, 0, bytes.Repeat([]byte{'z'}, 12))
	tx2.Commit(NoFlush)
	v.eng.Flush()
	if got := v.eng.Stats().InterSavedBytes; got == 0 {
		t.Fatal("multi-range subsumption missed")
	}
}

func TestInterOptOnlyAppliesToNoFlush(t *testing.T) {
	// Flush-mode commits go straight to the log; a later no-flush cannot
	// retroactively save their traffic (paper: servers see no inter-tx
	// savings).
	v := newEnv(t, 1<<18, pageBytes(2), Options{})
	r := v.mapWhole()
	tx1, _ := v.eng.Begin(Restore)
	tx1.Modify(r, 0, bytes.Repeat([]byte{'a'}, 100))
	tx1.Commit(Flush)
	tx2, _ := v.eng.Begin(Restore)
	tx2.Modify(r, 0, bytes.Repeat([]byte{'b'}, 100))
	tx2.Commit(Flush)
	if got := v.eng.Stats().InterSavedBytes; got != 0 {
		t.Fatalf("flush commits produced inter savings: %d", got)
	}
}

// verbatimLog is the logger the two optimizations of paper §5.2 are measured
// against.  It lives here, not in the engine: every set-range call is logged
// as its own range — the 20-byte range header and the bytes it names —
// whatever earlier calls or later transactions cover.
type verbatimLog struct{ rangeBytes uint64 }

func (l *verbatimLog) setRange(n int64) { l.rangeBytes += 20 + uint64(n) }

// check requires the engine's counters to add up to the verbatim logger's
// bill: the bytes the engine logged plus the bytes it says each optimization
// saved are the verbatim range bytes plus framing, the bytes of the engine's
// log that are not ranges (record headers, trailers, padding).  A record the
// inter-transaction optimization dropped was never framed; what it saved
// counts the record's ranges only.
func (l *verbatimLog) check(t *testing.T, st Statistics, framing uint64) {
	t.Helper()
	got := st.LogBytes + st.IntraSavedBytes + st.InterSavedBytes
	if want := l.rangeBytes + framing; got != want {
		t.Fatalf("log %d + intra-saved %d + inter-saved %d = %d bytes; verbatim logging costs %d in ranges + %d of framing = %d",
			st.LogBytes, st.IntraSavedBytes, st.InterSavedBytes, got, l.rangeBytes, framing, want)
	}
}

// TestSavedBytesMatchVerbatimLogger runs this file's workloads, as lists of
// set-range calls, through the engine and through the verbatim logger.  The
// saved-bytes counters are the one measure of the optimizations, so they
// must be exact: a range header too many or too few in either fails here.
// TestSpoolIndexMatchesScan holds its model to the same identity.
func TestSavedBytesMatchVerbatimLogger(t *testing.T) {
	type call struct{ off, n int64 }
	type tx struct {
		mode  CommitMode
		calls []call
	}
	repeat := func(n int, x tx) []tx {
		txs := make([]tx, n)
		for i := range txs {
			txs[i] = x
		}
		return txs
	}
	for _, tc := range []struct {
		name string
		txs  []tx
	}{
		{"duplicate-set-ranges", []tx{{Flush, []call{{100, 200}, {100, 200}, {100, 200}, {100, 200}}}}},
		{"overlap-and-adjacency", []tx{{Flush, []call{{0, 100}, {50, 100}, {150, 100}}}}},
		{"subsumption", repeat(10, tx{NoFlush, []call{{0, 300}}})},
		{"partial-overlap", []tx{{NoFlush, []call{{0, 10}}}, {NoFlush, []call{{0, 4}}}}},
		{"multi-range-subsumption", []tx{{NoFlush, []call{{0, 2}, {10, 2}}}, {NoFlush, []call{{0, 12}}}}},
		{"flush-commits", repeat(2, tx{Flush, []call{{0, 100}}})},
		{"both", append(repeat(3, tx{NoFlush, []call{{0, 64}, {32, 64}, {0, 96}}}), tx{Flush, []call{{8, 8}, {8, 8}}})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := newEnv(t, 1<<18, pageBytes(2), Options{})
			r := v.mapWhole()
			var ref verbatimLog
			for _, x := range tc.txs {
				tx, err := v.eng.Begin(Restore)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range x.calls {
					if err := tx.SetRange(r, c.off, c.n); err != nil {
						t.Fatal(err)
					}
					ref.setRange(c.n)
				}
				if err := tx.Commit(x.mode); err != nil {
					t.Fatal(err)
				}
			}
			if err := v.eng.Flush(); err != nil {
				t.Fatal(err)
			}
			// Framing as the engine's log reports it: each record's length
			// less its ranges.
			var framing int64
			err := v.eng.log.ScanForward(func(rec *wal.Record) error {
				framing += rec.Len
				for _, rg := range rec.Ranges {
					framing -= 20 + int64(len(rg.Data))
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			ref.check(t, v.eng.Stats(), uint64(framing))
		})
	}
}
