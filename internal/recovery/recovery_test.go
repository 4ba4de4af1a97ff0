package recovery

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/rvm-go/rvm/internal/mapping"
	"github.com/rvm-go/rvm/internal/segment"
	"github.com/rvm-go/rvm/internal/wal"
)

type fixture struct {
	log     *wal.Log
	logPath string
	segs    map[uint64]*segment.Segment
}

func newFixture(t *testing.T, nsegs int, segLen int64) *fixture {
	t.Helper()
	return newFixtureLog(t, nsegs, segLen, 1<<18)
}

func newFixtureLog(t *testing.T, nsegs int, segLen, logSize int64) *fixture {
	t.Helper()
	dir := t.TempDir()
	logPath := filepath.Join(dir, "log.rvm")
	if err := wal.Create(logPath, logSize); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	f := &fixture{log: l, logPath: logPath, segs: map[uint64]*segment.Segment{}}
	for i := 1; i <= nsegs; i++ {
		s, err := segment.Create(filepath.Join(dir, fmt.Sprintf("seg%d.rvm", i)), uint64(i), segLen)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		f.segs[uint64(i)] = s
	}
	return f
}

func (f *fixture) lookup(id uint64) (*segment.Segment, error) {
	s, ok := f.segs[id]
	if !ok {
		return nil, fmt.Errorf("unknown segment %d", id)
	}
	return s, nil
}

func (f *fixture) read(t *testing.T, seg uint64, off, n int64) []byte {
	t.Helper()
	buf := make([]byte, n)
	if err := f.segs[seg].ReadAt(buf, off); err != nil {
		t.Fatal(err)
	}
	return buf
}

func rng1(seg, off uint64, b byte, n int) []wal.Range {
	d := make([]byte, n)
	for i := range d {
		d[i] = b
	}
	return []wal.Range{{Seg: seg, Off: off, Data: d}}
}

func TestRecoverEmptyLog(t *testing.T) {
	f := newFixture(t, 1, 4096)
	st, err := RecoverParallel(f.log, f.lookup, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 0 || st.Segments != 0 {
		t.Fatalf("stats from empty log: %+v", st)
	}
}

func TestRecoverAppliesCommittedChanges(t *testing.T) {
	f := newFixture(t, 2, 4096)
	f.log.Append(1, 0, rng1(1, 100, 'a', 10))
	f.log.Append(2, 0, rng1(2, 0, 'b', 5))
	f.log.Force()

	st, err := RecoverParallel(f.log, f.lookup, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 2 || st.Segments != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if got := f.read(t, 1, 100, 10); !bytes.Equal(got, []byte("aaaaaaaaaa")) {
		t.Fatalf("segment 1 content %q", got)
	}
	if got := f.read(t, 2, 0, 5); !bytes.Equal(got, []byte("bbbbb")) {
		t.Fatalf("segment 2 content %q", got)
	}
	if f.log.Used() != 0 {
		t.Fatal("log not emptied after recovery")
	}
}

func TestRecoverNewestWins(t *testing.T) {
	f := newFixture(t, 1, 4096)
	f.log.Append(1, 0, rng1(1, 0, 'o', 10)) // older
	f.log.Append(2, 0, rng1(1, 5, 'n', 10)) // newer, overlaps
	f.log.Force()
	if _, err := RecoverParallel(f.log, f.lookup, nil, Config{}); err != nil {
		t.Fatal(err)
	}
	want := []byte("ooooonnnnnnnnnn")
	if got := f.read(t, 1, 0, 15); !bytes.Equal(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
}

// TestOverlapWithinRecordLaterRangeWins: the engine coalesces a
// transaction's set-ranges, so a record of its own never carries
// overlapping ranges — but a log written before it did so, or a hostile
// one, can.  Redo then lets the later range of the record win, on crash
// recovery and on epoch truncation alike.
func TestOverlapWithinRecordLaterRangeWins(t *testing.T) {
	for name, redo := range map[string]func(*fixture) error{
		"recover": func(f *fixture) error {
			_, err := RecoverParallel(f.log, f.lookup, nil, Config{})
			return err
		},
		"epoch": func(f *fixture) error {
			e, err := CollectEpoch(f.log)
			if err != nil {
				return err
			}
			_, err = e.Apply(f.lookup, nil)
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			f := newFixture(t, 1, 4096)
			f.log.Append(1, 0, []wal.Range{
				{Seg: 1, Off: 0, Data: []byte("AAAA")},
				{Seg: 1, Off: 2, Data: []byte("BBBB")},
			})
			f.log.Force()
			if err := redo(f); err != nil {
				t.Fatal(err)
			}
			if got := f.read(t, 1, 0, 6); !bytes.Equal(got, []byte("AABBBB")) {
				t.Fatalf("got %q want %q", got, "AABBBB")
			}
		})
	}
}

func TestRecoverIdempotent(t *testing.T) {
	f := newFixture(t, 1, 4096)
	f.log.Append(1, 0, rng1(1, 0, 'x', 64))
	f.log.Force()
	if _, err := RecoverParallel(f.log, f.lookup, nil, Config{}); err != nil {
		t.Fatal(err)
	}
	before := f.read(t, 1, 0, 64)
	// Running recovery again on the now-empty log must change nothing.
	st, err := RecoverParallel(f.log, f.lookup, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 0 {
		t.Fatalf("second recovery saw %d records", st.Records)
	}
	if got := f.read(t, 1, 0, 64); !bytes.Equal(got, before) {
		t.Fatal("second recovery changed segment")
	}
}

func TestRecoverUnknownSegmentFails(t *testing.T) {
	f := newFixture(t, 1, 4096)
	f.log.Append(1, 0, rng1(99, 0, 'x', 8))
	f.log.Force()
	if _, err := RecoverParallel(f.log, f.lookup, nil, Config{}); err == nil {
		t.Fatal("recovery with unknown segment succeeded")
	}
}

func TestEpochTruncation(t *testing.T) {
	f := newFixture(t, 1, 4096)
	f.log.Append(1, 0, rng1(1, 0, 'a', 16))
	f.log.Append(2, 0, rng1(1, 16, 'b', 16))
	f.log.Force()

	e, err := CollectEpoch(f.log)
	if err != nil {
		t.Fatal(err)
	}
	if e.Records() != 2 {
		t.Fatalf("epoch has %d records", e.Records())
	}

	// Forward processing continues while the epoch is being applied.
	f.log.Append(3, 0, rng1(1, 32, 'c', 16))
	f.log.Force()

	st, err := e.Apply(f.lookup, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// The epoch's changes are in the segment.
	if got := f.read(t, 1, 0, 32); !bytes.Equal(got, append(bytes.Repeat([]byte{'a'}, 16), bytes.Repeat([]byte{'b'}, 16)...)) {
		t.Fatalf("segment content %q", got)
	}
	// The current-epoch record survives in the log.
	var tids []uint64
	f.log.ScanForward(func(r *wal.Record) error { tids = append(tids, r.TID); return nil })
	if len(tids) != 1 || tids[0] != 3 {
		t.Fatalf("live records after epoch: %v", tids)
	}
	// And a final recovery applies it too.
	if _, err := RecoverParallel(f.log, f.lookup, nil, Config{}); err != nil {
		t.Fatal(err)
	}
	if got := f.read(t, 1, 32, 16); !bytes.Equal(got, bytes.Repeat([]byte{'c'}, 16)) {
		t.Fatalf("current epoch lost: %q", got)
	}
}

func TestEpochOldestFirstEqualsRecovery(t *testing.T) {
	// The same random workload applied via epoch truncation (oldest-first
	// replay) and via crash recovery (newest-first) must produce identical
	// segment images.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		fa := newFixture(t, 1, 2*int64(mapping.PageSize))
		fb := newFixture(t, 1, 2*int64(mapping.PageSize))
		for i := 0; i < 50; i++ {
			off := uint64(rng.Intn(4000))
			n := 1 + rng.Intn(90)
			b := byte(rng.Intn(256))
			fa.log.Append(uint64(i+1), 0, rng1(1, off, b, n))
			fb.log.Append(uint64(i+1), 0, rng1(1, off, b, n))
		}
		fa.log.Force()
		fb.log.Force()

		e, err := CollectEpoch(fa.log)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Apply(fa.lookup, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := RecoverParallel(fb.log, fb.lookup, nil, Config{}); err != nil {
			t.Fatal(err)
		}
		ga := fa.read(t, 1, 0, 4096)
		gb := fb.read(t, 1, 0, 4096)
		if !bytes.Equal(ga, gb) {
			t.Fatalf("trial %d: epoch and recovery images differ", trial)
		}
	}
}

func TestCollectEpochOnEmptyLog(t *testing.T) {
	f := newFixture(t, 1, 4096)
	e, err := CollectEpoch(f.log)
	if err != nil {
		t.Fatal(err)
	}
	if e.Records() != 0 {
		t.Fatal("epoch of empty log non-empty")
	}
	if _, err := e.Apply(f.lookup, nil); err != nil {
		t.Fatal(err)
	}
}

// TestOverflowingRangeIsNotRedone: a hostile log can carry a record with a
// valid CRC whose range ends past the segments' address space.  The scan
// refuses it as it refuses any other impossible length, so redo over a log
// already open fails on it, and a restart takes it for the tail and replays
// the record before it; none of them panics building a tree.
func TestOverflowingRangeIsNotRedone(t *testing.T) {
	setup := func(t *testing.T) *fixture {
		f := newFixture(t, 1, 4096)
		f.log.Append(1, 0, rng1(1, 0, 'a', 16))
		f.log.Append(2, 0, []wal.Range{{Seg: 1, Off: math.MaxUint64 - 9, Data: make([]byte, 20)}})
		f.log.Force()
		return f
	}
	t.Run("recover", func(t *testing.T) {
		f := setup(t)
		if _, err := RecoverParallel(f.log, f.lookup, nil, Config{}); err == nil {
			t.Fatal("recovery of a log holding an overflowing range succeeded")
		}
	})
	t.Run("epoch", func(t *testing.T) {
		f := setup(t)
		if _, err := CollectEpoch(f.log); err == nil {
			t.Fatal("an epoch of a log holding an overflowing range was collected")
		}
	})
	t.Run("restart", func(t *testing.T) {
		f := setup(t)
		dev, err := os.OpenFile(f.logPath, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dev.Close() })
		r := NewRestart(nil, nil)
		if _, err := r.Open(dev); err != nil {
			t.Fatal(err)
		}
		ep, st, err := r.Redo(f.lookup)
		if err == nil {
			st, err = ep.Apply(f.lookup, nil)
		}
		if err != nil || st.Records != 1 {
			t.Fatalf("restart replayed %d records (%v); want the one before the overflowing range", st.Records, err)
		}
		if got := f.read(t, 1, 0, 16); !bytes.Equal(got, bytes.Repeat([]byte{'a'}, 16)) {
			t.Fatalf("segment holds %q", got)
		}
	})
}
