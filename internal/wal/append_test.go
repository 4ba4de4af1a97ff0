package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/rvm-go/rvm/internal/iofault"
)

// newMemImage returns the bytes of a freshly created log.
func newMemImage(t testing.TB, areaSize int64) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log.rvm")
	if err := Create(path, areaSize); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// openMem opens a log on a copy of image in memory, through an Injector
// that counts the device operations (writes).
func openMem(t testing.TB, image []byte) (*Log, *iofault.Mem) {
	t.Helper()
	dev := iofault.NewMem(image)
	l, err := OpenDevice(iofault.NewInjector(dev, 1))
	if err != nil {
		t.Fatal(err)
	}
	return l, dev
}

// writes is how many device writes a log from openMem has made.
func writes(l *Log) uint64 { return l.dev.(*iofault.Injector).Stats().Writes }

// ref is what an append reports about one record.
type ref struct {
	pos int64
	seq uint64
}

// appender appends numbered records to a log in memory and remembers where
// each went.
type appender struct {
	t    *testing.T
	l    *Log
	dev  *iofault.Mem
	tid  uint64
	refs []ref // of every record appended so far
}

func newAppender(t *testing.T, areaSize int64) *appender {
	a := &appender{t: t}
	a.l, a.dev = openMem(t, newMemImage(t, areaSize))
	return a
}

// append appends one record per size, a single range of that many bytes,
// until one fails; it returns how many were appended and the error.  The
// log must then be what a reopen of its device finds.
func (a *appender) append(sizes ...int) (int, error) {
	a.t.Helper()
	for i, n := range sizes {
		tid := a.tid + 1
		pos, seq, _, err := a.l.Append(tid, uint8(tid%3), []Range{mkRange(7, tid*8, byte(tid), n)})
		if err != nil {
			a.same()
			return i, err
		}
		a.tid, a.refs = tid, append(a.refs, ref{pos, seq})
	}
	a.same()
	return len(sizes), nil
}

// same checks that a reopen of the device finds the log's live bytes and
// tail: an append publishes only what the device holds.
func (a *appender) same() {
	a.t.Helper()
	l, _ := openMem(a.t, a.dev.Bytes())
	pos, seq := a.l.Tail()
	if p2, s2 := l.Tail(); l.Used() != a.l.Used() || p2 != pos || s2 != seq {
		a.t.Fatalf("reopened to %d live bytes and tail (%d, %d); the log holds %d and (%d, %d)", l.Used(), p2, s2, a.l.Used(), pos, seq)
	}
}

// setHead moves the head to the record r (or to the tail when r is past the
// last record).
func (a *appender) setHead(r int) {
	a.t.Helper()
	pos, seq := a.l.Tail()
	if r < len(a.refs) {
		pos, seq = a.refs[r].pos, a.refs[r].seq
	}
	if err := a.l.SetHead(pos, seq); err != nil {
		a.t.Fatal(err)
	}
	a.same()
}

// sizeFor returns the range length whose record encodes to exactly need bytes.
func sizeFor(need int64) int { return int(need - EncodedLen(nil) - RangeLen(1, 0, 0)) }

// TestAppendPlacement places records where the area's end calls for a wrap
// record, absorbed padding or neither, fills the log, and refuses what does
// not fit — writing each record in one device write, and nothing for a
// record that does not fit.
func TestAppendPlacement(t *testing.T) {
	const area = 64 << 10

	t.Run("plain", func(t *testing.T) {
		a := newAppender(t, area)
		sizes := []int{1, 100, 4000, 7, 0, 513}
		if n, err := a.append(sizes...); n != 6 || err != nil {
			t.Fatal(n, err)
		}
		if writes(a.l) != 6 {
			t.Fatalf("%d device writes for 6 records", writes(a.l))
		}
		for i := 1; i < len(sizes); i++ {
			if want := a.refs[i-1].pos + EncodedLen([]Range{mkRange(7, 0, 0, sizes[i-1])}); a.refs[i].pos != want {
				t.Fatalf("record %d at %d, want %d", i, a.refs[i].pos, want)
			}
		}
	})

	t.Run("wrap", func(t *testing.T) {
		a := newAppender(t, area)
		a.append(sizeFor(60 << 10))
		a.setHead(1)
		before := writes(a.l)
		if n, err := a.append(1000, 1000, 1000, 2000, 1000, 1000); n != 6 || err != nil {
			t.Fatal(n, err)
		}
		if st := a.l.Stats(); st.Wraps != 1 {
			t.Fatalf("wraps %d, want 1", st.Wraps)
		}
		// Six records and the wrap record, one write each.
		if got := writes(a.l) - before; got != 7 {
			t.Fatalf("%d device writes, want 7", got)
		}
		if a.refs[len(a.refs)-1].pos >= a.refs[1].pos {
			t.Fatalf("the records did not wrap: %+v", a.refs)
		}
	})

	t.Run("runt gap absorbed", func(t *testing.T) {
		a := newAppender(t, area)
		// The second record would leave 8 bytes before the area's end:
		// too few for a wrap record, so it absorbs them.
		a.append(sizeFor(area - 1024))
		a.setHead(1)
		if n, err := a.append(sizeFor(512), sizeFor(512-8), 300, 300); n != 4 || err != nil {
			t.Fatal(n, err)
		}
		if a.refs[3].pos != 0 || a.l.Stats().Wraps != 0 {
			t.Fatalf("third record at %d with %d wraps; want 0 and 0", a.refs[3].pos, a.l.Stats().Wraps)
		}
	})

	t.Run("record ends at the area end", func(t *testing.T) {
		a := newAppender(t, area)
		a.append(sizeFor(area - 1024))
		a.setHead(1)
		if n, err := a.append(sizeFor(512), sizeFor(512), 300); n != 3 || err != nil {
			t.Fatal(n, err)
		}
		if a.refs[3].pos != 0 || a.l.Stats().Wraps != 0 {
			t.Fatalf("third record at %d with %d wraps; want 0 and 0", a.refs[3].pos, a.l.Stats().Wraps)
		}
	})

	t.Run("log full", func(t *testing.T) {
		a := newAppender(t, area)
		sizes := []int{10000, 10000, 10000, 10000, 10000, 10000, 10000, 10000}
		n, err := a.append(sizes...)
		if n != 6 || !errors.Is(err, ErrLogFull) {
			t.Fatalf("appended %d (%v); want 6 and ErrLogFull", n, err)
		}
		// Once room is made, the record that did not fit goes in.
		a.setHead(3)
		if n, err := a.append(sizes[n:]...); n != 2 || err != nil {
			t.Fatal(n, err)
		}
		var tids []uint64
		if err := a.l.ScanForward(func(r *Record) error { tids = append(tids, r.TID); return nil }); err != nil {
			t.Fatal(err)
		}
		if want := []uint64{4, 5, 6, 7, 8}; !reflect.DeepEqual(tids, want) {
			t.Fatalf("live records %v, want %v", tids, want)
		}
	})

	t.Run("log full behind a wrap", func(t *testing.T) {
		// The record needs a wrap and does not fit behind it: the wrap
		// record may not be written either.
		a := newAppender(t, area)
		a.append(sizeFor(40<<10), sizeFor(20<<10))
		a.setHead(1)
		before := writes(a.l)
		if n, err := a.append(1000, sizeFor(42<<10)); n != 1 || !errors.Is(err, ErrLogFull) {
			t.Fatal(n, err)
		}
		if a.l.Stats().Wraps != 0 || writes(a.l) != before+1 {
			t.Fatal("a wrap record was written for a record that did not fit")
		}
	})

	t.Run("too big", func(t *testing.T) {
		a := newAppender(t, area)
		if n, err := a.append(100, area, 100); n != 1 || !errors.Is(err, ErrTooBig) {
			t.Fatal(n, err)
		}
	})

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(14))
		a := newAppender(t, area)
		head := 0
		for round := 0; round < 400; round++ {
			sizes := make([]int, 1+rng.Intn(8))
			for i := range sizes {
				sizes[i] = rng.Intn(6000)
				if rng.Intn(4) == 0 {
					sizes[i] = rng.Intn(64)
				}
			}
			if n, err := a.append(sizes...); err != nil {
				if !errors.Is(err, ErrLogFull) {
					t.Fatal(err)
				}
				head = len(a.refs) - rng.Intn(2)
				a.setHead(head)
				if _, err := a.append(sizes[n:]...); err != nil {
					t.Fatalf("round %d: after freeing the log: %v", round, err)
				}
			} else if rng.Intn(3) == 0 {
				head += rng.Intn(len(a.refs) - head + 1)
				a.setHead(head)
			}
		}
		if a.l.Stats().Wraps < 10 {
			t.Fatalf("only %d wraps: the walk did not exercise the area end", a.l.Stats().Wraps)
		}
	})
}

// TestAppendTornWrite tears the device write of a four-range record at
// every byte, as a fault that clears: the log must publish nothing, reopen
// to the record before it alone, and the retry must put the record where a
// write that never failed puts it, under the same sequence number.
func TestAppendTornWrite(t *testing.T) {
	image := newMemImage(t, 64<<10)
	base, baseDev := openMem(t, image)
	if _, _, _, err := base.Append(1, 0, []Range{mkRange(1, 0, 'a', 300)}); err != nil {
		t.Fatal(err)
	}
	ranges := []Range{mkRange(1, 0, 'b', 200), mkRange(1, 8, 'c', 40), mkRange(2, 0, 'd', 9), mkRange(1, 16, 'e', 333)}
	total := EncodedLen(ranges)
	wantPos, wantSeq := base.Tail()
	for k := int64(0); k < total; k++ {
		dev := iofault.NewMem(baseDev.Bytes())
		inj := iofault.NewInjector(dev, 1)
		l, err := OpenDevice(inj)
		if err != nil {
			t.Fatal(err)
		}
		inj.Add(iofault.Fault{Ops: iofault.OpWrite, Count: 1, Torn: true, TornFrac: (float64(k) + 0.5) / float64(total)})
		if _, _, _, err := l.Append(2, 0, ranges); !iofault.IsTransient(err) {
			t.Fatalf("tear at %d: %v", k, err)
		}
		if pos, seq := l.Tail(); l.Used() != base.Used() || pos != wantPos || seq != wantSeq {
			t.Fatalf("tear at %d: a failed write published %d live bytes", k, l.Used()-base.Used())
		}
		l2, _ := openMem(t, dev.Bytes())
		var tids []uint64
		if err := l2.ScanForward(func(r *Record) error { tids = append(tids, r.TID); return nil }); err != nil {
			t.Fatalf("tear at %d: %v", k, err)
		}
		if want := []uint64{1}; !reflect.DeepEqual(tids, want) {
			t.Fatalf("tear at %d: reopened to records %v, want %v", k, tids, want)
		}
		if pos, seq, _, err := l.Append(2, 0, ranges); err != nil || pos != wantPos || seq != wantSeq {
			t.Fatalf("tear at %d: the retry went to (%d, seq %d), %v; want (%d, seq %d)", k, pos, seq, err, wantPos, wantSeq)
		}
	}
}

// TestEncodeBufferRetentionBound appends a record larger than encMaxRetain:
// the log must not keep the buffer that record grew, and the next small
// append, encoded into a buffer of its own, must still write exactly what
// appendRecord encodes for it.
func TestEncodeBufferRetentionBound(t *testing.T) {
	l, dev := openMem(t, newMemImage(t, 8<<20))
	if _, _, _, err := l.Append(1, 0, []Range{mkRange(1, 0, 'a', encMaxRetain+1)}); err != nil {
		t.Fatal(err)
	}
	if cap(l.enc) > encMaxRetain {
		t.Fatalf("log keeps a %d-byte encode buffer after a giant record; the bound is %d", cap(l.enc), encMaxRetain)
	}
	small := []Range{mkRange(1, 8, 'b', 100)}
	pos, seq, n, err := l.Append(2, 0, small)
	if err != nil {
		t.Fatal(err)
	}
	want := appendRecord(nil, seq, recTx, 2, 0, small, n)
	if got := dev.Bytes()[areaOff(pos) : areaOff(pos)+n]; !bytes.Equal(got, want) {
		t.Fatalf("small record after a giant one differs from its encoding:\n got % x\nwant % x", got[:64], want[:64])
	}
}

// TestAppendTransientRetry fails — and tears — device writes of records
// that span a wrap, retrying as the engine's retryIO does: the log must end
// up byte for byte where fault-free appends leave it, with no sequence
// number duplicated or skipped.
func TestAppendTransientRetry(t *testing.T) {
	image := newMemImage(t, 64<<10)
	run := func(faults ...iofault.Fault) (*Log, *iofault.Mem, int) {
		dev := iofault.NewMem(image)
		inj := iofault.NewInjector(dev, 1)
		l, err := OpenDevice(inj)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := l.Append(1, 0, []Range{mkRange(1, 0, 'a', sizeFor(60<<10))}); err != nil {
			t.Fatal(err)
		}
		if err := l.SetHead(l.Tail()); err != nil {
			t.Fatal(err)
		}
		for _, f := range faults {
			inj.Add(f)
		}
		var refs []ref
		retries := 0
		for i := 0; i < 6; {
			pos, seq, _, err := l.Append(uint64(10+i), 0, []Range{mkRange(1, uint64(i), byte('b'+i), 1500)})
			if err != nil {
				if !iofault.IsTransient(err) || retries > 10 {
					t.Fatal(err)
				}
				retries++
				continue
			}
			refs, i = append(refs, ref{pos, seq}), i+1
		}
		for i, r := range refs {
			want := uint64(2 + i)
			if r.pos < refs[0].pos {
				want++ // behind the wrap record, which took a number
			}
			if r.seq != want {
				t.Fatalf("record %d got seq %d at %d, want %d", i, r.seq, r.pos, want)
			}
		}
		return l, dev, retries
	}
	clean, cleanDev, _ := run()
	for name, faults := range map[string][]iofault.Fault{
		"first write fails":       {{Ops: iofault.OpWrite, Count: 1}},
		"wrap write fails twice":  {{Ops: iofault.OpWrite, After: 2, Count: 2}},
		"both around wrap torn":   {{Ops: iofault.OpWrite, After: 2, Count: 1, Torn: true}, {Ops: iofault.OpWrite, After: 3, Count: 1, Torn: true, TornFrac: 0.9}},
		"every other write fails": {{Ops: iofault.OpWrite, Count: 1}, {Ops: iofault.OpWrite, After: 1, Count: 1}},
	} {
		l, dev, retries := run(faults...)
		if retries == 0 {
			t.Fatalf("%s: no fault fired", name)
		}
		if !bytes.Equal(dev.Bytes(), cleanDev.Bytes()) {
			t.Fatalf("%s: device image differs from the fault-free run", name)
		}
		if l.Stats() != clean.Stats() || l.Used() != clean.Used() {
			t.Fatalf("%s: stats %+v used %d; fault-free %+v used %d", name, l.Stats(), l.Used(), clean.Stats(), clean.Used())
		}
		want := uint64(2) // the first record's successor; the head sits there
		if err := l.ScanForward(func(r *Record) error {
			if r.Seq != want && r.Seq != want+1 { // a wrap record's number is skipped over
				return fmt.Errorf("record seq %d, want %d", r.Seq, want)
			}
			want = r.Seq + 1
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
