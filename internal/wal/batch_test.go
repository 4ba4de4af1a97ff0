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

// pair is the same log twice: one side takes records through a loop of
// Append, the other through AppendBatch.  After every step the two must be
// indistinguishable.
type pair struct {
	t             *testing.T
	loop, batch   *Log
	loopD, batchD *iofault.Mem
	tid           uint64
	refs          []ref // of every record appended so far
}

func newPair(t *testing.T, areaSize int64) *pair {
	image := newMemImage(t, areaSize)
	p := &pair{t: t}
	p.loop, p.loopD = openMem(t, image)
	p.batch, p.batchD = openMem(t, image)
	return p
}

// ents builds one record per size: a single range of that many bytes.
func (p *pair) ents(sizes ...int) []Entry {
	ents := make([]Entry, len(sizes))
	for i, n := range sizes {
		p.tid++
		ents[i] = Entry{TID: p.tid, Flags: uint8(p.tid % 3), Ranges: []Range{mkRange(7, p.tid*8, byte(p.tid), n)}}
	}
	return ents
}

// append sends ents down both sides and checks that they agree; it returns
// how many records fit and the error that stopped the rest.
func (p *pair) append(ents []Entry) (int, error) {
	p.t.Helper()
	var loopRefs []ref
	var loopErr error
	for _, e := range ents {
		pos, seq, _, err := p.loop.Append(e.TID, e.Flags, e.Ranges)
		if err != nil {
			loopErr = err
			break
		}
		loopRefs = append(loopRefs, ref{pos, seq})
	}
	n, err := p.batch.AppendBatch(ents)
	if n != len(loopRefs) || (err == nil) != (loopErr == nil) {
		p.t.Fatalf("batch appended %d (%v), loop %d (%v)", n, err, len(loopRefs), loopErr)
	}
	if err != nil && (errors.Is(err, ErrLogFull) != errors.Is(loopErr, ErrLogFull) || err.Error() != loopErr.Error()) {
		p.t.Fatalf("batch failed with %v, loop with %v", err, loopErr)
	}
	for i, r := range loopRefs {
		if got := (ref{ents[i].Pos, ents[i].Seq}); got != r {
			p.t.Fatalf("record %d: batch at %+v, loop at %+v", i, got, r)
		}
	}
	p.refs = append(p.refs, loopRefs...)
	p.same()
	return n, err
}

// same checks the two logs' device images and visible state.
func (p *pair) same() {
	p.t.Helper()
	if a, b := p.loopD.Bytes(), p.batchD.Bytes(); !bytes.Equal(a, b) {
		for i := range a {
			if a[i] != b[i] {
				p.t.Fatalf("device images differ from byte %d (area offset %d)", i, int64(i)-areaOff(0))
			}
		}
	}
	if a, b := p.loop.Stats(), p.batch.Stats(); a != b {
		p.t.Fatalf("stats differ: loop %+v, batch %+v", a, b)
	}
	if a, b := p.loop.Used(), p.batch.Used(); a != b {
		p.t.Fatalf("used differs: loop %d, batch %d", a, b)
	}
	ap, as := p.loop.Tail()
	bp, bs := p.batch.Tail()
	if ap != bp || as != bs {
		p.t.Fatalf("tails differ: loop (%d,%d), batch (%d,%d)", ap, as, bp, bs)
	}
}

// setHead moves both heads to the record r (or to the tail when r is past
// the last record).
func (p *pair) setHead(r int) {
	p.t.Helper()
	pos, seq := p.loop.Tail()
	if r < len(p.refs) {
		pos, seq = p.refs[r].pos, p.refs[r].seq
	}
	for _, l := range []*Log{p.loop, p.batch} {
		if err := l.SetHead(pos, seq); err != nil {
			p.t.Fatal(err)
		}
	}
	p.same()
}

// sizeFor returns the range length whose record encodes to exactly need bytes.
func sizeFor(need int64) int { return int(need - EncodedLen(nil) - RangeLen(1, 0, 0)) }

func TestAppendBatchMatchesAppend(t *testing.T) {
	const area = 64 << 10

	t.Run("plain", func(t *testing.T) {
		p := newPair(t, area)
		if n, err := p.append(p.ents(1, 100, 4000, 7, 0, 513)); n != 6 || err != nil {
			t.Fatal(n, err)
		}
		if writes(p.batch) != 1 || writes(p.loop) != 6 {
			t.Fatalf("device writes: batch %d, loop %d", writes(p.batch), writes(p.loop))
		}
	})

	t.Run("wrap inside the batch", func(t *testing.T) {
		p := newPair(t, area)
		p.append(p.ents(sizeFor(60 << 10)))
		p.setHead(1)
		before := writes(p.batch)
		if n, err := p.append(p.ents(1000, 1000, 1000, 2000, 1000, 1000)); n != 6 || err != nil {
			t.Fatal(n, err)
		}
		if st := p.batch.Stats(); st.Wraps != 1 {
			t.Fatalf("wraps %d, want 1", st.Wraps)
		}
		// One run up to and including the wrap record, one from offset 0.
		if got := writes(p.batch) - before; got != 2 {
			t.Fatalf("batch took %d device writes, want 2", got)
		}
		if p.refs[len(p.refs)-1].pos >= p.refs[1].pos {
			t.Fatalf("the batch did not wrap: %+v", p.refs)
		}
	})

	t.Run("runt gap absorbed", func(t *testing.T) {
		p := newPair(t, area)
		// The second record would leave 16 bytes before the area's end:
		// too few for a wrap record, so it absorbs them.
		p.append(p.ents(sizeFor(area - 1024)))
		p.setHead(1)
		if n, err := p.append(p.ents(sizeFor(512), sizeFor(512-16), 300, 300)); n != 4 || err != nil {
			t.Fatal(n, err)
		}
		if p.refs[3].pos != 0 || p.batch.Stats().Wraps != 0 {
			t.Fatalf("third record at %d with %d wraps; want 0 and 0", p.refs[3].pos, p.batch.Stats().Wraps)
		}
	})

	t.Run("record ends at the area end", func(t *testing.T) {
		p := newPair(t, area)
		p.append(p.ents(sizeFor(area - 1024)))
		p.setHead(1)
		if n, err := p.append(p.ents(sizeFor(512), sizeFor(512), 300)); n != 3 || err != nil {
			t.Fatal(n, err)
		}
		if p.refs[3].pos != 0 || p.batch.Stats().Wraps != 0 {
			t.Fatalf("third record at %d with %d wraps; want 0 and 0", p.refs[3].pos, p.batch.Stats().Wraps)
		}
	})

	t.Run("log full mid-batch", func(t *testing.T) {
		p := newPair(t, area)
		ents := p.ents(10000, 10000, 10000, 10000, 10000, 10000, 10000, 10000)
		n, err := p.append(ents)
		if n != 6 || !errors.Is(err, ErrLogFull) {
			t.Fatalf("appended %d (%v); want 6 and ErrLogFull", n, err)
		}
		// The tail state is that of the prefix, and the caller's next
		// record is the one that did not fit.
		p.setHead(3)
		if n, err := p.append(ents[n:]); n != 2 || err != nil {
			t.Fatal(n, err)
		}
		var tids []uint64
		if err := p.batch.ScanForward(func(r *Record) error { tids = append(tids, r.TID); return nil }); err != nil {
			t.Fatal(err)
		}
		if want := []uint64{4, 5, 6, 7, 8}; !reflect.DeepEqual(tids, want) {
			t.Fatalf("live records %v, want %v", tids, want)
		}
	})

	t.Run("log full behind a wrap", func(t *testing.T) {
		// The record needs a wrap and does not fit behind it: neither side
		// may write the wrap record.
		p := newPair(t, area)
		p.append(p.ents(sizeFor(40<<10), sizeFor(20<<10)))
		p.setHead(1)
		if n, err := p.append(p.ents(1000, sizeFor(42<<10))); n != 1 || !errors.Is(err, ErrLogFull) {
			t.Fatal(n, err)
		}
		if p.batch.Stats().Wraps != 0 {
			t.Fatal("a wrap record was written for a record that did not fit")
		}
	})

	t.Run("runs are bounded", func(t *testing.T) {
		p := newPair(t, 4<<20)
		sizes := make([]int, 40)
		for i := range sizes {
			sizes[i] = 30 << 10
		}
		if n, err := p.append(p.ents(sizes...)); n != 40 || err != nil {
			t.Fatal(n, err)
		}
		// 40 records of 30 KiB in runs of at most 256 KiB: 8 to a run.
		if writes(p.batch) != 5 {
			t.Fatalf("batch took %d device writes, want 5", writes(p.batch))
		}
		// A record larger than a run still goes out whole.
		if n, err := p.append(p.ents(100, 600<<10, 100)); n != 3 || err != nil {
			t.Fatal(n, err)
		}
	})

	t.Run("too big", func(t *testing.T) {
		p := newPair(t, area)
		if n, err := p.append(p.ents(100, area, 100)); n != 1 || !errors.Is(err, ErrTooBig) {
			t.Fatal(n, err)
		}
	})

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(14))
		p := newPair(t, area)
		head := 0
		for round := 0; round < 400; round++ {
			sizes := make([]int, 1+rng.Intn(8))
			for i := range sizes {
				sizes[i] = rng.Intn(6000)
				if rng.Intn(4) == 0 {
					sizes[i] = rng.Intn(64)
				}
			}
			ents := p.ents(sizes...)
			if n, err := p.append(ents); err != nil {
				if !errors.Is(err, ErrLogFull) {
					t.Fatal(err)
				}
				head = len(p.refs) - rng.Intn(2)
				p.setHead(head)
				if _, err := p.append(ents[n:]); err != nil {
					t.Fatalf("round %d: after freeing the log: %v", round, err)
				}
			} else if rng.Intn(3) == 0 {
				head += rng.Intn(len(p.refs) - head + 1)
				p.setHead(head)
			}
		}
		if p.batch.Stats().Wraps < 10 {
			t.Fatalf("only %d wraps: the walk did not exercise the area end", p.batch.Stats().Wraps)
		}
		// Both sides reopen to the same live records.
		for _, d := range []*iofault.Mem{p.loopD, p.batchD} {
			l, _ := openMem(t, d.Bytes())
			if l.Used() != p.loop.Used() {
				t.Fatalf("reopened log holds %d live bytes, want %d", l.Used(), p.loop.Used())
			}
		}
	})
}

// TestAppendBatchTornWrite tears the one device write of a three-record
// batch at every byte: the log must reopen to the forced record plus a
// clean prefix of the batch — whole records only — and take appends again.
func TestAppendBatchTornWrite(t *testing.T) {
	image := newMemImage(t, 64<<10)
	base, baseDev := openMem(t, image)
	if _, _, _, err := base.Append(1, 0, []Range{mkRange(1, 0, 'a', 300)}); err != nil {
		t.Fatal(err)
	}
	batch := func() []Entry {
		return []Entry{
			{TID: 2, Ranges: []Range{mkRange(1, 0, 'b', 200)}},
			{TID: 3, Ranges: []Range{mkRange(1, 8, 'c', 40), mkRange(2, 0, 'd', 9)}},
			{TID: 4, Ranges: []Range{mkRange(1, 16, 'e', 333)}},
		}
	}
	var ends []int64 // where each record of the batch ends within the write
	var total int64
	for _, e := range batch() {
		total += EncodedLen(e.Ranges)
		ends = append(ends, total)
	}
	for k := int64(0); k < total; k++ {
		dev := iofault.NewMem(baseDev.Bytes())
		inj := iofault.NewInjector(dev, 1)
		l, err := OpenDevice(inj)
		if err != nil {
			t.Fatal(err)
		}
		inj.Add(iofault.Fault{Ops: iofault.OpWrite, Count: -1, Torn: true, TornFrac: (float64(k) + 0.5) / float64(total)})
		if n, err := l.AppendBatch(batch()); n != 0 || !errors.Is(err, iofault.ErrPermanent) {
			t.Fatalf("tear at %d: appended %d (%v)", k, n, err)
		}
		if used := l.Used(); used != base.Used() {
			t.Fatalf("tear at %d: a failed write published %d live bytes", k, used-base.Used())
		}
		whole := 0
		for whole < len(ends) && ends[whole] <= k {
			whole++
		}
		l2, _ := openMem(t, dev.Bytes())
		var tids []uint64
		if err := l2.ScanForward(func(r *Record) error { tids = append(tids, r.TID); return nil }); err != nil {
			t.Fatalf("tear at %d: %v", k, err)
		}
		if want := []uint64{1, 2, 3, 4}[:1+whole]; !reflect.DeepEqual(tids, want) {
			t.Fatalf("tear at %d: reopened to records %v, want %v", k, tids, want)
		}
		if _, seq, _, err := l2.Append(9, 0, []Range{mkRange(1, 0, 'z', 50)}); err != nil || seq != uint64(2+whole) {
			t.Fatalf("tear at %d: append after reopen: seq %d, %v", k, seq, err)
		}
	}
}

// TestEncodeBufferRetentionBound appends a record larger than encMaxRetain:
// the log must not keep the buffer that record grew, and the next small
// append, encoded into a buffer of its own, must still write exactly what
// appendRecord encodes for it.
func TestEncodeBufferRetentionBound(t *testing.T) {
	l, dev := openMem(t, newMemImage(t, 4<<20))
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

// TestAppendBatchTransientRetry fails — and tears — device writes of a
// batch that spans a wrap, retrying as the engine's retryIO does: the log
// must end up byte for byte where a fault-free batch leaves it, with no
// sequence number duplicated or skipped.
func TestAppendBatchTransientRetry(t *testing.T) {
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
		var ents []Entry
		for i := 0; i < 6; i++ {
			ents = append(ents, Entry{TID: uint64(10 + i), Ranges: []Range{mkRange(1, uint64(i), byte('b'+i), 1500)}})
		}
		retries := 0
		for done := 0; done < len(ents); {
			n, err := l.AppendBatch(ents[done:])
			done += n
			if err != nil {
				if !iofault.IsTransient(err) || retries > 10 {
					t.Fatal(err)
				}
				retries++
			}
		}
		for i, e := range ents {
			want := uint64(2 + i)
			if e.Pos < ents[0].Pos {
				want++ // behind the wrap record, which took a number
			}
			if e.Seq != want {
				t.Fatalf("record %d got seq %d at %d, want %d", i, e.Seq, e.Pos, want)
			}
		}
		return l, dev, retries
	}
	clean, cleanDev, _ := run()
	for name, faults := range map[string][]iofault.Fault{
		"first run fails":         {{Ops: iofault.OpWrite, Count: 1}},
		"second run fails twice":  {{Ops: iofault.OpWrite, After: 1, Count: 2}},
		"both runs torn":          {{Ops: iofault.OpWrite, Count: 1, Torn: true}, {Ops: iofault.OpWrite, After: 1, Count: 1, Torn: true, TornFrac: 0.9}},
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

// BenchmarkAppendBatch appends records of a TPC-A transaction's shape (four
// ranges, 152 bytes) to a real file, recs at a time, through AppendBatch
// and through the per-record Append loop it replaces in the spool drain.
func BenchmarkAppendBatch(b *testing.B) {
	for _, recs := range []int{1, 256} {
		ents := make([]Entry, recs)
		for i := range ents {
			ents[i] = Entry{TID: uint64(i + 1), Ranges: []Range{
				mkRange(1, uint64(i)*128, 1, 16), mkRange(1, 1<<20+uint64(i)*64, 2, 24), mkRange(1, 2<<20, 3, 8), mkRange(1, 2<<20+64, 4, 8),
			}}
		}
		for _, mode := range []string{"batch", "loop"} {
			b.Run(fmt.Sprintf("recs=%d/%s", recs, mode), func(b *testing.B) {
				path := filepath.Join(b.TempDir(), "log.rvm")
				if err := Create(path, 64<<20); err != nil {
					b.Fatal(err)
				}
				l, err := Open(path)
				if err != nil {
					b.Fatal(err)
				}
				defer l.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if l.Used() > 48<<20 {
						if err := l.SetHead(l.Tail()); err != nil {
							b.Fatal(err)
						}
					}
					if mode == "batch" {
						if _, err := l.AppendBatch(ents); err != nil {
							b.Fatal(err)
						}
						continue
					}
					for _, e := range ents {
						if _, _, _, err := l.Append(e.TID, e.Flags, e.Ranges); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*recs), "ns/rec")
			})
		}
	}
}
