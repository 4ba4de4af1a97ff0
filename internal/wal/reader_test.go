package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"sync"
	"testing"
)

// readChunk is these tests' unit of log: eight scan windows.  readerArea is
// larger than two of them, so every pass over a full log takes some twenty
// windows — more than a scan has out at once — and records of a few hundred
// bytes to a few KB straddle nearly every window's end.
const (
	readChunk  = 8 * scanChunk
	readerArea = 2*readChunk + readChunk/2
)

// fillLog appends records of random shape until about nbytes more are
// live, and returns what it appended, oldest first.
func fillLog(t *testing.T, l *Log, rnd *rand.Rand, nbytes int64) []*Record {
	t.Helper()
	var recs []*Record
	for start := l.Used(); l.Used()-start < nbytes; {
		rec := &Record{TID: rnd.Uint64() | 1, Flags: uint8(rnd.Intn(4))}
		for k := rnd.Intn(4); k >= 0; k-- {
			r := mkRange(uint64(rnd.Intn(5)), rnd.Uint64()>>8, byte(rnd.Intn(256)), 1+rnd.Intn(1200))
			r.Data[0] = byte(len(recs))
			rec.Ranges = append(rec.Ranges, r)
		}
		pos, seq, _, err := l.Append(rec.TID, rec.Flags, rec.Ranges)
		if err != nil {
			t.Fatal(err)
		}
		rec.Pos, rec.Seq = pos, seq
		recs = append(recs, rec)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	return recs
}

func sameRecord(got, want *Record) bool {
	if got.Pos != want.Pos || got.Seq != want.Seq || got.TID != want.TID || got.Flags != want.Flags ||
		got.Type != RecTx || len(got.Ranges) != len(want.Ranges) {
		return false
	}
	for i, r := range got.Ranges {
		w := want.Ranges[i]
		if r.Seg != w.Seg || r.Off != w.Off || !bytes.Equal(r.Data, w.Data) {
			return false
		}
	}
	return true
}

// checkReadPaths requires every read path of l to deliver exactly want
// (oldest first): the scan and its newest-first reverse, a scan that starts
// where the analysis puts a record in mid-log, and — through a second handle
// on the same file — the tail scan at Open, which must also agree with the
// reference tail finder.
func checkReadPaths(t *testing.T, l *Log, path string, want []*Record) {
	t.Helper()
	i := 0
	err := l.ScanForward(func(r *Record) error {
		if i >= len(want) || !sameRecord(r, want[i]) {
			t.Fatalf("forward scan: record %d (seq %d at %d) differs", i, r.Seq, r.Pos)
		}
		i++
		return nil
	})
	if err != nil || i != len(want) {
		t.Fatalf("forward scan delivered %d of %d records: %v", i, len(want), err)
	}
	for _, r := range collectBackward(t, l) {
		i--
		if !sameRecord(r, want[i]) {
			t.Fatalf("newest-first: record %d (seq %d at %d) differs", i, r.Seq, r.Pos)
		}
	}
	an := analyze(t, l)
	if an.Scanned != l.Used() {
		t.Fatalf("analysis covers %d bytes, want %d", an.Scanned, l.Used())
	}
	mid := len(want) / 2
	recs, _ := scanFrom(t, l, an.Pos(want[mid].Seq), want[mid].Seq)
	if len(recs) != len(want)-mid {
		t.Fatalf("scan from record %d delivered %d records, want %d", mid, len(recs), len(want)-mid)
	}
	for k, r := range recs {
		if !sameRecord(r, want[mid+k]) {
			t.Fatalf("scan from record %d: record %d (seq %d at %d) differs", mid, k, r.Seq, r.Pos)
		}
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	checkTailOracle(t, l2.dev)
	tp, ts := l.Tail()
	if tp2, ts2 := l2.Tail(); tp2 != tp || ts2 != ts || l2.Used() != l.Used() {
		t.Fatalf("reopen found tail (%d, seq %d) with %d live, want (%d, seq %d) with %d",
			tp2, ts2, l2.Used(), tp, ts, l.Used())
	}
}

func TestReadersAcrossChunkBoundaries(t *testing.T) {
	l, path := newLog(t, readerArea)
	want := fillLog(t, l, rand.New(rand.NewSource(1)), readerArea-8192)
	checkReadPaths(t, l, path, want)
}

// TestReadersAcrossWrap: the live region starts in the last chunk, runs
// into a wrap record at the area's end and continues from offset 0.
func TestReadersAcrossWrap(t *testing.T) {
	l, path := newLog(t, readerArea)
	rnd := rand.New(rand.NewSource(2))
	old := fillLog(t, l, rnd, readerArea-64<<10)
	keep := len(old) - 40
	if err := l.SetHead(old[keep].Pos, old[keep].Seq); err != nil {
		t.Fatal(err)
	}
	want := append(old[keep:], fillLog(t, l, rnd, readChunk+readChunk/2)...)
	if l.Stats().Wraps != 1 {
		t.Fatalf("%d wrap records, want 1", l.Stats().Wraps)
	}
	if tp, _ := l.Tail(); tp >= old[keep].Pos {
		t.Fatalf("tail %d did not wrap below head %d", tp, old[keep].Pos)
	}
	checkReadPaths(t, l, path, want)
}

// TestTornTailMidChunk: a record torn in the middle of a read window ends
// the live region there; what precedes it in the same window survives.
func TestTornTailMidChunk(t *testing.T) {
	l, path := newLog(t, readerArea)
	want := fillLog(t, l, rand.New(rand.NewSource(3)), readChunk+readChunk/2)
	last := want[len(want)-1]
	l.Close()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{^last.Ranges[0].Data[0]}, areaOff(last.Pos)+headerSize+rangeHdrSize); err != nil {
		t.Fatal(err)
	}
	f.Close()
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if tp, ts := l2.Tail(); tp != last.Pos || ts != last.Seq {
		t.Fatalf("tail (%d, seq %d), want the torn record's (%d, seq %d)", tp, ts, last.Pos, last.Seq)
	}
	checkReadPaths(t, l2, path, want[:len(want)-1])
}

// TestConcurrentReaders walks one log's windows on four workers at once
// while the scan that delivers them reads on: each worker sees every
// window, in order, and releases it from its own goroutine; the last
// release recycles it — how recovery's builders use a scan.  Run under
// -race.
func TestConcurrentReaders(t *testing.T) {
	l, _ := newLog(t, readerArea)
	want := fillLog(t, l, rand.New(rand.NewSource(4)), readChunk+readChunk/2)
	const workers = 4
	type job struct {
		w     *Window
		first int // index in want of the window's first record
	}
	var wg sync.WaitGroup
	queues := make([]chan job, workers)
	for k := range queues {
		queues[k] = make(chan job, ScanWindows)
		wg.Add(1)
		go func(q <-chan job) {
			defer wg.Done()
			for j := range q {
				for i := range j.w.Recs {
					if !sameRecord(&j.w.Recs[i], want[j.first+i]) {
						t.Errorf("record %d differs", j.first+i)
					}
				}
				j.w.Release()
			}
		}(queues[k])
	}
	seen, windows := 0, 0
	_, err := l.Scan(l.head, l.headSeq, func(w *Window) error {
		j := job{w: w, first: seen}
		seen += len(w.Recs)
		windows++
		w.Share(workers)
		for _, q := range queues {
			q <- j
		}
		return nil
	})
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	if err != nil || seen != len(want) {
		t.Fatalf("scan delivered %d of %d records: %v", seen, len(want), err)
	}
	if windows <= ScanWindows {
		t.Fatalf("the log took %d windows; want more than the %d a scan has out, so that some are reused", windows, ScanWindows)
	}
}

// readCounter counts the positional reads made of a device.
type readCounter struct {
	Device
	reads    int
	bytes    int64
	lo, hi   int64 // device extent read
	anything bool
}

func (d *readCounter) ReadAt(p []byte, off int64) (int, error) {
	d.reads++
	d.bytes += int64(len(p))
	if !d.anything || off < d.lo {
		d.lo = off
	}
	d.hi, d.anything = max(d.hi, off+int64(len(p))), true
	return d.Device.ReadAt(p, off)
}

// TestReaderBatches pins what a scan to the known tail costs: it reads in
// windows of scanChunk bytes, about one read per window; it reads nothing
// below the record it starts at nor beyond the tail, across the wrap too;
// what it reads twice is the records that straddle a window's end; and a
// consumer that releases each window before returning has the scan refill
// one buffer.
func TestReaderBatches(t *testing.T) {
	l, _ := newLog(t, readerArea)
	rnd := rand.New(rand.NewSource(5))
	old := fillLog(t, l, rnd, readChunk)
	if err := l.SetHead(old[len(old)-1].Pos, old[len(old)-1].Seq); err != nil {
		t.Fatal(err)
	}
	want := append(old[len(old)-1:], fillLog(t, l, rnd, 2*readChunk)...) // wraps
	an := analyze(t, l)
	dev := &readCounter{Device: l.dev}
	l.dev = dev
	defer func() { l.dev = dev.Device }()
	for _, start := range []int{0, len(want) / 3, len(want) - 1} {
		*dev = readCounter{Device: dev.Device}
		first := want[start]
		var bufs [][]byte
		k := start
		_, err := l.Scan(an.Pos(first.Seq), first.Seq, func(w *Window) error {
			defer w.Release()
			if len(bufs) == 0 || &bufs[len(bufs)-1][0] != &w.buf[:1][0] {
				bufs = append(bufs, w.buf)
			}
			for i := range w.Recs {
				if !sameRecord(&w.Recs[i], want[k]) {
					t.Fatalf("from record %d: record %d differs", start, k)
				}
				k++
			}
			return nil
		})
		if err != nil || k != len(want) {
			t.Fatalf("from record %d: scan delivered up to record %d of %d: %v", start, k, len(want), err)
		}
		// Live bytes from the start record to the tail, wrap record included.
		span := (l.tailPos() - first.Pos + l.areaSize) % l.areaSize
		if maxBytes := span + span/scanChunk*2048 + 2048; dev.bytes < span || dev.bytes > maxBytes {
			t.Fatalf("from record %d: read %d bytes for %d bytes of records; want at most %d", start, dev.bytes, span, maxBytes)
		}
		if maxReads := int(span/scanChunk) + 12; dev.reads > maxReads {
			t.Fatalf("from record %d: %d reads for %d bytes", start, dev.reads, span)
		}
		if first.Pos < l.tailPos() && (dev.lo < areaOff(first.Pos) || dev.hi > areaOff(l.tailPos())) {
			t.Fatalf("from record %d: read [%d,%d), outside the records' [%d,%d)", start, dev.lo, dev.hi, areaOff(first.Pos), areaOff(l.tailPos()))
		}
		// The buffer is regrown while the windows work up to scanChunk and
		// refilled in place from then on.
		if grow := 8; len(bufs) > grow {
			t.Fatalf("from record %d: the scan used %d buffers for a consumer that holds one window at a time", start, len(bufs))
		}
	}
}

// encodeRecord returns the on-disk bytes of one transaction record.
func encodeRecord(t testing.TB, ranges []Range) []byte {
	t.Helper()
	path := t.TempDir() + "/enc.rvm"
	if err := Create(path, 1<<16); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	_, _, n, err := l.Append(7, 0, ranges)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, n)
	if _, err := l.dev.ReadAt(buf, areaOff(0)); err != nil {
		t.Fatal(err)
	}
	return buf
}

// reseal recomputes a record's CRC, as an attacker editing the log would.
func reseal(buf []byte) {
	binary.BigEndian.PutUint32(buf[len(buf)-4:], crc32.ChecksumIEEE(buf[:len(buf)-4]))
}

// TestDecodeRejectsHostileRangeCount: a record whose header claims 2^32-1
// ranges, with a matching CRC, must be rejected before anything is sized
// by that count.
func TestDecodeRejectsHostileRangeCount(t *testing.T) {
	buf := encodeRecord(t, []Range{mkRange(1, 64, 'h', 40)})
	var rec Record
	if !decodeRecord(&rec, buf, 0, 1) || len(rec.Ranges) != 1 {
		t.Fatal("the unmodified record does not decode")
	}
	for _, n := range []uint32{0xFFFFFFFF, 3, 2} {
		binary.BigEndian.PutUint32(buf[12:], n)
		reseal(buf)
		if decodeRecord(&rec, buf, 0, 1) {
			t.Fatalf("record claiming %d ranges in %d bytes decoded to %d ranges", n, len(buf), len(rec.Ranges))
		}
	}
	// A range length running past the record's end is no better.
	binary.BigEndian.PutUint32(buf[12:], 1)
	binary.BigEndian.PutUint32(buf[headerSize+16:], 0xFFFFFFF0)
	reseal(buf)
	if decodeRecord(&rec, buf, 0, 1) {
		t.Fatal("record with a range longer than itself decoded")
	}
}
