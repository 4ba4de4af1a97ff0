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

// readerArea is larger than two read chunks, so every pass over a full log
// refills its window mid-walk and records of a few hundred bytes to a few
// KB straddle the chunk boundaries.
const readerArea = 2*readChunk + readChunk/2

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
// (oldest first): both scans, analysis plus ReadRecords, and — through a
// second handle on the same file — the tail scan at Open.
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
	err = l.ScanBackward(func(r *Record) error {
		i--
		if i < 0 || !sameRecord(r, want[i]) {
			t.Fatalf("backward scan: record %d (seq %d at %d) differs", i, r.Seq, r.Pos)
		}
		return nil
	})
	if err != nil || i != 0 {
		t.Fatalf("backward scan stopped %d records short: %v", i, err)
	}
	an, err := l.AnalyzeBackward()
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Refs) != len(want) || an.Scanned != l.Used() {
		t.Fatalf("analysis found %d refs over %d bytes, want %d over %d", len(an.Refs), an.Scanned, len(want), l.Used())
	}
	rd, err := l.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, len(an.Refs))
	if err := rd.ReadRecords(an.Refs, recs); err != nil {
		t.Fatal(err)
	}
	for k, ref := range an.Refs {
		if !sameRecord(&recs[k], want[len(want)-1-k]) {
			t.Fatalf("ReadRecords: ref %d (seq %d at %d) differs", k, ref.Seq, ref.Pos)
		}
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	tp, ts := l.Tail()
	if tp2, ts2 := l2.Tail(); tp2 != tp || ts2 != ts || l2.Used() != l.Used() {
		t.Fatalf("reopen found tail (%d, seq %d) with %d live, want (%d, seq %d) with %d",
			tp2, ts2, l2.Used(), tp, ts, l.Used())
	}
}

func TestReadersAcrossChunkBoundaries(t *testing.T) {
	l, path := newLog(t, readerArea)
	want := fillLog(t, l, rand.New(rand.NewSource(1)), readerArea-8192)
	straddles := 0
	for _, r := range want {
		if r.Pos/readChunk != (r.Pos+EncodedLen(r.Ranges)-1)/readChunk {
			straddles++
		}
	}
	if straddles < 2 {
		t.Fatalf("%d records straddle a chunk boundary, want one per boundary", straddles)
	}
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

// TestConcurrentReaders decodes one log from four workers at once, each
// through its own Reader and in the worst order for its windows (every
// fourth ref).  Run under -race.
func TestConcurrentReaders(t *testing.T) {
	l, _ := newLog(t, readerArea)
	want := fillLog(t, l, rand.New(rand.NewSource(4)), readChunk+readChunk/2)
	an, err := l.AnalyzeBackward()
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rd, err := l.NewReader()
			if err != nil {
				t.Error(err)
				return
			}
			var refs []RecordRef
			for k := w; k < len(an.Refs); k += workers {
				refs = append(refs, an.Refs[k])
			}
			recs := make([]Record, len(refs))
			if err := rd.ReadRecords(refs, recs); err != nil {
				t.Error(err)
				return
			}
			// The whole batch is valid once the reader has read it all.
			for i := range recs {
				if !sameRecord(&recs[i], want[len(want)-1-(w+i*workers)]) {
					t.Errorf("worker %d: record %d differs", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// readCounter counts the positional reads a Reader makes.
type readCounter struct {
	Device
	reads int
	bytes int64
}

func (d *readCounter) ReadAt(p []byte, off int64) (int, error) {
	d.reads++
	d.bytes += int64(len(p))
	return d.Device.ReadAt(p, off)
}

// TestReaderBatches pins what a batch costs: one read per chunk, nothing
// read beyond the batch's own records — the part of the log below them
// belongs to another worker —, windows and range storage of one batch
// reused by the next, across the wrap too.
func TestReaderBatches(t *testing.T) {
	l, _ := newLog(t, readerArea)
	rnd := rand.New(rand.NewSource(5))
	old := fillLog(t, l, rnd, readChunk)
	if err := l.SetHead(old[len(old)-1].Pos, old[len(old)-1].Seq); err != nil {
		t.Fatal(err)
	}
	want := append(old[len(old)-1:], fillLog(t, l, rnd, 2*readChunk)...) // wraps
	an, err := l.AnalyzeBackward()
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Refs) != len(want) {
		t.Fatalf("%d refs for %d records", len(an.Refs), len(want))
	}
	dev := &readCounter{Device: l.dev}
	rd := &Reader{dev: dev, areaSize: l.areaSize}
	recs := make([]Record, len(an.Refs))
	const batches = 3
	per := (len(an.Refs) + batches - 1) / batches
	pass := func() {
		for lo := 0; lo < len(an.Refs); lo += per {
			hi := min(lo+per, len(an.Refs))
			refs, out := an.Refs[lo:hi], recs[:hi-lo]
			*dev = readCounter{Device: l.dev}
			if err := rd.ReadRecords(refs, out); err != nil {
				t.Fatal(err)
			}
			var span int64
			for k, ref := range refs {
				span += ref.Len
				if !sameRecord(&out[k], want[len(want)-1-lo-k]) {
					t.Fatalf("batch at %d: record %d differs", lo, k)
				}
			}
			if dev.bytes != span {
				t.Fatalf("batch at %d: read %d bytes for %d bytes of records", lo, dev.bytes, span)
			}
			if maxReads := int(span/readChunk) + 3; dev.reads > maxReads {
				t.Fatalf("batch at %d: %d reads for %d bytes", lo, dev.reads, span)
			}
		}
	}
	pass()
	wins := append([][]byte(nil), rd.wins...)
	pass()
	if len(rd.wins) != len(wins) {
		t.Fatalf("a second pass over the same batches took %d windows, the first %d", len(rd.wins), len(wins))
	}
	for k := range wins {
		if &rd.wins[k][:1][0] != &wins[k][:1][0] {
			t.Fatalf("window %d was not reused", k)
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
