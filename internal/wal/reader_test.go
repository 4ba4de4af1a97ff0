package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"github.com/rvm-go/rvm/internal/iofault"
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
		rec := &Record{TID: uint64(rnd.Uint32() | 1), Flags: uint8(rnd.Intn(4))}
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
// at a record in mid-log, and — through a second handle
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
	mid := len(want) / 2
	recs := scanFrom(t, l, want[mid].Pos, want[mid].Seq)
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
	if _, err := f.WriteAt([]byte{^last.Ranges[0].Data[0]}, areaOff(last.Pos)+headerSize+RangeLen(last.Ranges[0].Seg, last.Ranges[0].Off, 0)); err != nil {
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

// TestReaderBatches pins what a scan to the known tail costs: it reads in
// windows of scanChunk bytes, about one read per window; it reads nothing
// below the record it starts at nor beyond the tail, across the wrap too;
// and what it reads twice is the records that straddle a window's end.
func TestReaderBatches(t *testing.T) {
	l, _ := newLog(t, readerArea)
	rnd := rand.New(rand.NewSource(5))
	old := fillLog(t, l, rnd, readChunk)
	if err := l.SetHead(old[len(old)-1].Pos, old[len(old)-1].Seq); err != nil {
		t.Fatal(err)
	}
	want := append(old[len(old)-1:], fillLog(t, l, rnd, 2*readChunk)...) // wraps
	file := l.dev
	defer func() { l.dev = file }()
	for _, start := range []int{0, len(want) / 3, len(want) - 1} {
		dev := iofault.NewInjector(file, 1)
		var lo, hi int64 // device extent read
		dev.SetHook(func(op iofault.Op, off int64, n int) {
			if op == iofault.OpRead {
				if hi == 0 || off < lo {
					lo = off
				}
				hi = max(hi, off+int64(n))
			}
		})
		l.dev = dev
		first := want[start]
		k := start
		err := l.Scan(first.Pos, first.Seq, func(recs []Record) error {
			for i := range recs {
				if !sameRecord(&recs[i], want[k]) {
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
		st := dev.Stats()
		if maxBytes := span + span/scanChunk*2048 + 2048; int64(st.ReadBytes) < span || int64(st.ReadBytes) > maxBytes {
			t.Fatalf("from record %d: read %d bytes for %d bytes of records; want at most %d", start, st.ReadBytes, span, maxBytes)
		}
		if maxReads := uint64(span/scanChunk) + 12; st.Reads > maxReads {
			t.Fatalf("from record %d: %d reads for %d bytes", start, st.Reads, span)
		}
		if first.Pos < l.tailPos() && (lo < areaOff(first.Pos) || hi > areaOff(l.tailPos())) {
			t.Fatalf("from record %d: read [%d,%d), outside the records' [%d,%d)", start, lo, hi, areaOff(first.Pos), areaOff(l.tailPos()))
		}
	}
}

// TestScanAllocatesWindowOnce: every consumer is done with a window's
// records when it returns, so a scan over a log of many windows allocates
// one window buffer and reads each window into it.  Every record here has
// one range behind a short header, so each window's first range starts at
// the same offset of the buffer the window was read into.
func TestScanAllocatesWindowOnce(t *testing.T) {
	l, _ := newLog(t, readerArea)
	for i := 0; l.Used() < 6*scanChunk; i++ {
		if _, _, _, err := l.Append(uint64(i+1), 0, []Range{mkRange(1, uint64(i)*64, byte(i), 1000)}); err != nil {
			t.Fatal(err)
		}
	}
	bufs := map[*byte]bool{}
	windows := 0
	pos, seq := l.Head()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := l.Scan(pos, seq, func(recs []Record) error {
		windows++
		bufs[&recs[0].Ranges[0].Data[0]] = true
		return nil
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d windows, %d buffers, %d bytes allocated", windows, len(bufs), alloc)
	if windows < 4 || len(bufs) != 1 {
		t.Fatalf("a scan of %d windows read them into %d buffers; want at least 4 windows and one buffer", windows, len(bufs))
	}
	// The buffer, and the records' slots, which a window of these records
	// keeps to a fifth of the buffer.
	if alloc > scanChunk+scanChunk/2 {
		t.Fatalf("a scan of %d windows allocated %d bytes; want at most %d", windows, alloc, scanChunk+scanChunk/2)
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

// reseal recomputes the CRC of a record carrying seq, as an attacker editing
// the log would.
func reseal(buf []byte, seq uint64) {
	n := len(buf) - trailerSize
	binary.BigEndian.PutUint32(buf[n:], crc32.Update(crcSeed(seq), castagnoli, buf[:n]))
}

// TestDecodeBoundsRangesByBody: the decoder sizes nothing by a field of the
// record.  The ranges it decodes from a body of n bytes are at most n/8 —
// even in a record packed with one-byte ranges, the densest a CRC-sealed
// record can be — so the slice that holds them is at most twice that; and a
// range length that runs past the record, a wide header the record cuts
// short or a range of no bytes is refused, CRC or not.
func TestDecodeBoundsRangesByBody(t *testing.T) {
	var dense, mixed []Range
	for i := range 4000 {
		dense = append(dense, mkRange(1, uint64(i), 'd', 1))
		if i%2 == 0 {
			mixed = append(mixed, mkRange(1, uint64(i), 'd', 1), mkRange(1<<20, uint64(i), 'w', 1))
		}
	}
	for _, ranges := range [][]Range{{mkRange(1, 64, 'h', 40)}, dense, mixed} {
		buf := encodeRecord(t, ranges)
		var rec Record
		body := len(buf) - minRecordSize
		if !decodeRecord(&rec, buf, 0, 1) || len(rec.Ranges) != len(ranges) {
			t.Fatalf("a record of %d ranges does not decode", len(ranges))
		}
		if len(rec.Ranges) > body/8 || cap(rec.Ranges) > 2*(body/8) {
			t.Fatalf("%d ranges in a slice of %d decoded from a %d-byte body", len(rec.Ranges), cap(rec.Ranges), body)
		}
	}
	buf := encodeRecord(t, []Range{mkRange(1, 64, 'h', 40)})
	var rec Record
	// A range length running past the record's end, in a short range header
	// (len u16 first) or in a wide one (len u32 last).
	binary.BigEndian.PutUint16(buf[headerSize:], 0xFFF0)
	reseal(buf, 1)
	if decodeRecord(&rec, buf, 0, 1) {
		t.Fatal("record with a short range longer than itself decoded")
	}
	binary.BigEndian.PutUint16(buf[headerSize:], 0xFFFF)
	binary.BigEndian.PutUint32(buf[headerSize+wideHdr-4:], 0xFFFFFFF0)
	reseal(buf, 1)
	if decodeRecord(&rec, buf, 0, 1) {
		t.Fatal("record with a wide range longer than itself decoded")
	}
	// A range of no bytes is never encoded: its header is not the end.
	binary.BigEndian.PutUint16(buf[headerSize:], 0)
	reseal(buf, 1)
	if decodeRecord(&rec, buf, 0, 1) {
		t.Fatal("record with an empty range decoded")
	}
	// Nor is a wide header cut short by the record's end.
	short := encodeRecord(t, []Range{mkRange(1, 64, 'c', 8)})
	binary.BigEndian.PutUint16(short[headerSize:], 0xFFFF)
	reseal(short, 1)
	if len(short)-minRecordSize >= wideHdr || decodeRecord(&rec, short, 0, 1) {
		t.Fatalf("a %d-byte record with a wide range header decoded", len(short))
	}
}
