package wal

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// refFindTail is the tail finder Open ran before the fused scanner replaced
// it (PR 22), kept as the reference the scanner is checked against: from
// the head it reads one record at a time — the header, then the extent the
// header claims — and stops at the first bytes that do not decode as the
// record with the next sequence number.  It returns the live bytes, the
// sequence number after them and a deep copy of every record passed, wrap
// records included.
func refFindTail(t testing.TB, dev Device, areaSize, head int64, headSeq uint64) (used int64, next uint64, recs []Record) {
	t.Helper()
	pos, next := head, headSeq
	hdr := make([]byte, headerSize)
	for used < areaSize && areaSize-pos >= minRecordSize {
		if n, err := dev.ReadAt(hdr, areaOff(pos)); n < headerSize {
			t.Fatalf("reference: header at %d: %v", pos, err)
		}
		totalLen := int64(binary.BigEndian.Uint32(hdr[4:]))
		if binary.BigEndian.Uint32(hdr[0:]) != recMagic || totalLen < minRecordSize || pos+totalLen > areaSize {
			break
		}
		buf := make([]byte, totalLen)
		if n, err := dev.ReadAt(buf, areaOff(pos)); int64(n) < totalLen {
			t.Fatalf("reference: record at %d: %v", pos, err)
		}
		var rec Record
		if !decodeRecord(&rec, buf, pos, next) {
			break
		}
		recs = append(recs, rec) // buf is the record's own: nothing to copy
		used += totalLen
		next++
		if pos += totalLen; pos == areaSize {
			pos = 0
		}
	}
	return used, next, recs
}

// checkTailOracle opens dev's image with the scanner and requires exactly
// what the reference finds: the same tail, the same records in the same
// order, and an analysis that locates them.
func checkTailOracle(t testing.TB, dev Device) {
	t.Helper()
	var got []Record
	l, an, err := OpenScan(dev, func(w *Window) error {
		for i := range w.Recs {
			got = append(got, *cloneRecord(&w.Recs[i]))
		}
		w.Release()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	used, next, ref := refFindTail(t, dev, l.areaSize, l.head, l.headSeq)
	if l.used != used || l.nextSeq != next {
		t.Fatalf("scanner found %d live bytes and next seq %d, reference %d and %d", l.used, l.nextSeq, used, next)
	}
	if len(an.recs) != len(ref) {
		t.Fatalf("analysis notes %d records, reference passed %d", len(an.recs), len(ref))
	}
	var want []Record
	var stable uint64
	scanned := used
	for _, r := range ref {
		if pos := an.Pos(r.Seq); pos != r.Pos {
			t.Fatalf("analysis puts seq %d at %d, reference record %+v", r.Seq, pos, r)
		}
		switch r.Type {
		case recWrap:
			continue
		case recCkpt:
			stable = r.CkptSeq
		}
		want = append(want, r)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanner delivered %d records, reference %d, or they differ", len(got), len(want))
	}
	for _, r := range ref {
		if r.Seq < stable {
			scanned -= r.Len
		}
	}
	if an.Stable != stable || an.Scanned != scanned {
		t.Fatalf("analysis: stable %d scanned %d, reference %d and %d", an.Stable, an.Scanned, stable, scanned)
	}
}

// TestScannerMatchesReferenceTail runs the oracle over the shapes a tail
// scan meets beyond the torn batches of TestAppendBatchSectorSubsetTear
// (which checks every image it generates) and the read-path tests of
// reader_test.go (wrapped, chunk-straddling, torn mid-window): a tear
// exactly at a window boundary, a log filled to its last byte, stale
// records of the previous lap behind the tail, and every record type.
func TestScannerMatchesReferenceTail(t *testing.T) {
	t.Run("torn at a window boundary", func(t *testing.T) {
		// The first window is minReadChunk bytes: make a record end exactly
		// there and tear the one that starts the second window.
		l, dev := openMem(t, newMemImage(t, 1<<16))
		if _, err := l.AppendBatch([]Entry{
			{TID: 1, Ranges: []Range{mkRange(1, 0, 'a', sizeFor(minReadChunk-1024))}},
			{TID: 2, Ranges: []Range{mkRange(1, 0, 'b', sizeFor(1024))}},
			{TID: 3, Ranges: []Range{mkRange(1, 0, 'c', sizeFor(2048))}},
		}); err != nil {
			t.Fatal(err)
		}
		checkTailOracle(t, &memDev{b: bytes.Clone(dev.b)})
		dev.b[areaOff(minReadChunk)+headerSize+rangeHdrSize] ^= 1
		checkTailOracle(t, dev)
		if l2, _ := openMem(t, dev.b); l2.used != minReadChunk || l2.nextSeq != 3 {
			t.Fatalf("reopened to %d live bytes, next seq %d; want %d and 3", l2.used, l2.nextSeq, minReadChunk)
		}
	})
	t.Run("full log", func(t *testing.T) {
		const area = 1 << 14
		l, dev := openMem(t, newMemImage(t, area))
		var ents []Entry
		for i := 0; i < 8; i++ {
			ents = append(ents, Entry{TID: uint64(i + 1), Ranges: []Range{mkRange(1, 0, byte(i), sizeFor(area/8))}})
		}
		if _, err := l.AppendBatch(ents); err != nil {
			t.Fatal(err)
		}
		if l.Used() != area {
			t.Fatalf("%d live bytes, want the whole area", l.Used())
		}
		checkTailOracle(t, dev)
		// The same, with the head mid-area: the live region ends where it
		// starts, after a lap.
		if err := l.SetHead(ents[3].Pos, ents[3].Seq); err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendBatch(ents[:3]); err != nil {
			t.Fatal(err)
		}
		if l.Used() != area {
			t.Fatalf("%d live bytes after the lap, want the whole area", l.Used())
		}
		checkTailOracle(t, dev)
	})
	t.Run("random laps and record types", func(t *testing.T) {
		rnd := rand.New(rand.NewSource(22))
		l, dev := openMem(t, newMemImage(t, 3*minReadChunk))
		for round := 0; round < 200; round++ {
			var err error
			switch k := rnd.Intn(10); {
			case k == 0:
				_, _, err = l.AppendCheckpoint(l.headSeq + uint64(rnd.Intn(int(l.nextSeq-l.headSeq)+1)))
			default:
				_, _, _, err = l.Append(uint64(round), uint8(k), []Range{mkRange(1, 16, byte(round), 1+rnd.Intn(900))})
			}
			if err != nil { // full: drop the older half and go on
				mid := l.headSeq + (l.nextSeq-l.headSeq)/2
				if err := l.SetHead(analyze(t, l).Pos(mid), mid); err != nil {
					t.Fatal(err)
				}
			}
			checkTailOracle(t, &memDev{b: bytes.Clone(dev.b)})
		}
		if l.Stats().Wraps == 0 {
			t.Fatal("the log never wrapped")
		}
	})
}
