package wal

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"github.com/rvm-go/rvm/internal/iofault"
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
		totalLen := int64(binary.BigEndian.Uint32(hdr[0:]))
		if binary.BigEndian.Uint32(hdr[4:])&checkMask != 0 || totalLen < minRecordSize || pos+totalLen > areaSize {
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
// what the reference finds: the same tail, and the same transaction records
// in the same order.
func checkTailOracle(t testing.TB, dev Device) {
	t.Helper()
	var got []Record
	l, err := OpenScan(dev, func(recs []Record) error {
		for i := range recs {
			got = append(got, *cloneRecord(&recs[i]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	used, next, ref := refFindTail(t, dev, l.areaSize, l.head, l.headSeq)
	if l.used.Load() != used || l.nextSeq.Load() != next {
		t.Fatalf("scanner found %d live bytes and next seq %d, reference %d and %d", l.used.Load(), l.nextSeq.Load(), used, next)
	}
	var want []Record
	for _, r := range ref {
		if r.Type == recTx {
			want = append(want, r)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanner delivered %d records, reference %d, or they differ", len(got), len(want))
	}
}

// posOf returns the area offset of the live record carrying seq, wrap
// records included, or the tail's for a seq past them.
func posOf(t testing.TB, l *Log, seq uint64) int64 {
	t.Helper()
	_, _, recs := refFindTail(t, l.dev, l.areaSize, l.head, l.headSeq)
	for _, r := range recs {
		if r.Seq == seq {
			return r.Pos
		}
	}
	return l.tailPos()
}

// TestScannerMatchesReferenceTail runs the oracle over the shapes a tail
// scan meets beyond the torn records of TestAppendSectorSubsetTear
// (which checks every image it generates) and the read-path tests of
// reader_test.go (wrapped, chunk-straddling, torn mid-window): a tear
// exactly at a window boundary, a log filled to its last byte, stale
// records of the previous lap behind the tail, and wrap records.
func TestScannerMatchesReferenceTail(t *testing.T) {
	t.Run("torn at a window boundary", func(t *testing.T) {
		// The first window is minReadChunk bytes: make a record end exactly
		// there and tear the one that starts the second window.
		l, dev := openMem(t, newMemImage(t, 1<<16))
		for i, need := range []int64{minReadChunk - 1024, 1024, 2048} {
			if _, _, _, err := l.Append(uint64(i+1), 0, []Range{mkRange(1, 0, byte('a'+i), sizeFor(need))}); err != nil {
				t.Fatal(err)
			}
		}
		checkTailOracle(t, iofault.NewMem(dev.Bytes()))
		img := dev.Bytes()
		img[areaOff(minReadChunk)+headerSize+RangeLen(1, 0, 0)] ^= 1
		checkTailOracle(t, iofault.NewMem(img))
		if l2, _ := openMem(t, img); l2.used.Load() != minReadChunk || l2.nextSeq.Load() != 3 {
			t.Fatalf("reopened to %d live bytes, next seq %d; want %d and 3", l2.used.Load(), l2.nextSeq.Load(), minReadChunk)
		}
	})
	t.Run("full log", func(t *testing.T) {
		const area = 1 << 14
		l, dev := openMem(t, newMemImage(t, area))
		var refs []ref
		appendN := func(n int) {
			t.Helper()
			for i := 0; i < n; i++ {
				pos, seq, _, err := l.Append(uint64(len(refs)+1), 0, []Range{mkRange(1, 0, byte(i), sizeFor(area/8))})
				if err != nil {
					t.Fatal(err)
				}
				refs = append(refs, ref{pos, seq})
			}
		}
		appendN(8)
		if l.Used() != area {
			t.Fatalf("%d live bytes, want the whole area", l.Used())
		}
		checkTailOracle(t, dev)
		// The same, with the head mid-area: the live region ends where it
		// starts, after a lap.
		if err := l.SetHead(refs[3].pos, refs[3].seq); err != nil {
			t.Fatal(err)
		}
		appendN(3)
		if l.Used() != area {
			t.Fatalf("%d live bytes after the lap, want the whole area", l.Used())
		}
		checkTailOracle(t, dev)
	})
	t.Run("random laps and record types", func(t *testing.T) {
		rnd := rand.New(rand.NewSource(22))
		l, dev := openMem(t, newMemImage(t, 3*minReadChunk))
		for round := 0; round < 200; round++ {
			flags := uint8(rnd.Intn(4))
			if _, _, _, err := l.Append(uint64(round), flags, []Range{mkRange(1, 16, byte(round), 1+rnd.Intn(900))}); err != nil {
				// Full: drop the older half and go on.
				mid := l.headSeq + (l.nextSeq.Load()-l.headSeq)/2
				if err := l.SetHead(posOf(t, l, mid), mid); err != nil {
					t.Fatal(err)
				}
			}
			checkTailOracle(t, iofault.NewMem(dev.Bytes()))
		}
		if l.Stats().Wraps == 0 {
			t.Fatal("the log never wrapped")
		}
	})
}

// BenchmarkScan times the forward pass a restart rests on over a 4 MiB log
// of TPC-A-shaped records — four ranges of 8, 24, 8 and 8 bytes, what a
// restore transfer logs (paper §7.1.1) — held in memory, so that it times the
// decoding and the checksum, not a disk.  It reports ns per record and, by
// the log's live bytes, MB/s.
func BenchmarkScan(b *testing.B) {
	const area = 4 << 20
	l, _ := openMem(b, newMemImage(b, area))
	rnd := rand.New(rand.NewSource(44))
	data := make([]byte, 48)
	for tid := uint64(1); ; tid++ {
		rnd.Read(data)
		acct, audit := uint64(rnd.Intn(8192))*128, 1<<20+tid%4096*64
		rs := []Range{{1, acct, data[:8]}, {1, audit, data[8:32]}, {1, 2 << 20, data[32:40]}, {1, 2<<20 + 2048, data[40:]}}
		if !l.Fits(EncodedLen(rs)) {
			break
		}
		if _, _, _, err := l.Append(tid, 0, rs); err != nil {
			b.Fatal(err)
		}
	}
	head, seq := l.Head()
	var recs int
	b.SetBytes(l.Used())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Scan(head, seq, func(window []Record) error {
			recs += len(window)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(recs), "ns/record")
}
