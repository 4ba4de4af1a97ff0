package wal

import (
	"testing"
)

// scanFrom collects, deep-copied, the records a Scan from (pos, seq) to the
// tail delivers.
func scanFrom(t *testing.T, l *Log, pos int64, seq uint64) []*Record {
	t.Helper()
	var recs []*Record
	err := l.Scan(pos, seq, func(window []Record) error {
		for i := range window {
			recs = append(recs, cloneRecord(&window[i]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// seqsOf returns the sequence numbers of recs, in order.
func seqsOf(recs []*Record) []uint64 {
	var out []uint64
	for _, r := range recs {
		out = append(out, r.Seq)
	}
	return out
}

// TestAnalyzeBackwardNoCheckpoint predates the forward scanner (PR 22) and
// keeps its name: a log's live records are all redo has to consider, from
// the head on, and the scan that finds the tail walks exactly their bytes.
func TestAnalyzeBackwardNoCheckpoint(t *testing.T) {
	l, path := newLog(t, 1<<16)
	for i := 1; i <= 4; i++ {
		if _, _, _, err := l.Append(uint64(i), 0, []Range{mkRange(1, uint64(i)*64, 'x', 16)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if got := seqsOf(scanFrom(t, l, l.head, l.headSeq)); len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Fatalf("redo considers seqs %v, want 1 to 4", got)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Used() != l.Used() {
		t.Fatalf("the tail scan walked %d bytes, the log has %d live", l2.Used(), l.Used())
	}
}

// TestReadRecordMatchesScan: a scan started at any record the forward scan
// delivered reads exactly the records that scan delivers from there on.
func TestReadRecordMatchesScan(t *testing.T) {
	l, _ := newLog(t, 1<<16)
	for i := 1; i <= 6; i++ {
		if _, _, _, err := l.Append(uint64(i), 0, []Range{mkRange(uint64(i%3), uint64(i)*128, byte(i), 100+i)}); err != nil {
			t.Fatal(err)
		}
	}
	fwd := collectForward(t, l)
	for k, first := range fwd {
		recs := scanFrom(t, l, first.Pos, first.Seq)
		if len(recs) != len(fwd)-k {
			t.Fatalf("scan from seq %d delivered %d records, want %d", first.Seq, len(recs), len(fwd)-k)
		}
		for i, rec := range recs {
			want := fwd[k+i]
			if rec.Seq != want.Seq || rec.Pos != want.Pos || rec.TID != want.TID || len(rec.Ranges) != len(want.Ranges) {
				t.Fatalf("from seq %d: record %d is seq %d tid %d ranges %d, forward scan seq %d tid %d ranges %d",
					first.Seq, i, rec.Seq, rec.TID, len(rec.Ranges), want.Seq, want.TID, len(want.Ranges))
			}
			for j := range rec.Ranges {
				a, b := rec.Ranges[j], want.Ranges[j]
				if a.Seg != b.Seg || a.Off != b.Off || string(a.Data) != string(b.Data) {
					t.Fatalf("from seq %d: seq %d range %d mismatch", first.Seq, rec.Seq, j)
				}
			}
		}
	}
	// A start with the wrong seq, or outside the live region, must fail,
	// not hand back data.
	fail := func([]Record) error { t.Fatal("a scan from a bad start delivered records"); return nil }
	if err := l.Scan(fwd[2].Pos, 4, fail); err == nil {
		t.Fatal("Scan accepted a mismatched seq")
	}
	if err := l.Scan(l.tailPos()+64, 3, fail); err == nil {
		t.Fatal("Scan accepted a start beyond the tail")
	}
	if recs := scanFrom(t, l, l.tailPos(), l.nextSeq.Load()); len(recs) != 0 {
		t.Fatalf("a scan from the tail delivered %d records", len(recs))
	}
}
