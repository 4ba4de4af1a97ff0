package wal

import (
	"testing"
)

// seqs extracts the sequence numbers of a ref slice.
func seqs(refs []RecordRef) []uint64 {
	out := make([]uint64, len(refs))
	for i, r := range refs {
		out[i] = r.Seq
	}
	return out
}

func TestCheckpointAppendScanRoundTrip(t *testing.T) {
	l, path := newLog(t, 1<<16)
	if _, _, _, err := l.Append(1, 0, []Range{mkRange(1, 0, 'a', 64)}); err != nil {
		t.Fatal(err)
	}
	if _, seq, err := l.AppendCheckpoint(42); err != nil {
		t.Fatal(err)
	} else if seq != 2 {
		t.Fatalf("checkpoint got seq %d, want 2", seq)
	}
	if _, _, _, err := l.Append(2, 0, []Range{mkRange(1, 100, 'b', 32)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}

	check := func(recs []*Record, label string) {
		t.Helper()
		if len(recs) != 3 {
			t.Fatalf("%s scan found %d records, want 3", label, len(recs))
		}
		var ck *Record
		for _, r := range recs {
			if r.Type == RecCheckpoint {
				ck = r
			}
		}
		if ck == nil {
			t.Fatalf("%s scan delivered no checkpoint record", label)
		}
		if ck.Seq != 2 || ck.CkptSeq != 42 || ck.TID != 0 || len(ck.Ranges) != 0 {
			t.Fatalf("%s checkpoint = seq %d tid %d stable %d ranges %d",
				label, ck.Seq, ck.TID, ck.CkptSeq, len(ck.Ranges))
		}
	}
	check(collectForward(t, l), "forward")
	check(collectBackward(t, l), "backward")

	if st := l.Stats(); st.Checkpoints != 1 || st.Appends != 2 {
		t.Fatalf("stats: checkpoints=%d appends=%d", st.Checkpoints, st.Appends)
	}

	// A reopen must rediscover the tail across the checkpoint record.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, next := l2.Tail(); next != 4 {
		t.Fatalf("reopen next seq = %d, want 4", next)
	}
	check(collectForward(t, l2), "reopened")
}

func TestAnalyzeBackwardNoCheckpoint(t *testing.T) {
	l, _ := newLog(t, 1<<16)
	for i := 1; i <= 4; i++ {
		if _, _, _, err := l.Append(uint64(i), 0, []Range{mkRange(1, uint64(i)*64, 'x', 16)}); err != nil {
			t.Fatal(err)
		}
	}
	an, err := l.AnalyzeBackward()
	if err != nil {
		t.Fatal(err)
	}
	if an.Stable != 0 {
		t.Fatalf("stable = %d without any checkpoint", an.Stable)
	}
	if an.Scanned != l.Used() {
		t.Fatalf("scanned %d bytes, log has %d live", an.Scanned, l.Used())
	}
	want := []uint64{4, 3, 2, 1}
	got := seqs(an.Refs)
	if len(got) != len(want) {
		t.Fatalf("refs %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("refs %v, want %v", got, want)
		}
	}
}

func TestAnalyzeBackwardCheckpointCutoff(t *testing.T) {
	l, _ := newLog(t, 1<<16)
	// seq 1..5: transactions.
	for i := 1; i <= 5; i++ {
		if _, _, _, err := l.Append(uint64(i), 0, []Range{mkRange(1, uint64(i)*64, 'x', 16)}); err != nil {
			t.Fatal(err)
		}
	}
	// seq 6: checkpoint asserting everything below 4 is reflected.
	if _, _, err := l.AppendCheckpoint(4); err != nil {
		t.Fatal(err)
	}
	// seq 7, 8: transactions after the checkpoint.
	for i := 7; i <= 8; i++ {
		if _, _, _, err := l.Append(uint64(i), 0, []Range{mkRange(1, uint64(i)*64, 'y', 16)}); err != nil {
			t.Fatal(err)
		}
	}

	an, err := l.AnalyzeBackward()
	if err != nil {
		t.Fatal(err)
	}
	if an.Stable != 4 {
		t.Fatalf("stable = %d, want 4", an.Stable)
	}
	if an.Scanned >= l.Used() {
		t.Fatalf("scanned %d bytes, want a bounded suffix of the %d live", an.Scanned, l.Used())
	}
	// Replay set: seq >= stable, newest first; seq 1..3 are cut off.
	want := []uint64{8, 7, 5, 4}
	got := seqs(an.Refs)
	if len(got) != len(want) {
		t.Fatalf("refs %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("refs %v, want %v", got, want)
		}
	}
}

func TestAnalyzeBackwardNewestCheckpointWins(t *testing.T) {
	l, _ := newLog(t, 1<<16)
	for i := 1; i <= 3; i++ {
		if _, _, _, err := l.Append(uint64(i), 0, []Range{mkRange(1, uint64(i)*64, 'x', 16)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := l.AppendCheckpoint(2); err != nil { // seq 4
		t.Fatal(err)
	}
	if _, _, _, err := l.Append(5, 0, []Range{mkRange(1, 0, 'y', 16)}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.AppendCheckpoint(5); err != nil { // seq 6
		t.Fatal(err)
	}
	an, err := l.AnalyzeBackward()
	if err != nil {
		t.Fatal(err)
	}
	if an.Stable != 5 {
		t.Fatalf("stable = %d, want the newest checkpoint's 5", an.Stable)
	}
	got := seqs(an.Refs)
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("refs %v, want [5]", got)
	}
}

func TestReadRecordMatchesScan(t *testing.T) {
	l, _ := newLog(t, 1<<16)
	for i := 1; i <= 6; i++ {
		if _, _, _, err := l.Append(uint64(i), 0, []Range{mkRange(uint64(i%3), uint64(i)*128, byte(i), 100+i)}); err != nil {
			t.Fatal(err)
		}
	}
	an, err := l.AnalyzeBackward()
	if err != nil {
		t.Fatal(err)
	}
	refs := an.Refs
	fwd := collectForward(t, l)
	byseq := map[uint64]*Record{}
	for _, r := range fwd {
		byseq[r.Seq] = r
	}
	rd, err := l.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, len(refs))
	if err := rd.ReadRecords(refs, recs); err != nil {
		t.Fatal(err)
	}
	for i, ref := range refs {
		rec := &recs[i]
		want := byseq[ref.Seq]
		if want == nil {
			t.Fatalf("ref seq %d not in forward scan", ref.Seq)
		}
		if rec.TID != want.TID || len(rec.Ranges) != len(want.Ranges) {
			t.Fatalf("seq %d: ReadRecords tid=%d ranges=%d, scan tid=%d ranges=%d",
				ref.Seq, rec.TID, len(rec.Ranges), want.TID, len(want.Ranges))
		}
		for j := range rec.Ranges {
			a, b := rec.Ranges[j], want.Ranges[j]
			if a.Seg != b.Seg || a.Off != b.Off || string(a.Data) != string(b.Data) {
				t.Fatalf("seq %d range %d mismatch", ref.Seq, j)
			}
		}
	}
	// A ref with the wrong seq must fail validation, not hand back data.
	bad := refs[0]
	bad.Seq += 100
	if err := rd.ReadRecords([]RecordRef{bad}, recs); err == nil {
		t.Fatal("ReadRecords accepted a mismatched seq")
	}
}
