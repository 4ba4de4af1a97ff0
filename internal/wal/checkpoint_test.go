package wal

import (
	"testing"
)

// scanFrom collects, deep-copied, the records a Scan from (pos, seq) to the
// tail delivers.
func scanFrom(t *testing.T, l *Log, pos int64, seq uint64) ([]*Record, Analysis) {
	t.Helper()
	var recs []*Record
	an, err := l.Scan(pos, seq, func(w *Window) error {
		defer w.Release()
		for i := range w.Recs {
			recs = append(recs, cloneRecord(&w.Recs[i]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, an
}

// analyze scans l's live region and checks what every analysis promises:
// it locates each live record, and the tail for a sequence number past them.
func analyze(t *testing.T, l *Log) Analysis {
	t.Helper()
	recs, an := scanFrom(t, l, l.head, l.headSeq)
	for _, r := range recs {
		if pos := an.Pos(r.Seq); pos != r.Pos {
			t.Fatalf("analysis puts seq %d at %d, the scan delivered it from %d", r.Seq, pos, r.Pos)
		}
	}
	if pos, tail := an.Pos(l.nextSeq), l.tailPos(); pos != tail {
		t.Fatalf("analysis puts the tail at %d, the log at %d", pos, tail)
	}
	return an
}

// redoSeqs returns the sequence numbers of what redo has to consider given
// an analysis, oldest first: the transaction and prepare records a second
// scan from the stable LSN delivers.
func redoSeqs(t *testing.T, l *Log, an Analysis) []uint64 {
	t.Helper()
	from := max(an.Stable, l.headSeq)
	recs, _ := scanFrom(t, l, an.Pos(from), from)
	var out []uint64
	for _, r := range recs {
		if r.Type == RecTx || r.Type == RecPrepare {
			out = append(out, r.Seq)
		}
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

// The TestAnalyzeBackward* cases predate the forward scanner (PR 22) and keep
// their names; what they pin is its analysis: refs, the newest stable LSN,
// and Scanned, the bytes from that LSN's record to the tail.
func TestAnalyzeBackwardNoCheckpoint(t *testing.T) {
	l, _ := newLog(t, 1<<16)
	for i := 1; i <= 4; i++ {
		if _, _, _, err := l.Append(uint64(i), 0, []Range{mkRange(1, uint64(i)*64, 'x', 16)}); err != nil {
			t.Fatal(err)
		}
	}
	an := analyze(t, l)
	if an.Stable != 0 {
		t.Fatalf("stable = %d without any checkpoint", an.Stable)
	}
	if an.Scanned != l.Used() {
		t.Fatalf("scanned %d bytes, log has %d live", an.Scanned, l.Used())
	}
	want := []uint64{1, 2, 3, 4}
	got := redoSeqs(t, l, an)
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

	an := analyze(t, l)
	if an.Stable != 4 {
		t.Fatalf("stable = %d, want 4", an.Stable)
	}
	if want := l.Used() - an.Pos(4); an.Scanned != want {
		t.Fatalf("scanned %d bytes, want the %d from seq 4 to the tail of the %d live", an.Scanned, want, l.Used())
	}
	// Replay set: seq >= stable, oldest first; seq 1..3 are cut off.
	want := []uint64{4, 5, 7, 8}
	got := redoSeqs(t, l, an)
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
	an := analyze(t, l)
	if an.Stable != 5 {
		t.Fatalf("stable = %d, want the newest checkpoint's 5", an.Stable)
	}
	got := redoSeqs(t, l, an)
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("refs %v, want [5]", got)
	}
}

// TestReadRecordMatchesScan: a scan started at any record an analysis
// located reads exactly the records the whole forward scan delivers from
// there on.
func TestReadRecordMatchesScan(t *testing.T) {
	l, _ := newLog(t, 1<<16)
	for i := 1; i <= 6; i++ {
		if _, _, _, err := l.Append(uint64(i), 0, []Range{mkRange(uint64(i%3), uint64(i)*128, byte(i), 100+i)}); err != nil {
			t.Fatal(err)
		}
	}
	an := analyze(t, l)
	fwd := collectForward(t, l)
	for k, first := range fwd {
		recs, _ := scanFrom(t, l, an.Pos(first.Seq), first.Seq)
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
	fail := func(*Window) error { t.Fatal("a scan from a bad start delivered records"); return nil }
	if _, err := l.Scan(an.Pos(3), 4, fail); err == nil {
		t.Fatal("Scan accepted a mismatched seq")
	}
	if _, err := l.Scan(l.tailPos()+64, 3, fail); err == nil {
		t.Fatal("Scan accepted a start beyond the tail")
	}
	if recs, _ := scanFrom(t, l, l.tailPos(), l.nextSeq); len(recs) != 0 {
		t.Fatalf("a scan from the tail delivered %d records", len(recs))
	}
}
