package core

import (
	"bytes"
	"testing"
)

func TestCommitUndoReturnsOldValues(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{})
	r := v.mapWhole()
	v.commit1(r, 0, []byte("0123456789"))

	tx, _ := v.eng.Begin(Restore)
	tx.Modify(r, 2, []byte("XXXX"))
	undo, err := tx.CommitUndo(Flush)
	if err != nil {
		t.Fatal(err)
	}
	if len(undo) != 1 {
		t.Fatalf("%d undo records", len(undo))
	}
	u := undo[0]
	if u.Off != 2 || u.SegID != 1 || u.SegOff != 2 || !bytes.Equal(u.Old, []byte("2345")) {
		t.Fatalf("undo record %+v", u)
	}
	// The commit itself went through.
	if !bytes.Equal(r.Data()[:10], []byte("01XXXX6789")) {
		t.Fatal("commit missing")
	}
}

func TestCommitUndoOverlapCompensates(t *testing.T) {
	// Overlapping set-ranges produce several captures, the second of
	// bytes the first did not cover; applying the returned records in
	// reverse must compensate exactly.
	v := newEnv(t, 1<<17, pageBytes(2), Options{})
	r := v.mapWhole()
	v.commit1(r, 0, []byte("abcdefghij"))

	tx, _ := v.eng.Begin(Restore)
	tx.Modify(r, 0, []byte("11111"))
	tx.Modify(r, 3, []byte("22222")) // overlaps; only [5,8) is captured anew
	undo, err := tx.CommitUndo(Flush)
	if err != nil {
		t.Fatal(err)
	}
	if len(undo) != 2 {
		t.Fatalf("%d undo records", len(undo))
	}
	comp, _ := v.eng.Begin(Restore)
	for i := len(undo) - 1; i >= 0; i-- {
		if err := comp.Modify(undo[i].Region, undo[i].Off, undo[i].Old); err != nil {
			t.Fatal(err)
		}
	}
	if err := comp.Commit(Flush); err != nil {
		t.Fatal(err)
	}
	if got := r.Data()[:10]; !bytes.Equal(got, []byte("abcdefghij")) {
		t.Fatalf("compensation produced %q", got)
	}
}

func TestCommitUndoRejectsNoRestore(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{})
	r := v.mapWhole()
	tx, _ := v.eng.Begin(NoRestore)
	tx.Modify(r, 0, []byte("x"))
	if _, err := tx.CommitUndo(Flush); err == nil {
		t.Fatal("CommitUndo accepted a no-restore transaction")
	}
	// Still committable normally.
	if err := tx.Commit(Flush); err != nil {
		t.Fatal(err)
	}
}

func TestCommitUndoAfterDone(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{})
	tx, _ := v.eng.Begin(Restore)
	tx.Commit(Flush)
	if _, err := tx.CommitUndo(Flush); err != ErrTxDone {
		t.Fatalf("got %v", err)
	}
}

func TestCommitUndoMultiRegion(t *testing.T) {
	v := newEnv(t, 1<<17, pageBytes(4), Options{})
	r1, err := v.eng.Map(v.segPath, 0, pageBytes(2))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := v.eng.Map(v.segPath, pageBytes(2), pageBytes(2))
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := v.eng.Begin(Restore)
	tx.Modify(r1, 4, []byte("one"))
	tx.Modify(r2, 8, []byte("two"))
	undo, err := tx.CommitUndo(NoFlush)
	if err != nil {
		t.Fatal(err)
	}
	if len(undo) != 2 {
		t.Fatalf("%d records", len(undo))
	}
	// Segment-space offsets account for region bases.
	if undo[0].SegOff != 4 || undo[1].SegOff != pageBytes(2)+8 {
		t.Fatalf("seg offsets %d, %d", undo[0].SegOff, undo[1].SegOff)
	}
}

// TestCommitUndoRecordsOutliveTheBooks: a transaction's books, old-value
// buffer included, go back to the engine when it finishes, but the records
// CommitUndo returned alias that buffer, so their bytes must stay theirs
// while later transactions capture old values of their own.
func TestCommitUndoRecordsOutliveTheBooks(t *testing.T) {
	v := newEnv(t, 1<<17, pageBytes(2), Options{})
	r := v.mapWhole()
	v.commit1(r, 0, []byte("0123456789"))
	tx, _ := v.eng.Begin(Restore)
	tx.Modify(r, 2, []byte("XXXX"))
	undo, err := tx.CommitUndo(NoFlush)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		later, _ := v.eng.Begin(Restore)
		later.Modify(r, 0, bytes.Repeat([]byte{byte('a' + i%26)}, 16))
		if i%2 == 0 {
			later.Abort()
		} else if err := later.Commit(NoFlush); err != nil {
			t.Fatal(err)
		}
	}
	if len(undo) != 1 || !bytes.Equal(undo[0].Old, []byte("2345")) {
		t.Fatalf("undo records %+v after later transactions; want the old bytes \"2345\"", undo)
	}
}
