package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/rvm-go/rvm/internal/wal"
)

// TestLogFullGiveUpContext: a record that can never fit — the tail position
// forces a wrap and wrap-gap plus record exceed the area even when empty —
// must come back as ErrLogFull wrapped with sizing context after the inline
// truncations give up, and must leave the engine healthy (not poisoned).
func TestLogFullGiveUpContext(t *testing.T) {
	// Log area 16384.  First commit parks the tail at the end of its
	// record, and the big one has as many data bytes as the room behind it,
	// so its record (the data and a 24-byte frame and range header) needs a
	// wrap whose gap plus the record exceed the area no matter how much
	// truncation frees.  The bytes differ from the region's, for a restore
	// transaction logs only the words it changed.
	const area = 1 << 14
	v := newEnv(t, area, pageBytes(4), Options{})
	r, err := v.eng.Map(v.segPath, 0, pageBytes(4))
	if err != nil {
		t.Fatal(err)
	}
	v.commit1(r, 0, bytes.Repeat([]byte{1}, 4300))
	room := area - wal.EncodedLen([]wal.Range{{Seg: r.SegmentID(), Data: make([]byte, 4300)}})

	tx, err := v.eng.Begin(Restore)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Modify(r, 0, bytes.Repeat([]byte{2}, int(room))); err != nil {
		t.Fatal(err)
	}
	err = tx.Commit(Flush)
	if !errors.Is(err, wal.ErrLogFull) {
		t.Fatalf("Commit = %v, want wrapped wal.ErrLogFull", err)
	}
	if !strings.Contains(err.Error(), "inline truncations") ||
		!strings.Contains(err.Error(), "log area") {
		t.Fatalf("give-up error lacks sizing context: %v", err)
	}
	if errors.Is(err, ErrPoisoned) {
		t.Fatalf("log-full is a logical condition, must not poison: %v", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	// The engine is still healthy: a fitting commit works and recovers.
	v.commit1(r, 64, []byte("still alive"))
	qi, err := v.eng.Query(nil)
	if err != nil {
		t.Fatal(err)
	}
	if qi.Poisoned {
		t.Fatal("engine poisoned by a logical log-full condition")
	}
}

// TestWrapSplitFreeSpaceTruncates: free bytes that the wrap splits —
// enough for the record in all, but short of it before the area's end, and
// short of it plus the wrap record — are no room.  The commit must truncate,
// not count the free bytes and retry until it gives up: one epoch empties
// the log.
func TestWrapSplitFreeSpaceTruncates(t *testing.T) {
	v := newEnv(t, 1<<14, pageBytes(4), Options{TruncateThreshold: -1})
	r, err := v.eng.Map(v.segPath, 0, pageBytes(4))
	if err != nil {
		t.Fatal(err)
	}
	lg := v.eng.log
	// Each commit writes bytes the region does not hold, so that it logs
	// all of them.
	filler := make([]byte, 1000)
	fill := func() {
		for i := range filler {
			filler[i]++
		}
		v.commit1(r, 0, filler)
	}
	fill()
	if err := v.eng.Truncate(); err != nil { // the head leaves offset 0
		t.Fatal(err)
	}
	// Fill until the space before the area's end holds one filler record
	// but not two.
	rec := wal.EncodedLen([]wal.Range{{Data: filler}})
	for tail, _ := lg.Tail(); lg.AreaSize()-tail >= 2*rec; tail, _ = lg.Tail() {
		fill()
	}
	tail, _ := lg.Tail()
	head, _ := lg.Head()
	gap := lg.AreaSize() - tail
	data := bytes.Repeat([]byte{0xA5}, int(gap+268)) // a record of gap+316 bytes
	need := wal.EncodedLen([]wal.Range{{Data: data}})
	if need <= gap || need <= head || need > gap+head || lg.AreaSize()-lg.Used() < need {
		t.Fatalf("head %d, tail %d, record %d: not the log this test is about", head, tail, need)
	}
	before := v.eng.Stats()
	v.commit1(r, 0, data)
	st := v.eng.Stats()
	if got, full := st.EpochTruncs-before.EpochTruncs, st.EpochTruncsLogFull-before.EpochTruncsLogFull; got != 1 || full != 1 {
		t.Fatalf("the commit ran %d epoch truncations, %d of them for a full log; want one, for a full log", got, full)
	}
}

// TestCloseRacesAutoTruncate: Close must serialize cleanly with the
// background truncation goroutine kicked off by a threshold-crossing
// commit.  Run under -race this doubles as a data-race check on the
// truncation bookkeeping.
func TestCloseRacesAutoTruncate(t *testing.T) {
	for i := 0; i < 10; i++ {
		v := newEnv(t, 1<<15, pageBytes(2), Options{TruncateThreshold: 0.2})
		r := v.mapWhole()
		buf := make([]byte, 4096)
		for j := 0; j < 6; j++ {
			v.commit1(r, 0, buf)
		}
		// Close immediately after the trigger: it must wait out or cleanly
		// reject the in-flight background truncation, never race it.
		eng := v.eng
		v.eng = nil
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
