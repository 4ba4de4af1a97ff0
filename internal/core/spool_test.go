package core

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"github.com/rvm-go/rvm/internal/wal"
)

func TestSpoolLimitTriggersImplicitFlush(t *testing.T) {
	setVar(t, &spoolLimit, 4096)
	v := newEnv(t, 1<<20, pageBytes(2), Options{})
	r := v.mapWhole()
	payload := bytes.Repeat([]byte{1}, 1024)
	// Four ~1KB no-flush commits cross the 4KB limit and must flush.
	for i := 0; i < 6; i++ {
		tx, _ := v.eng.Begin(NoRestore)
		if err := tx.Modify(r, int64(i)*1200, payload); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(NoFlush); err != nil {
			t.Fatal(err)
		}
	}
	qi, _ := v.eng.Query(nil)
	if qi.SpoolBytes > 4096 {
		t.Fatalf("spool grew past the limit: %d", qi.SpoolBytes)
	}
	if v.eng.Stats().Flushes == 0 {
		t.Fatal("no implicit flush happened")
	}
	// The flushed commits are durable without an explicit Flush.
	v.reopen(Options{})
	r2 := v.mapWhole()
	if !bytes.Equal(r2.Data()[:1024], payload) {
		t.Fatal("implicitly flushed commit lost")
	}
}

func TestSpoolUnlimitedWhenNegative(t *testing.T) {
	setVar(t, &spoolLimit, -1)
	v := newEnv(t, 1<<20, pageBytes(2), Options{})
	r := v.mapWhole()
	payload := bytes.Repeat([]byte{1}, 1024)
	for i := 0; i < 6; i++ {
		tx, _ := v.eng.Begin(NoRestore)
		if err := tx.Modify(r, int64(i)*1200, payload); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(NoFlush); err != nil {
			t.Fatal(err)
		}
	}
	if v.eng.Stats().Flushes != 0 {
		t.Fatal("unlimited spool flushed implicitly")
	}
	qi, _ := v.eng.Query(nil)
	if qi.SpoolBytes < 6*1024 {
		t.Fatalf("spool bytes %d", qi.SpoolBytes)
	}
}

// TestSpoolSurvivesPartialDrain: a drain that runs out of log midway logs a
// prefix of the spool and leaves the rest in the spool's memory, which is
// recycled only once a drain leaves the spool empty.  A Flush over a spool
// five logs long gives up after its third inline truncation; the commits
// that follow, as many again, are cut from the same memory; Flushes that
// finally succeed must then have logged every committed byte.  No byte is
// written twice, so a lost entry cannot hide behind a later one.
func TestSpoolSurvivesPartialDrain(t *testing.T) {
	const area, pages = 32 << 10, 256
	setVar(t, &spoolLimit, -1)
	v := newEnv(t, area, pageBytes(pages), Options{TruncateThreshold: -1})
	r, err := v.eng.Map(v.segPath, 0, pageBytes(pages))
	if err != nil {
		t.Fatal(err)
	}
	model := make([]byte, pageBytes(pages))
	rng := rand.New(rand.NewSource(33))
	var next int64
	spoolTo := func(bytes int64) {
		t.Helper()
		for qi, _ := v.eng.Query(nil); qi.SpoolBytes < bytes; qi, _ = v.eng.Query(nil) {
			tx, err := v.eng.Begin(NoRestore)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				off, n := next+rng.Int63n(64), 16+rng.Int63n(185)
				next = off + n
				if err := tx.SetRange(r, off, n); err != nil {
					t.Fatal(err)
				}
				rng.Read(model[off : off+n])
				copy(r.Data()[off:], model[off:off+n])
			}
			if err := tx.Commit(NoFlush); err != nil {
				t.Fatal(err)
			}
		}
	}
	spoolTo(5 * area)
	if err := v.eng.Flush(); !errors.Is(err, wal.ErrLogFull) {
		t.Fatalf("Flush of a spool five logs long: %v, want log full", err)
	}
	qi, _ := v.eng.Query(nil)
	if qi.SpoolBytes == 0 {
		t.Fatal("the failed Flush drained the whole spool: no partial drain to test")
	}
	spoolTo(qi.SpoolBytes + 5*area)
	err = v.eng.Flush() // each try logs four logs' worth before it gives up
	for try := 0; try < 4 && errors.Is(err, wal.ErrLogFull); try++ {
		err = v.eng.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	v.reopen(Options{})
	r2, err := v.eng.Map(v.segPath, 0, pageBytes(pages))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r2.Data(), model) {
		t.Fatal("the recovered image is not what was committed")
	}
}

// TestSpoolMemoryStaysBounded: bursts that subsume each other leave dead
// entries behind, and with no Flush, and a spool that never fills, no drain
// recycles the memory they were cut from.  Compaction must: 10⁵ no-flush
// commits rewriting the same ranges may not grow the heap by more than a
// few slabs, and an entry no burst subsumes must survive every move.
func TestSpoolMemoryStaysBounded(t *testing.T) {
	v := newEnv(t, 1<<20, pageBytes(2), Options{TruncateThreshold: -1})
	r := v.mapWhole()
	model := make([]byte, pageBytes(2))
	commit := func(i int, offs ...int64) {
		t.Helper()
		tx, err := v.eng.Begin(NoRestore)
		if err != nil {
			t.Fatal(err)
		}
		for _, off := range offs {
			if err := tx.SetRange(r, off, 100); err != nil {
				t.Fatal(err)
			}
			model[off], model[off+99] = byte(i), byte(i>>8)
			copy(r.Data()[off:off+100], model[off:off+100])
		}
		if err := tx.Commit(NoFlush); err != nil {
			t.Fatal(err)
		}
	}
	commit(7, 2000) // never subsumed
	burst := func(n int) {
		for i := 0; i < n; i++ {
			commit(i, 64, 4200)
		}
	}
	burst(1000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	burst(100000)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got := len(v.eng.spoolTIDs()); got != 2 || v.eng.Stats().Flushes != 0 {
		t.Fatalf("%d live entries and %d flushes, want 2 and none", got, v.eng.Stats().Flushes)
	}
	growth := int64(after.HeapInuse) - int64(before.HeapInuse)
	t.Logf("heap in use grew by %d KiB over 10⁵ subsuming commits", growth>>10)
	if growth > 4<<20 {
		t.Fatalf("heap in use grew by %d KiB, want at most 4 MiB: dead entries' memory accumulates", growth>>10)
	}
	if err := v.eng.Flush(); err != nil {
		t.Fatal(err)
	}
	v.reopen(Options{})
	if !bytes.Equal(v.mapWhole().Data(), model) {
		t.Fatal("the recovered image is not what was committed")
	}
}
