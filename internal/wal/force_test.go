package wal

import (
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rvm-go/rvm/internal/iofault"
)

// newCountingLog opens a log whose device is an Injector over its file,
// counting its operations.
func newCountingLog(t *testing.T, areaSize int64) (*Log, *iofault.Injector) {
	t.Helper()
	path := t.TempDir() + "/log.rvm"
	if err := Create(path, areaSize); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	dev := iofault.NewInjector(f, 1)
	l, err := OpenDevice(dev)
	if err != nil {
		f.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, dev
}

// holdSyncs makes dev's Syncs wait until gate is closed; entry closes when
// the first one arrives.
func holdSyncs(dev *iofault.Injector) (entry, gate chan struct{}) {
	entry, gate = make(chan struct{}), make(chan struct{})
	var once sync.Once
	dev.SetHook(func(op iofault.Op, _ int64, _ int) {
		if op == iofault.OpSync {
			once.Do(func() { close(entry) })
			<-gate
		}
	})
	return entry, gate
}

// TestForcedThroughAdvances: ForcedThrough trails appends and catches up on
// Force, making "is my record durable" answerable by sequence number alone.
func TestForcedThroughAdvances(t *testing.T) {
	l, _ := newLog(t, 1<<16)
	if got := l.ForcedThrough(); got != 0 {
		t.Fatalf("ForcedThrough on empty log = %d, want 0", got)
	}
	_, seq1, _, err := l.Append(1, 0, []Range{mkRange(1, 0, 'a', 32)})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.ForcedThrough(); got >= seq1 {
		t.Fatalf("ForcedThrough = %d before any Force, want < %d", got, seq1)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if got := l.ForcedThrough(); got != seq1 {
		t.Fatalf("ForcedThrough = %d after Force, want %d", got, seq1)
	}
	_, seq2, _, err := l.Append(2, 0, []Range{mkRange(1, 64, 'b', 32)})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.ForcedThrough(); got != seq1 || seq2 <= seq1 {
		t.Fatalf("ForcedThrough = %d after new append, want still %d", got, seq1)
	}
}

// TestForcedThroughSurvivesReopen: records discovered at Open are on the
// device by definition, so ForcedThrough starts at the last live record.
func TestForcedThroughSurvivesReopen(t *testing.T) {
	l, path := newLog(t, 1<<16)
	_, seq, _, err := l.Append(1, 0, []Range{mkRange(1, 0, 'a', 32)})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.ForcedThrough(); got != seq {
		t.Fatalf("ForcedThrough after reopen = %d, want %d", got, seq)
	}
}

// TestAppendDuringForce: Force must not hold the log mutex across the
// fsync — an Append issued mid-force completes, and the forced-through
// sequence number advances only to the pre-fsync snapshot, leaving the log
// dirty for the straggler.
func TestAppendDuringForce(t *testing.T) {
	l, dev := newCountingLog(t, 1<<16)
	_, seq1, _, err := l.Append(1, 0, []Range{mkRange(1, 0, 'a', 32)})
	if err != nil {
		t.Fatal(err)
	}

	entry, gate := holdSyncs(dev)

	forceDone := make(chan error, 1)
	go func() { forceDone <- l.Force() }()
	select {
	case <-entry: // the fsync is in flight
	case <-time.After(5 * time.Second):
		t.Fatal("Force never reached the device")
	}

	// Append while the fsync is in flight; this must not deadlock.
	appendDone := make(chan uint64, 1)
	go func() {
		_, seq2, _, err := l.Append(2, 0, []Range{mkRange(1, 64, 'b', 32)})
		if err != nil {
			t.Error(err)
		}
		appendDone <- seq2
	}()
	var seq2 uint64
	select {
	case seq2 = <-appendDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Append blocked behind an in-flight Force")
	}

	close(gate)
	if err := <-forceDone; err != nil {
		t.Fatal(err)
	}
	if got := l.ForcedThrough(); got != seq1 {
		t.Fatalf("ForcedThrough = %d after force, want snapshot %d (not straggler %d)", got, seq1, seq2)
	}
	// The straggler is still dirty; a second Force covers it.
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if got := l.ForcedThrough(); got != seq2 {
		t.Fatalf("ForcedThrough = %d after second force, want %d", got, seq2)
	}
}

// TestForceBatchCountsOwnSync: a force reports what its own call synced —
// the records not yet durable when it began, though a concurrent force may
// make them durable first — and a force of a clean log reports nothing, for
// it syncs nothing.
func TestForceBatchCountsOwnSync(t *testing.T) {
	l, dev := newCountingLog(t, 1<<16)
	for i := range 2 {
		if _, _, _, err := l.Append(uint64(i+1), 0, []Range{mkRange(1, uint64(64*i), 'a', 32)}); err != nil {
			t.Fatal(err)
		}
	}
	entry, gate := make(chan struct{}), make(chan struct{})
	var syncs atomic.Int32
	dev.SetHook(func(op iofault.Op, _ int64, _ int) {
		if op == iofault.OpSync && syncs.Add(1) == 1 {
			close(entry)
			<-gate
		}
	})
	type result struct {
		batch uint64
		err   error
	}
	first := make(chan result, 1)
	go func() {
		batch, err := l.ForceBatch()
		first <- result{batch, err}
	}()
	select {
	case <-entry: // the first force's fsync is in flight
	case <-time.After(5 * time.Second):
		t.Fatal("Force never reached the device")
	}
	if _, _, _, err := l.Append(3, 0, []Range{mkRange(1, 128, 'b', 32)}); err != nil {
		t.Fatal(err)
	}
	if batch, err := l.ForceBatch(); err != nil || batch != 3 {
		t.Fatalf("force overtaking an in-flight one: batch %d (%v), want 3", batch, err)
	}
	close(gate)
	if r := <-first; r.err != nil || r.batch != 2 {
		t.Fatalf("overtaken force: batch %d (%v), want its 2", r.batch, r.err)
	}
	if batch, err := l.ForceBatch(); err != nil || batch != 0 {
		t.Fatalf("force of a clean log: batch %d (%v), want 0", batch, err)
	}
	if got := l.Stats().Forces; got != 2 || syncs.Load() != 2 {
		t.Fatalf("%d forces counted, %d syncs; want 2 of each", got, syncs.Load())
	}
}
