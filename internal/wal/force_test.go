package wal

import (
	"os"
	"sync"
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
