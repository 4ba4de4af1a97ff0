package wal

import (
	"sync"
	"testing"
	"time"
)

// TestAppendDuringSetHead is the regression test for head moves holding
// the log mutex across the status fsync: an Append issued while SetHead's
// status sync is in flight must complete, and the interleaved append must
// be reflected in the live-byte accounting when the head move lands (the
// freed count is applied as a delta, not a precomputed total).
func TestAppendDuringSetHead(t *testing.T) {
	l, dev := newCountingLog(t, 1<<16)
	if _, _, _, err := l.Append(1, 0, []Range{mkRange(1, 0, 'a', 64)}); err != nil {
		t.Fatal(err)
	}
	pos2, seq2, _, err := l.Append(2, 0, []Range{mkRange(1, 64, 'b', 64)})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}

	entry, gate := holdSyncs(dev)

	setHeadDone := make(chan error, 1)
	go func() { setHeadDone <- l.SetHead(pos2, seq2) }()
	select {
	case <-entry: // the status fsync is in flight
	case <-time.After(5 * time.Second):
		t.Fatal("SetHead never reached the device")
	}

	// Append while the status sync is in flight; this must not deadlock.
	appendDone := make(chan struct{})
	go func() {
		defer close(appendDone)
		if _, _, _, err := l.Append(3, 0, []Range{mkRange(1, 128, 'c', 64)}); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-appendDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Append blocked behind an in-flight SetHead")
	}

	close(gate)
	if err := <-setHeadDone; err != nil {
		t.Fatal(err)
	}

	if hp, hs := l.Head(); hp != pos2 || hs != seq2 {
		t.Fatalf("Head = (%d, %d), want (%d, %d)", hp, hs, pos2, seq2)
	}
	// Record 1 freed, records 2 and 3 (the straggler) live.
	recs := collectForward(t, l)
	if len(recs) != 2 || recs[0].TID != 2 || recs[1].TID != 3 {
		t.Fatalf("wrong survivors: %+v", recs)
	}
	var live int64
	for _, r := range recs {
		live += r.Len
	}
	if l.Used() != live {
		t.Fatalf("Used = %d, want %d (accounting lost the interleaved append)", l.Used(), live)
	}
}

// TestSetHeadConcurrentWithAppends hammers head moves against a concurrent
// appender.  A tail snapshot stays a valid SetHead target no matter how
// many records land after it (appends only grow the tail side), so every
// call must succeed, head moves must serialize, and the final scan must
// agree with the byte accounting.  Run under -race this also checks the
// unlocked status-write window for data races.
func TestSetHeadConcurrentWithAppends(t *testing.T) {
	l, _ := newLog(t, 1<<20)

	const appends = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			if _, _, _, err := l.Append(uint64(i+1), 0, []Range{mkRange(1, 0, 'x', 200)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			tp, ts := l.Tail()
			if err := l.SetHead(tp, ts); err != nil {
				t.Errorf("SetHead(%d, %d): %v", tp, ts, err)
				return
			}
		}
	}()
	wg.Wait()

	recs := collectForward(t, l)
	var live int64
	for _, r := range recs {
		live += r.Len
	}
	if l.Used() != live {
		t.Fatalf("Used = %d but forward scan found %d live bytes in %d records", l.Used(), live, len(recs))
	}
}
