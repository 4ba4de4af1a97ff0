package core

import (
	"errors"
	"testing"
	"time"

	"github.com/rvm-go/rvm/internal/obs"
)

func stallCount(sn *obs.MetricsSnapshot, class string) uint64 {
	for _, st := range sn.Stalls {
		if st.Class == class {
			return st.Count
		}
	}
	return 0
}

// TestStallWatchdogDetects wedges the force gate past the budget and
// checks the watchdog reports it exactly once per episode — counter,
// LastStall, and a typed trace event — then counts a second episode.
func TestStallWatchdogDetects(t *testing.T) {
	met := obs.NewMetrics()
	tr := obs.NewTracer(256)
	setVar(t, &stallBudget, 20*time.Millisecond)
	v := newEnv(t, 1<<18, pageBytes(2), Options{Metrics: met, Tracer: tr})
	_ = v

	// Simulate a wedged fsync: enter the gate and never exit.  The hung
	// goroutine does nothing; detection is entirely the watchdog's.
	met.OpEnter(obs.StallForce)
	waitFor(t, time.Second, func() bool {
		return stallCount(met.Snapshot(), "force") == 1
	}, "watchdog never flagged the wedged force")

	sn := met.Snapshot()
	ls := sn.LastStall
	if ls == nil || ls.Class != "force" {
		t.Fatalf("last stall = %+v, want class force", ls)
	}
	if ls.DurNs < (20 * time.Millisecond).Nanoseconds() {
		t.Errorf("stall reported after %v in flight, want >= budget", time.Duration(ls.DurNs))
	}

	// One episode, one report: the gate is still busy, but the count must
	// not climb while the start timestamp is unchanged.
	time.Sleep(60 * time.Millisecond)
	if got := stallCount(met.Snapshot(), "force"); got != 1 {
		t.Errorf("same episode reported %d times", got)
	}
	met.OpExit(obs.StallForce)

	// A fresh episode is a fresh report.
	met.OpEnter(obs.StallForce)
	waitFor(t, time.Second, func() bool {
		return stallCount(met.Snapshot(), "force") == 2
	}, "second stall episode never flagged")
	met.OpExit(obs.StallForce)

	// The stall reached the trace ring as a typed event.
	found := false
	for _, ev := range tr.Events() {
		if ev.Type == obs.EvStall && obs.StallClass(ev.A) == obs.StallForce {
			found = true
			break
		}
	}
	if !found {
		t.Error("no EvStall event in the trace ring")
	}
}

// TestStallWatchdogDisabled: a negative budget means no watchdog, so a
// long-busy gate goes unreported.
func TestStallWatchdogDisabled(t *testing.T) {
	met := obs.NewMetrics()
	setVar(t, &stallBudget, -1)
	v := newEnv(t, 1<<18, pageBytes(2), Options{Metrics: met})
	_ = v
	met.OpEnter(obs.StallForce)
	time.Sleep(30 * time.Millisecond)
	met.OpExit(obs.StallForce)
	if got := stallCount(met.Snapshot(), "force"); got != 0 {
		t.Errorf("disabled watchdog still reported %d stall(s)", got)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCloseFailureKeepsWatchdog: a Close refused for an active transaction
// leaves the engine running, and the stall watchdog with it.
func TestCloseFailureKeepsWatchdog(t *testing.T) {
	met := obs.NewMetrics()
	setVar(t, &stallBudget, 20*time.Millisecond)
	v := newEnv(t, 1<<18, pageBytes(2), Options{Metrics: met})
	tx, err := v.eng.Begin(Restore)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.eng.Close(); !errors.Is(err, ErrActiveTx) {
		t.Fatalf("Close with an active transaction: %v, want ErrActiveTx", err)
	}
	met.OpEnter(obs.StallForce)
	defer met.OpExit(obs.StallForce)
	waitFor(t, time.Second, func() bool {
		return stallCount(met.Snapshot(), "force") == 1
	}, "the watchdog stopped with the failed Close")
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
}
