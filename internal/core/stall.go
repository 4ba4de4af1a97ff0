package core

import (
	"time"

	"github.com/rvm-go/rvm/internal/obs"
)

// The stall watchdog (DESIGN.md §14) watches the engine's long-running
// operations — log forces, group-commit waits and truncations, checkpoints
// among them — and flags any instance that stays in flight past the
// configured budget.  The watched code paths bracket themselves with
// Metrics.OpEnter/OpExit (two atomic ops each); the watchdog goroutine
// polls the resulting gates a few times per budget and, when a gate has
// been busy past the budget, bumps the per-class stall counter, updates
// LastStall, and drops a typed EvStall event into the trace ring.  The
// stalled operation itself never does any of this — a goroutine stuck
// inside an fsync cannot be relied on to report its own hang.
//
// Each busy episode is reported once: the watchdog remembers the gate
// start it last reported per class and stays quiet until the gate turns
// over.  The counters are detection events, not durations — LastStall
// and the trace carry the observed in-flight time at detection.

// stallBudget is how long a watched operation may stay in flight before
// the watchdog counts it as a stall: long enough that a healthy fsync or
// truncation never trips it, short enough that a wedged device is flagged
// promptly.  Negative disables the watchdog.  Open reads it once; a
// variable for the tests.
var stallBudget = time.Second

// startStallWatchdog launches the watchdog loop.  Only called when the
// engine has a metrics registry (the gates live in it).
func (e *Engine) startStallWatchdog(budget time.Duration) {
	// Poll several times per budget so detection lags the budget by a
	// fraction, clamped to keep the idle engine's wakeup rate sane.
	tick := min(max(budget/8, 5*time.Millisecond), 250*time.Millisecond)
	var reported [obs.NumStallClasses]int64 // gate start last reported per class
	e.stallLoop.start(tick, func() {
		now := time.Now().UnixNano()
		for c := obs.StallClass(0); c < obs.NumStallClasses; c++ {
			start := e.met.OpActiveSince(c)
			if start == 0 || now-start < budget.Nanoseconds() || reported[c] == start {
				continue // idle, within budget, or this episode already reported
			}
			reported[c] = start
			dur := now - start
			e.met.RecordStall(c, dur)
			e.tr.Record(obs.EvStall, 0, uint64(c), uint64(dur))
		}
	})
}
