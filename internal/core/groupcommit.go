package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rvm-go/rvm/internal/obs"
)

// The force ticket is the one way a caller makes the log durable through a
// sequence number: a flush commit through its record, Flush through the
// last record it drained, an epoch truncation through the epoch's end.
// The paper identifies the log force as the dominant cost of a flush-mode
// commit (§4.2); concurrent callers share one fsync instead of paying one
// each.  Only the page cleaner's write-ahead force (clean) takes no ticket.
//
// Protocol: a committer appends its record under the log-pipeline lock
// (so records, page enqueues, and spool drains keep their log order),
// releases it, and calls waitForced with its record's sequence number —
// its ticket.  The WAL tracks a forced-through LSN (wal.Log.ForcedThrough):
// a ticket is satisfied the moment any completed force covers its sequence
// number, whoever issued it.  If no force is in flight, the caller elects
// itself leader and issues one Force for everyone; a flush commit leading
// it first waits out a join window (see joinWindow) to let more appends
// join the batch.  Waiters sleep on the ticket condition until the leader
// broadcasts the outcome.  Each leader leaves the next one a prediction —
// how many committers waited on its force, covered by it or queued behind
// it — and the force's duration, which bounds how long the next window
// waits for them.
//
// Failure semantics are fail-stop: a force that fails past the transient
// retries leaves the device state unknowable, so the leader poisons the
// engine and the error is recorded sticky in the ticket state — every
// current waiter and every future ticket holder gets the same wrapped
// ErrPoisoned.  No waiter can be acknowledged by a failed force, because
// ForcedThrough only advances when a force completes successfully.
type groupCommit struct {
	mu      sync.Mutex
	cond    *sync.Cond // signalled when a force completes (either outcome)
	forcing bool       // a leader is mid-force
	err     error      // sticky outcome of a failed force (engine poisoned)

	// Flush commits only: a ticket held by Flush or a truncation counts in
	// none of these.
	batch    uint64 // commits acknowledged since the last force completed
	maxBatch uint64 // largest batch observed (Statistics.GroupCommitSize)
	saved    uint64 // commits acked without leading (Statistics.ForcesSaved)

	// The join window's inputs (joinWindow), written by each leader.
	arrived   atomic.Int64 // committers that entered waitForced since a leader last issued a force
	predicted atomic.Int64 // committers the last led force covered or queued behind it
	forceNs   atomic.Int64 // how long the last led force took
}

// joinWindow is the leader's batching wait, in two parts.  First it yields
// the processor while new records keep arriving and stops as soon as
// arrivals pause for two consecutive yields.  Yielding (rather than a
// timed sleep) matters on loaded or single-CPU hosts: it hands the CPU
// straight to committers that are runnable but not yet appended, growing
// the batch without adding timer-granularity latency (a sub-millisecond
// time.Sleep routinely oversleeps past the cost of the fsync it was meant
// to amortize).  Then it keeps yielding until as many committers have
// entered waitForced since the last force was issued as waited on that
// force, for at most half its duration: a committer tens of microseconds
// behind its peers joins this force instead of paying the next one, and a
// committer that has left costs one bounded wait, after which the
// prediction falls.  A lone committer skips the window altogether: when at
// most one committer waited on the last force and no other has arrived
// since, it forces at once, for under load even the two idle yields can
// cost it a scheduler quantum.
func (e *Engine) joinWindow() {
	gc := &e.gc
	want := gc.predicted.Load()
	if want <= 1 && gc.arrived.Load() <= 1 {
		return
	}
	last := e.log.LastSeq()
	for idle := 0; idle < 2; {
		runtime.Gosched()
		if cur := e.log.LastSeq(); cur != last {
			last, idle = cur, 0
		} else {
			idle++
		}
	}
	if gc.arrived.Load() < want {
		deadline := time.Now().Add(time.Duration(gc.forceNs.Load() / 2))
		for gc.arrived.Load() < want {
			if time.Now().After(deadline) {
				e.stats.JoinExpired.Add(1)
				break
			}
			runtime.Gosched()
		}
	}
}

// waitForced blocks until the log is durably forced through seq, electing
// the caller as the force leader when no force is in flight.  commit says
// the caller is a flush commit: only commits count as arrivals and in the
// batch statistics, and only a commit's force waits out the join window.
// Callers must hold no engine lock.  A nil error means a successful force
// covered seq; a non-nil error is the sticky force failure (wrapped
// ErrPoisoned).  led reports whether the caller ran a force itself (phase
// attribution splits the force wait by role), and fsyncNs is the
// device-sync duration of a force it led (0 for followers).  The whole
// wait runs under the group-wait stall gate so the watchdog can flag a
// window nobody closes.
func (e *Engine) waitForced(seq uint64, commit bool) (led bool, fsyncNs int64, err error) {
	gc := &e.gc
	if commit {
		gc.arrived.Add(1)
	}
	e.met.OpEnter(obs.StallGroupWait)
	defer e.met.OpExit(obs.StallGroupWait)
	gc.mu.Lock()
	for {
		if gc.err != nil {
			err := gc.err
			gc.mu.Unlock()
			return led, fsyncNs, err
		}
		if e.log.ForcedThrough() >= seq {
			if commit {
				gc.batch++
				gc.maxBatch = max(gc.maxBatch, gc.batch)
				if !led {
					gc.saved++
				}
			}
			gc.mu.Unlock()
			return led, fsyncNs, nil
		}
		if gc.forcing {
			gc.cond.Wait()
			continue
		}
		// Lead: force on behalf of every record appended so far.
		gc.forcing = true
		gc.mu.Unlock()
		if commit {
			e.joinWindow()
		}
		issued := gc.arrived.Swap(0) // each appended before entering, so this force covers it
		ns, err := e.force()
		fsyncNs += ns
		gc.predicted.Store(issued + gc.arrived.Load())
		gc.forceNs.Store(ns)
		if err != nil {
			err = e.maybePoison(err)
		}
		led = true
		gc.mu.Lock()
		gc.forcing = false
		gc.batch = 0
		if err != nil {
			gc.err = err
		}
		gc.cond.Broadcast()
		// Loop: re-check coverage (the force may have raced the cleaner's
		// force, or failed — both cases resolve above).
	}
}

// force makes every record appended so far durable, for the ticket leader and
// the page cleaner's write-ahead force, retrying transient faults under the
// force stall gate.  One clock pair times it.  Only a call that synced is
// observed, its batch the records its own sync covered (wal.Log.ForceBatch).
func (e *Engine) force() (ns int64, err error) {
	var batch uint64
	e.met.OpEnter(obs.StallForce)
	t0 := time.Now()
	err = e.retryIO(func() (err error) { batch, err = e.log.ForceBatch(); return err })
	ns = time.Since(t0).Nanoseconds()
	e.met.OpExit(obs.StallForce)
	if err == nil && batch > 0 {
		e.met.ObserveForce(ns, batch)
		e.tr.SpanFor(obs.EvLogForce, t0, ns, 0, batch, e.log.ForcedThrough())
	}
	return ns, err
}
