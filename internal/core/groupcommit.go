package core

import (
	"runtime"
	"sync"
	"time"

	"github.com/rvm-go/rvm/internal/obs"
)

// Group commit (Options.GroupCommit) batches the log forces of concurrent
// flush-mode commits.  The paper identifies the log force as the dominant
// cost of a flush-mode commit (§4.2); serializing N committers behind the
// engine lock makes them pay N back-to-back fsyncs for records that a
// single fsync would have covered.
//
// Protocol: a committer appends its record under the log-pipeline lock
// (so records, page enqueues, and spool drains keep their log order),
// releases it, and calls waitForced with its record's sequence number —
// its ticket.  The
// WAL tracks a forced-through LSN (wal.Log.ForcedThrough): a ticket is
// satisfied the moment any completed force covers its sequence number,
// whoever issued it.  If no force is in flight, the committer elects
// itself leader, waits out a short join window (see joinWindow) to let
// more appends join the batch, and issues one Force for everyone; waiters
// sleep on the ticket condition until the leader broadcasts the outcome.
//
// Failure semantics are fail-stop, exactly as on the serialized path: a
// force that fails past the transient retries leaves the device state
// unknowable, so the leader poisons the engine and the error is recorded
// sticky in the ticket state — every current waiter and every future
// ticket holder gets the same wrapped ErrPoisoned.  No waiter can be
// acknowledged by a failed force, because ForcedThrough only advances when
// a force completes successfully.
type groupCommit struct {
	mu      obs.Mutex  // obs.LockGroupCommit, bound at Open
	cond    *sync.Cond // signalled when a force completes (either outcome)
	forcing bool       // a leader is mid-force
	err     error      // sticky outcome of a failed force (engine poisoned)

	batch    uint64 // commits acknowledged since the last force completed
	maxBatch uint64 // largest batch observed (Statistics.GroupCommitSize)
	saved    uint64 // commits acked without leading (Statistics.ForcesSaved)
}

// joinWindow is the leader's batching wait: it yields the processor while
// new records keep arriving and forces as soon as arrivals pause for two
// consecutive yields.  Yielding (rather than a timed sleep) matters on
// loaded or single-CPU hosts: it hands the CPU straight to committers that
// are runnable but not yet appended, growing the batch without adding
// timer-granularity latency (a sub-millisecond time.Sleep routinely
// oversleeps past the cost of the fsync it was meant to amortize).  A
// nonzero MaxForceDelay then lingers the given duration on top, catching
// committers that are slow to arrive.
func (e *Engine) joinWindow() {
	last := e.log.LastSeq()
	for idle := 0; idle < 2; {
		runtime.Gosched()
		if cur := e.log.LastSeq(); cur != last {
			last, idle = cur, 0
		} else {
			idle++
		}
	}
	if d := e.opts.MaxForceDelay; d > 0 {
		time.Sleep(d)
	}
}

// waitForced blocks until the log is durably forced through seq, electing
// this committer as the force leader when no force is in flight.  Callers
// must hold no engine lock.  A nil error means a successful force covered
// seq; a non-nil error is the sticky group-force failure (wrapped
// ErrPoisoned).  led reports whether this committer ran a force itself
// (phase attribution splits the force wait by role), and fsyncNs is the
// device-sync duration of a force it led (0 for followers).  The whole
// wait runs under the group-wait stall gate so the watchdog can flag a
// window nobody closes.
func (e *Engine) waitForced(seq uint64) (led bool, fsyncNs int64, err error) {
	gc := &e.gc
	timed := e.met != nil
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
			gc.batch++
			if gc.batch > gc.maxBatch {
				gc.maxBatch = gc.batch
			}
			if !led {
				gc.saved++
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
		e.joinWindow()
		var fst time.Time
		if timed {
			fst = time.Now()
		}
		err := e.retryIO(e.log.Force)
		if timed {
			fsyncNs += time.Since(fst).Nanoseconds()
		}
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
		// Loop: re-check coverage (the force may have raced a concurrent
		// truncation force, or failed — both cases resolve above).
	}
}
