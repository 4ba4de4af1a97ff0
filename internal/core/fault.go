package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/rvm-go/rvm/internal/iofault"
	"github.com/rvm-go/rvm/internal/obs"
	"github.com/rvm-go/rvm/internal/wal"
)

// ErrPoisoned is returned by Begin, Commit, Flush, Map, and the truncation
// entry points after the engine has hit a non-recoverable storage fault.
// The engine is fail-stop from that moment: no further log or segment bytes
// are written, so the on-disk log still ends at the last durable commit and
// a fresh Open recovers every acknowledged flush-mode transaction.  The
// root cause is wrapped; Query reports the state via QueryInfo.Poisoned.
var ErrPoisoned = errors.New("rvm: engine poisoned by unrecoverable I/O error")

// Transient storage faults are retried a fixed number of times beyond the
// first try, sleeping before each retry and doubling the sleep: 1+2+4 ms in
// all before the fault counts as persistent.
const (
	maxRetries   = 3
	retryBackoff = time.Millisecond
)

// retryIO runs op, retrying transient storage faults with exponential
// backoff.  Non-transient errors return immediately.
func (e *Engine) retryIO(op func() error) error {
	for retries := 0; ; retries++ {
		err := op()
		if err == nil || e.backoff(err, retries) != nil {
			return err
		}
	}
}

// backoff is the retry policy for a storage operation that failed with err
// after retries earlier retries: nil once the retry is counted and slept
// out, else err.  A section that fails under a lock backs off without it.
func (e *Engine) backoff(err error, retries int) error {
	if retries >= maxRetries || !iofault.IsTransient(err) {
		return err
	}
	e.stats.Retries.Add(1)
	e.tr.Record(obs.EvRetry, 0, uint64(retries+1), 0)
	time.Sleep(retryBackoff << retries)
	return nil
}

// isLogicalErr reports the caller/space conditions that flow through the
// storage paths without implying a broken device; they never poison the
// engine.
func isLogicalErr(err error) bool {
	return errors.Is(err, wal.ErrLogFull) ||
		errors.Is(err, wal.ErrTooBig) ||
		errors.Is(err, wal.ErrLogClosed) ||
		errors.Is(err, ErrClosed) ||
		errors.Is(err, ErrPoisoned)
}

// maybePoison classifies an error escaping a storage path: logical
// conditions pass through, anything else marks the engine poisoned and is
// returned wrapped in ErrPoisoned.  The poisoned flag is an atomic
// pointer, so the commit path and background truncation report faults
// without taking any engine lock; the first publisher wins.
func (e *Engine) maybePoison(err error) error {
	if err == nil || isLogicalErr(err) {
		return err
	}
	if e.poisoned.CompareAndSwap(nil, &boxedErr{err: err}) {
		e.tr.Record(obs.EvPoisoned, 0, 0, 0)
	}
	return fmt.Errorf("%w: %w", ErrPoisoned, err)
}

// poisonCause returns the poisoning root cause, or nil.
func (e *Engine) poisonCause() error {
	if c := e.poisoned.Load(); c != nil {
		return c.err
	}
	return nil
}

// check gates the mutating entry points.  Lock-free: closed and poisoned
// are atomics.
func (e *Engine) check() error {
	if e.closed.Load() {
		return ErrClosed
	}
	if cause := e.poisonCause(); cause != nil {
		return fmt.Errorf("%w: %w", ErrPoisoned, cause)
	}
	return nil
}

// lastFault is the root cause surfaced by Query: the poisoning error, or
// failing that the most recent background-truncation failure.
func (e *Engine) lastFault() error {
	if cause := e.poisonCause(); cause != nil {
		return cause
	}
	if c := e.truncErr.Load(); c != nil {
		return c.err
	}
	return nil
}
