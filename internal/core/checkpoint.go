package core

import (
	"errors"
	"time"

	"github.com/rvm-go/rvm/internal/obs"
	"github.com/rvm-go/rvm/internal/wal"
)

// Checkpoint runs one fuzzy checkpoint: it drains the spool, writes the
// queued dirty pages to their segments, syncs them, and appends a
// checkpoint record carrying the stable LSN — the sequence number below
// which every record in the log is fully reflected.  A later recovery
// starts its redo at the checkpoint, so restart time is bounded by the log
// written since the last checkpoint, not the whole live log.
//
// The checkpoint is fuzzy in the paper-adjacent sense: committers are
// never stalled.  The pages go out through incremental truncation's page
// cleaner (clean) — each page's region lock is held only for that
// page's copy, commits on other regions (and on other pages via the
// pipeline) keep flowing, and a page that stays pinned by an in-flight
// commit simply bounds the stable LSN at its first log reference instead
// of blocking anyone.  No quiescence is needed because the stable LSN is
// computed from what was actually written, not from a frozen world.
//
// Unlike truncation the log head does not move: checkpoints bound recovery
// even when truncation is disabled or behind.
func (e *Engine) Checkpoint() error {
	if err := e.check(); err != nil {
		return err
	}
	t0 := time.Now()
	if err := e.claimTruncation(); err != nil {
		return err
	}
	e.met.OpEnter(obs.StallCheckpoint)
	pages, stable, err := e.checkpointClaimed()
	e.met.OpExit(obs.StallCheckpoint)
	err = e.maybePoison(err)
	e.releaseTruncation()
	if err != nil {
		return err
	}
	e.stats.Checkpoints.Add(1)
	e.met.ObserveCheckpoint(time.Since(t0).Nanoseconds())
	e.tr.SpanSince(obs.EvCheckpoint, t0, 0, pages, stable)
	return nil
}

// checkpointClaimed is Checkpoint's body; the caller holds the truncation
// claim.
func (e *Engine) checkpointClaimed() (pages, stable uint64, err error) {
	// Spooled commits become log records first: a dirty page written
	// below may hold committed no-flush bytes, and a page must never
	// reach its segment ahead of the log records covering it.
	if err := e.flushSpool(true); err != nil {
		return 0, 0, err
	}
	// Everything the cleaner can write goes out; a page that stays pinned
	// bounds the stable LSN at its first log reference.
	pages, _, stable, err = e.clean(cleanEverything, &e.stats.CheckpointPages)
	if err != nil {
		return pages, stable, err
	}
	if e.log.Used() == 0 || stable <= e.lastCkptStable || stable == e.lastCkptSeq+1 {
		// No progress to record: the log is empty, the stable seq did not
		// advance, or the only record since the last checkpoint is that
		// checkpoint itself (a drained queue reports the next append seq,
		// which the previous checkpoint record always sits just below).
		return pages, stable, nil
	}
	var ckSeq uint64
	err = e.retryIO(func() error {
		_, seq, err := e.log.AppendCheckpoint(stable)
		ckSeq = seq
		return err
	})
	if errors.Is(err, wal.ErrLogFull) {
		// Benign: the pages are durably in their segments either way,
		// only the scan bound goes unrecorded until space frees up.
		return pages, stable, nil
	}
	if err != nil {
		return pages, stable, err
	}
	if err := e.retryIO(e.log.Force); err != nil {
		return pages, stable, err
	}
	e.lastCkptStable = stable
	e.lastCkptSeq = ckSeq
	return pages, stable, nil
}

// startCheckpointer launches the background fuzzy-checkpoint loop.
func (e *Engine) startCheckpointer(interval time.Duration) {
	e.ckptLoop.start(interval, func() bool {
		err := e.Checkpoint()
		// Other failures (log momentarily full, transient faults exhausting
		// retries without poisoning) leave the next tick to try again; the
		// engine stays correct without checkpoints, restarts are just
		// slower.
		return errors.Is(err, ErrClosed) || errors.Is(err, ErrPoisoned)
	})
}
