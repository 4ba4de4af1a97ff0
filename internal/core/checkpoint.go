package core

import (
	"errors"
	"time"

	"github.com/rvm-go/rvm/internal/obs"
	"github.com/rvm-go/rvm/internal/wal"
)

// Checkpoint runs one fuzzy checkpoint per shard: for each shard it drains
// the spool, writes the queued dirty pages to their segments, syncs them,
// and appends a checkpoint record carrying that shard's stable LSN — the
// sequence number below which every record in that shard's log is fully
// reflected.  A later recovery starts each shard's redo at its own
// checkpoint, so restart time is bounded by the log written since the last
// checkpoint on the busiest shard, not the whole live log.
//
// The checkpoint is fuzzy in the paper-adjacent sense: committers are
// never stalled.  The pages go out through incremental truncation's page
// cleaner (cleanShard) — each page's region lock is held only for that
// page's copy, commits on other regions (and on other pages via the
// pipeline) keep flowing, and a page that stays pinned by an in-flight
// commit simply bounds the stable LSN at its first log reference instead
// of blocking anyone.  No quiescence is needed because the stable LSN is
// computed from what was actually written, not from a frozen world.
//
// Cross-shard transactions need no coordination here: a prepare's pages
// stay pinned until the transaction finishes, so a shard's stable LSN can
// never separate an in-flight prepare from its commit mark — and once the
// transaction is complete, every participating shard carries its own copy
// of the commit mark, keeping each shard's scan self-sufficient.
//
// Unlike truncation the log heads do not move: checkpoints bound recovery
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
	var pages, stable uint64
	var err error
	for _, sh := range e.shards {
		var p uint64
		p, stable, err = e.checkpointShardClaimed(sh)
		pages += p
		if err != nil {
			break
		}
	}
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

// checkpointShardClaimed is one shard's checkpoint body; the caller holds
// the truncation claim.
func (e *Engine) checkpointShardClaimed(sh *shard) (pages, stable uint64, err error) {
	// Spooled commits become log records first: a dirty page written
	// below may hold committed no-flush bytes, and a page must never
	// reach its segment ahead of the log records covering it.
	if err := e.flushSpool(sh, true); err != nil {
		return 0, 0, err
	}
	// Everything the cleaner can write goes out; a page that stays pinned
	// bounds the stable LSN at its first log reference.
	pages, _, stable, err = e.cleanShard(sh, cleanEverything, &e.stats.CheckpointPages)
	if err != nil {
		return pages, stable, err
	}
	if sh.log.Used() == 0 || stable <= sh.lastCkptStable || stable == sh.lastCkptSeq+1 {
		// No progress to record: the log is empty, the stable seq did not
		// advance, or the only record since the last checkpoint is that
		// checkpoint itself (a drained queue reports the next append seq,
		// which the previous checkpoint record always sits just below).
		return pages, stable, nil
	}
	var ckSeq uint64
	err = e.retryIO(func() error {
		_, seq, err := sh.log.AppendCheckpoint(stable)
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
	if err := e.retryIO(sh.log.Force); err != nil {
		return pages, stable, err
	}
	sh.lastCkptStable = stable
	sh.lastCkptSeq = ckSeq
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
