package core

import (
	"errors"
	"time"

	"github.com/rvm-go/rvm/internal/mapping"
	"github.com/rvm-go/rvm/internal/obs"
	"github.com/rvm-go/rvm/internal/segment"
	"github.com/rvm-go/rvm/internal/wal"
)

// Checkpoint runs one fuzzy checkpoint per shard: for each shard it drains
// the spool, writes the queued dirty pages to their segments, syncs them,
// and appends a checkpoint record carrying that shard's stable LSN — the
// sequence number below which every record in that shard's log is fully
// reflected.  A later recovery ends each shard's backward scan at its own
// checkpoint, so restart time is bounded by the log written since the last
// checkpoint on the busiest shard, not the whole live log.
//
// The checkpoint is fuzzy in the paper-adjacent sense: committers are
// never stalled.  Page write-outs use the same per-page locking as
// incremental truncation — each page's region lock is held only for that
// page's copy, commits on other regions (and on other pages via the
// pipeline) keep flowing, and a page briefly pinned by an in-flight
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
	e.stats.checkpoints.Add(1)
	e.stats.checkpointPages.Add(pages)
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
	pages, stable, err = e.writeCheckpointPages(sh)
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

// writeCheckpointPages writes one shard's queued dirty pages to their
// segments, oldest log reference first, and syncs the touched segments.
// It returns the shard's stable LSN: the first remaining descriptor's
// sequence number when a page stayed pinned, or the next append sequence
// when the queue drained completely.  Locking follows incrementalSteps:
// the region lock covers the copy, the dirty clear, and the queue pop, so
// no commit can re-enqueue a descriptor mid-retirement; syncs run with no
// lock held.
func (e *Engine) writeCheckpointPages(sh *shard) (pages, stable uint64, err error) {
	ps := int64(mapping.PageSize)
	p := &sh.pipe
	wrote := make(map[*segment.Segment]bool)
	// Pages pinned by an in-flight commit usually unpin within
	// milliseconds (the committer holds them across its log force); wait
	// briefly before letting the pin bound the stable LSN.
	blockDeadline := time.Now().Add(50 * time.Millisecond)
	for {
		p.mu.Lock()
		d, ok := p.queue.First()
		if !ok {
			// Queue empty: every record in the shard's log is reflected.
			// Read the next append sequence while still holding the
			// pipeline lock — appends hold it too, so no commit can slip a
			// record between the empty-queue observation and this read.
			_, stable = sh.log.Tail()
			p.mu.Unlock()
			break
		}
		p.mu.Unlock()
		stable = d.Seq
		r := e.regions[d.ID.Region] // stable under the truncation claim
		if r == nil {
			p.mu.Lock()
			p.queue.PopFirst()
			p.mu.Unlock()
			continue
		}
		r.mu.Lock()
		if !r.mapped {
			r.mu.Unlock()
			p.mu.Lock()
			p.queue.PopFirst()
			p.mu.Unlock()
			continue
		}
		blocked := r.pvec.Refs(int(d.ID.Page)) > 0
		if !blocked {
			// A spooled transaction's bytes in this page are committed
			// but not yet logged; writing them out would break the
			// no-undo/redo invariant (the region lock holds the spool
			// state for this region steady across the check and copy).
			p.mu.Lock()
			blocked = r.spoolRefs[d.ID.Page] > 0
			p.mu.Unlock()
		}
		if blocked {
			r.mu.Unlock()
			if time.Now().Before(blockDeadline) {
				time.Sleep(200 * time.Microsecond)
				continue
			}
			break // stable LSN bounded at this page's first reference
		}
		off := d.ID.Page * ps
		err := e.retryIO(func() error {
			return r.seg.WriteAt(r.data[off:off+ps], r.segOff+off)
		})
		if err != nil {
			r.mu.Unlock()
			return pages, 0, err
		}
		r.pvec.ClearDirty(int(d.ID.Page))
		p.mu.Lock()
		p.queue.PopFirst()
		p.mu.Unlock()
		r.mu.Unlock()
		wrote[r.seg] = true
		pages++
		e.stats.pagesWritten.Add(1)
	}
	for seg := range wrote {
		if err := e.retryIO(seg.Sync); err != nil {
			return pages, 0, err
		}
	}
	return pages, stable, nil
}

// startCheckpointer launches the background fuzzy-checkpoint loop.
func (e *Engine) startCheckpointer(interval time.Duration) {
	e.ckptStop = make(chan struct{})
	e.ckptDone = make(chan struct{})
	go func() {
		defer close(e.ckptDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-e.ckptStop:
				return
			case <-t.C:
				err := e.Checkpoint()
				if errors.Is(err, ErrClosed) || errors.Is(err, ErrPoisoned) {
					return
				}
				// Other failures (log momentarily full, transient faults
				// exhausting retries without poisoning) leave the next
				// tick to try again; the engine stays correct without
				// checkpoints, restarts are just slower.
			}
		}
	}()
}

// stopCheckpointer stops the background loop and waits for it to exit.
// Idempotent; a no-op when no loop was started.
func (e *Engine) stopCheckpointer() {
	if e.ckptStop == nil {
		return
	}
	e.ckptOnce.Do(func() {
		close(e.ckptStop)
		<-e.ckptDone
	})
}
