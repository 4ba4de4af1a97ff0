package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"github.com/rvm-go/rvm/internal/mapping"
	"github.com/rvm-go/rvm/internal/obs"
	"github.com/rvm-go/rvm/internal/pagevec"
	"github.com/rvm-go/rvm/internal/recovery"
	"github.com/rvm-go/rvm/internal/segment"
	"github.com/rvm-go/rvm/internal/wal"
)

// Flush blocks until all committed no-flush transactions have been forced
// to the log (paper §4.2 flush).
func (e *Engine) Flush() error {
	if err := e.check(); err != nil {
		return err
	}
	return e.maybePoison(e.flushSpool(false))
}

// flushSpool drains the spool into the log and forces it.  claimed says whether the caller already holds the truncation slot, which
// decides how a full log is handled (retryLogFull).  The force runs with no
// lock held.
func (e *Engine) flushSpool(claimed bool) error {
	t0 := time.Now()
	p := &e.pipe
	var drained int64
	first := true
	for attempt := 0; ; attempt++ {
		p.mu.Lock()
		if first {
			drained = p.spoolBytes
			first = false
		}
		err := e.drainSpoolPipeLocked()
		var need int64
		if err != nil && len(p.spool) > 0 {
			need = wal.EncodedLen(p.spool[0].ranges)
		}
		p.mu.Unlock()
		if err == nil {
			break
		}
		if err = e.retryLogFull(err, attempt, need, claimed, " while flushing the spool"); err != nil {
			return err
		}
	}
	if err := e.retryIO(e.log.Force); err != nil {
		return err
	}
	e.stats.Flushes.Add(1)
	e.met.ObserveSpoolFlush(time.Since(t0).Nanoseconds())
	e.tr.SpanSince(obs.EvSpoolFlush, t0, 0, uint64(drained), 0)
	return nil
}

// retryLogFull is the one policy for an append that failed: it returns nil
// once there is room and the caller should try again, otherwise the error
// to give up with.  Only ErrLogFull is retried, three times, each after an
// epoch truncation; the give-up error says why, so the
// caller can tell "log too small for this record" (need bytes) from a log
// that is merely busy.  A caller that does not hold the truncation slot
// (claimed false) claims it for the truncation — which also waits out any
// truncation already in flight, after which the space it freed may already
// suffice; one that does truncates inline, since waiting for the slot it
// owns would deadlock.
func (e *Engine) retryLogFull(err error, attempt int, need int64, claimed bool, doing string) error {
	if !errors.Is(err, wal.ErrLogFull) {
		return err
	}
	if attempt >= 3 {
		return fmt.Errorf(
			"rvm: log full after %d inline truncations%s (record needs %d bytes, log area %d bytes, %d live): %w",
			attempt, doing, need, e.log.AreaSize(), e.log.Used(), err)
	}
	if !claimed {
		if err := e.claimTruncation(); err != nil {
			return err
		}
		defer e.releaseTruncation()
		if e.log.Fits(need) {
			return nil
		}
	}
	// The spool is intentionally not drained — there may be no room for it;
	// it stays in memory and flows into the next epoch.
	return e.epoch()
}

// Truncate blocks until all committed changes in the write-ahead log have
// been reflected to the external data segments (paper §4.2 truncate).  A
// full reflection is exactly an epoch truncation whose epoch is the whole
// live log.  The epoch (the live log at collection time) is applied to the
// segments while forward processing continues; commits only stall on the
// pipeline lock during collection and completion (paper §5.1.2, Figure 6).
// Callers must hold no engine lock.
func (e *Engine) Truncate() error {
	e.met.OpEnter(obs.StallTruncation)
	defer e.met.OpExit(obs.StallTruncation)
	if err := e.claimTruncation(); err != nil {
		return err
	}
	defer e.releaseTruncation()
	return e.epochAllClaimed()
}

// epochAllClaimed is Truncate's body, for callers that already hold
// the truncation claim (Close).
func (e *Engine) epochAllClaimed() error {
	// Spooled commits become log records now so the epoch covers them.
	if err := e.flushSpool(true); err != nil {
		return e.maybePoison(err)
	}
	return e.epoch()
}

// epoch runs an epoch truncation — the paper's log-replay fallback — under
// the caller's truncation claim.  The spool is not touched:
// callers that want it in the epoch flush it first.  The leading force (a
// no-op on a clean log) makes every record the epoch will contain durable
// before any of it reaches a segment (the no-undo/redo invariant).
func (e *Engine) epoch() error {
	t0 := time.Now()
	fail := func(err error) error {
		// The head was not advanced, so the log still covers everything
		// the segments may have partially absorbed; recovery stays
		// correct.  The engine, however, can no longer trust the device.
		e.pipe.mu.Lock()
		e.pipe.epochEndSeq = 0
		e.pipe.mu.Unlock()
		return e.maybePoison(err)
	}
	if err := e.applyPending(); err != nil {
		return fail(err)
	}
	if err := e.retryIO(e.log.Force); err != nil {
		return fail(err)
	}
	ep, err := e.collectEpochPipe()
	if err != nil {
		return fail(err)
	}
	// Apply outside every lock: commits keep flowing into the current
	// epoch meanwhile, so the apply is not part of the pause.
	applyT := time.Now()
	if _, err := ep.Apply(e.lookupSegmentSync, e.retryIO); err != nil {
		return fail(err)
	}
	applied := time.Since(applyT)
	e.completeEpochPipe(ep.EndSeq())
	e.stats.EpochTruncs.Add(1)
	e.met.ObserveTruncPause((time.Since(t0) - applied).Nanoseconds())
	e.tr.SpanSince(obs.EvTruncEpoch, t0, 0, uint64(ep.Records()), 0)
	return nil
}

// applyPending applies the redo the restart left pending (Open), the run's
// first truncation epoch.  Every claim holder that writes a page from memory
// or moves a head or a stable LSN calls it first: applied later, the redo
// would write older bytes over such a page, and a head moved first would drop
// records whose bytes are in no segment yet.  Nothing queued predates the
// redo, so there is nothing to reconcile.  Caller holds the truncation
// claim.
func (e *Engine) applyPending() error {
	if e.pending == nil {
		return nil
	}
	if st, err := e.pending.Apply(e.lookupSegmentSync, e.retryIO); err != nil {
		// The partial stats say how far redo got before the failure.
		return fmt.Errorf("rvm: recovery: applied %d byte(s) in %d write(s), %d segment(s) synced: %w",
			st.TreeBytes, st.WritesMerged, st.Segments, err)
	}
	e.pending = nil
	return nil
}

// collectEpochPipe snapshots the live log as a truncation epoch and
// publishes its end sequence, both under the pipeline lock: any commit
// appending after the collection then sees epochEndSeq set and promotes
// re-modified pages to their new (surviving) log reference.  Records can
// append unforced between the caller's force and the collection, so the
// epoch's tail is forced before it may be applied.
func (e *Engine) collectEpochPipe() (*recovery.Epoch, error) {
	p := &e.pipe
	p.mu.Lock()
	var ep *recovery.Epoch
	err := e.retryIO(func() error {
		var err error
		ep, err = recovery.CollectEpoch(e.log)
		return err
	})
	if err == nil {
		p.epochEndSeq = ep.EndSeq()
	}
	p.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if end := ep.EndSeq(); end > 0 && e.log.ForcedThrough() < end-1 {
		if ferr := e.retryIO(e.log.Force); ferr != nil {
			return nil, ferr
		}
	}
	return ep, nil
}

// completeEpochPipe drops queue descriptors the epoch made obsolete and
// clears dirty bits for pages whose committed changes are now fully in
// their segments.  Callers hold the truncation claim (so the regions slice
// and mapped-state are stable); the queue/spool/dirty reconciliation runs
// under the pipeline lock so it cannot interleave with a commit's enqueue.
func (e *Engine) completeEpochPipe(endSeq uint64) {
	p := &e.pipe
	p.mu.Lock()
	p.queue.DropOlderThan(endSeq)
	for _, r := range e.regions {
		if r == nil {
			continue
		}
		for pg := 0; pg < r.pvec.NumPages(); pg++ {
			// Pages referenced by still-spooled transactions keep their
			// dirty bits: their changes are only in memory and the spool.
			id := pagevec.PageID{Region: r.idx, Page: int64(pg)}
			if r.pvec.IsDirty(pg) && r.spoolRefs[pg] == 0 && !p.queue.Has(id) {
				r.pvec.ClearDirty(pg)
			}
		}
	}
	p.epochEndSeq = 0
	p.mu.Unlock()
}

// lookupSegmentSync is lookupSegment under the engine lock, for use from
// code running outside it.
func (e *Engine) lookupSegmentSync(id uint64) (*segment.Segment, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lookupSegment(id)
}

// A page pinned by an uncommitted reference is usually mid-commit: the
// committer holds the reference across its log force (no lock held) and
// drops it within milliseconds.  The cleaner waits out such transient pins,
// blockedHeadGrace in all per walk, before it declares the queue blocked.
// Each retry is paced by blockedHeadPace: a committer re-spooling the page
// on every visit would otherwise turn the wait into a flush spin that
// starves the very commits it is waiting on.
const (
	blockedHeadGrace = 50 * time.Millisecond
	blockedHeadPace  = 200 * time.Microsecond
)

// cleanEverything is the clean target no log usage satisfies.
const cleanEverything = -1

// clean is the page cleaner (paper Figure 7): it writes the pages of the
// FIFO queue to their segments, oldest log reference first,
// until the live log less what a head move would free is at most targetUsed
// bytes, or the queue is drained, or its first page stays blocked.  It
// counts each page on the caller's counter as it goes and returns the pages
// written and the log position and sequence number of the first reference
// it did not retire — the next append's when the queue drained.  Everything before that reference is durably in the segments:
// incremental truncation moves the head there, a checkpoint records the
// sequence number as the stable LSN.  Caller holds the truncation claim.
//
// Each step holds the page's region lock across the write-out, the dirty
// clear, and the queue pop: the region lock excludes commits on that
// region, so no commit can re-enqueue (and dedup against) a descriptor in
// the middle of being retired.  Page write-outs are batched: pages are
// written without syncing and the touched segments are synced once with no
// lock held, before the caller may act on the result — a single status
// write per batch instead of one per page, with the same guarantee (a page
// is durably in its segment before the head passes its first log
// reference).
func (e *Engine) clean(targetUsed int64, count *atomic.Uint64) (pages uint64, pos int64, seq uint64, err error) {
	if err := e.applyPending(); err != nil {
		return 0, 0, 0, err
	}
	p := &e.pipe
	wrote := make(map[*segment.Segment]bool)
	deadline := time.Now().Add(blockedHeadGrace)
	for {
		p.mu.Lock()
		d, ok := p.queue.First()
		if ok {
			pos, seq = d.Pos, d.Seq
		} else {
			// Every live record's pages have been written out.  The tail is
			// read while still holding the pipeline lock — appends hold it
			// too, so no commit can slip a record (and its queue entries)
			// between the empty-queue observation and this read.
			pos, seq = e.log.Tail()
		}
		p.mu.Unlock()
		if !ok || e.log.Used()-e.reclaimableTo(pos) <= targetUsed {
			break
		}
		r := e.regions[d.ID.Region] // stable under the truncation claim
		if r != nil {
			r.mu.Lock()
		}
		if r == nil || !r.mapped {
			// Unmap removes its region's descriptors, so this is
			// unreachable; tolerate a stale descriptor by skipping it.
			if r != nil {
				r.mu.Unlock()
			}
			p.mu.Lock()
			p.queue.PopFirst()
			p.mu.Unlock()
			continue
		}
		pinned := r.pvec.Refs(int(d.ID.Page)) > 0
		spooled := false
		if !pinned {
			// A no-flush transaction committed after the caller's spool
			// flush may have re-dirtied this page: its bytes are committed
			// but not yet logged, so writing the page (and moving the head
			// or a stable LSN past its log reference) would break atomicity
			// on a crash.  The region lock holds the spool state for this
			// region, and with it the page's newest log reference, steady
			// across the checks and the copy.
			p.mu.Lock()
			spooled = r.spoolRefs[d.ID.Page] > 0
			d, _ = p.queue.Get(d.ID)
			p.mu.Unlock()
		}
		if pinned || spooled {
			// The first page in the queue has uncommitted or unlogged
			// changes and cannot be written without violating no-undo/redo;
			// nothing may pass it (paper: truncation is blocked until the
			// count drops to zero).
			r.mu.Unlock()
			if !time.Now().Before(deadline) {
				break
			}
			if spooled {
				// A spooled reference never drains on its own; turn the
				// spooled bytes into log records (legal: the caller holds
				// the truncation claim and no locks are held here) so the
				// page becomes writable and the walk continues.
				if err = e.flushSpool(true); err != nil {
					return pages, 0, 0, err
				}
			}
			time.Sleep(blockedHeadPace)
			continue
		}
		if d.Last > e.log.ForcedThrough() {
			// A flush commit drained no-flush records touching this page and
			// released its locks before its force; the page must not reach its
			// segment ahead of them (write-ahead rule).  Forcing beats waiting
			// for that force: the walk goes on with all appended so far durable.
			r.mu.Unlock()
			if err = e.retryIO(e.log.Force); err != nil {
				return pages, 0, 0, err
			}
			continue
		}
		err = e.writePageLocked(r, d.ID.Page)
		if err == nil {
			p.mu.Lock()
			p.queue.PopFirst()
			p.mu.Unlock()
		}
		r.mu.Unlock()
		if err != nil {
			return pages, 0, 0, err
		}
		wrote[r.seg] = true
		pages++
		count.Add(1)
	}
	for seg := range wrote {
		if err = e.retryIO(seg.Sync); err != nil {
			return pages, 0, 0, err
		}
	}
	return pages, pos, seq, nil
}

// writePageLocked is the one place a page is copied from memory to its
// segment: write (unsynced — the caller syncs the segment before anything
// relies on the page being there), clear the dirty bit, count.  Caller
// holds r.mu, which keeps r.data stable and commits on the region out.
func (e *Engine) writePageLocked(r *Region, page int64) error {
	ps := int64(mapping.PageSize)
	off := page * ps
	err := e.retryIO(func() error {
		return r.seg.WriteAt(r.data[off:off+ps], r.segOff+off)
	})
	if err != nil {
		return err
	}
	r.pvec.ClearDirty(int(page))
	e.stats.PagesWritten.Add(1)
	return nil
}

// reclaimableTo returns the bytes a head move to pos, the position of a
// live record, would free.
func (e *Engine) reclaimableTo(pos int64) int64 {
	hp, _ := e.log.Head()
	freed := pos - hp
	if freed < 0 {
		freed += e.log.AreaSize()
	}
	return freed
}

// TruncateIncremental runs incremental truncation down to targetFraction
// of the log size, reverting to an epoch truncation if it blocks while the
// log remains above the fraction.  Exposed for tests,
// tools, and benchmarks; background truncation uses the same path.
func (e *Engine) TruncateIncremental(targetFraction float64) error {
	// Like Commit, the operation span starts at the call so traces show
	// truncation overlapping the commits it contended with.
	t0 := time.Now()
	e.met.OpEnter(obs.StallTruncation)
	defer e.met.OpExit(obs.StallTruncation)
	if err := e.claimTruncation(); err != nil {
		return err
	}
	pause := time.Now()
	pages, done, err := e.incrementalClaimed(targetFraction)
	err = e.maybePoison(err)
	e.met.ObserveTruncPause(time.Since(pause).Nanoseconds())
	e.tr.SpanSince(obs.EvTruncPause, pause, 0, pages, 0)
	e.releaseTruncation()
	if err == nil && !done {
		// Blocked with a log still above target: revert to epoch
		// truncation (paper §5.1.2).
		err = e.Truncate()
	}
	// The operation span closes only now so it covers the epoch
	// fallback too: a fallback's apply phase is the longest part of the
	// call, and ending the span before it would leave the window where
	// truncation overlaps the most forward commits uncovered.
	e.tr.SpanSince(obs.EvTruncIncr, t0, 0, pages, 0)
	return err
}

// incrementalClaimed is TruncateIncremental's body under the truncation
// claim.  done reports whether the log is down to the target.
func (e *Engine) incrementalClaimed(targetFraction float64) (pages uint64, done bool, err error) {
	// The spool flush runs even on a log already below target: truncation's
	// contract includes making spooled no-flush commits durable.
	if err := e.flushSpool(true); err != nil {
		return 0, true, err
	}
	target := int64(targetFraction * float64(e.log.AreaSize()))
	if e.log.Used() <= target {
		return 0, true, nil
	}
	pages, pos, seq, err := e.clean(target, &e.stats.IncrSteps)
	if err != nil {
		return pages, true, err
	}
	// Everything before the first reference the cleaner left is durably in
	// the segments: that is where the head goes.
	if hp, hs := e.log.Head(); hp != pos || hs != seq {
		if err := e.retryIO(func() error { return e.log.SetHead(pos, seq) }); err != nil {
			return pages, true, err
		}
	}
	return pages, e.log.Used() <= target, nil
}

// shouldAutoTruncate reports whether a commit should kick off a background
// truncation.  Lock-free: all inputs are atomics.
func (e *Engine) shouldAutoTruncate() bool {
	thr := math.Float64frombits(e.truncThreshold.Load())
	if thr <= 0 || e.truncating.Load() || e.closed.Load() {
		return false
	}
	return float64(e.log.Used()) > thr*float64(e.log.AreaSize())
}

// autoTruncate is the background truncation started after a commit crosses
// the threshold.
func (e *Engine) autoTruncate() {
	if e.truncating.Load() || !e.shouldAutoTruncate() {
		return
	}
	thr := math.Float64frombits(e.truncThreshold.Load())
	var err error
	if e.incremental.Load() {
		// Aim well below the trigger so truncations are not continuous.
		err = e.TruncateIncremental(thr / 2)
	} else {
		err = e.Truncate()
	}
	if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, wal.ErrLogClosed) {
		// Poisoning (when warranted) already happened inside the truncation
		// path; here we make the failure observable.  The engine remains
		// correct either way — the log head did not advance, so recovery
		// still covers every acknowledged commit — but the log will keep
		// filling until the operator notices via Query/Stats.
		e.stats.TruncFailures.Add(1)
		e.mu.Lock()
		e.truncErr = err
		e.mu.Unlock()
	}
}
