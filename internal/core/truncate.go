package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/rvm-go/rvm/internal/mapping"
	"github.com/rvm-go/rvm/internal/obs"
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

// flushSpool drains the spool into the log and forces it through the
// drain's record, which also covers every record a flush commit drained
// before it.  claimed says whether the caller already holds the truncation
// slot, which decides how a full log is handled (retryAppend).  The force
// is a ticket (waitForced), taken with no lock held.
func (e *Engine) flushSpool(claimed bool) error {
	t0 := time.Now()
	p := &e.pipe
	var drained int64
	var last uint64
	var tries appendTries
	for attempt := 0; ; attempt++ {
		p.mu.Lock()
		if attempt == 0 {
			drained = p.spoolBytes
		}
		rec, need, err := e.drainSpoolPipeLocked()
		last = e.log.LastSeq()
		p.mu.Unlock()
		if rec.n > 0 {
			e.tr.Record(obs.EvLogAppend, rec.tid, uint64(rec.n), rec.seq)
		}
		if err == nil {
			break
		}
		if err = e.retryAppend(err, &tries, need, claimed, " while flushing the spool"); err != nil {
			return err
		}
	}
	if _, _, err := e.waitForced(last, false); err != nil {
		return err
	}
	e.stats.Flushes.Add(1)
	ns := time.Since(t0).Nanoseconds()
	e.met.ObserveSpoolFlush(ns)
	e.tr.SpanFor(obs.EvSpoolFlush, t0, ns, 0, uint64(drained), 0)
	return nil
}

// appendTries counts an append's retries by cause (retryAppend).
type appendTries struct{ full, transient int }

// retryAppend is the one policy for an append that failed, called once the
// caller holds no lock: nil means try again, else the error to give up
// with.  A transient fault backs off as in retryIO.  ErrLogFull is retried
// three times, each after an epoch truncation; the give-up error tells "log
// too small for this record" (need bytes) from a log that is merely busy.
// A caller that does not hold the truncation slot (claimed false) claims
// it for the truncation — which also waits out any truncation already in
// flight, after which the space it freed may already suffice; one that
// does truncates inline, since waiting for the slot it owns would deadlock.
func (e *Engine) retryAppend(err error, tries *appendTries, need int64, claimed bool, doing string) error {
	if !errors.Is(err, wal.ErrLogFull) {
		tries.transient++
		return e.backoff(err, tries.transient-1)
	}
	if tries.full >= 3 {
		return fmt.Errorf(
			"rvm: log full after %d inline truncations%s (record needs %d bytes, log area %d bytes, %d live): %w",
			tries.full, doing, need, e.log.AreaSize(), e.log.Used(), err)
	}
	tries.full++
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
	// it stays in memory and flows into the next truncation.
	return e.epoch(epochLogFull)
}

// Truncate blocks until all committed changes in the write-ahead log have
// been reflected to the external data segments (paper §4.2 truncate): it is
// the truncation whose target is an empty log.  Callers must hold no engine
// lock.
func (e *Engine) Truncate() error { return e.truncate(cleanEverything, true) }

// TruncateIncremental truncates until at most targetFraction of the log
// size stays live.  Exposed for tests, tools, and benchmarks; background
// truncation uses the same path.
func (e *Engine) TruncateIncremental(targetFraction float64) error {
	return e.truncate(int64(targetFraction*float64(e.log.AreaSize())), true)
}

// Checkpoint bounds the next restart by the log written after it: it is an
// incremental truncation down to an empty log (paper §5.1.2) that never
// falls back to an epoch.  It drains the spool, writes the queued dirty
// pages to their segments, syncs them, and moves the log's head past every
// record they cover; a restart reads from the head.
//
// Committers are never stalled: the pages go out through the page cleaner
// (clean), each page's region lock held only for that page's copy, and a
// page that stays pinned by an open transaction keeps the head at its first
// log reference instead of blocking anyone.  A checkpoint writes no record:
// the head in the log's status block is all a restart needs to know.
func (e *Engine) Checkpoint() error { return e.truncate(cleanEverything, false) }

// truncate is truncateClaimed under a claim of its own, the one entry of
// every truncation but Close's.  Like Commit, its span starts at the call
// so traces show truncation overlapping the commits it contended with, and
// it closes after a fallback's apply, the longest part of such a call; B
// is 1 for a checkpoint, a call that may not fall back to an epoch.
func (e *Engine) truncate(target int64, fallback bool) error {
	t0 := time.Now()
	e.met.OpEnter(obs.StallTruncation)
	defer e.met.OpExit(obs.StallTruncation)
	if err := e.claimTruncation(); err != nil {
		return err
	}
	pages, err := e.truncateClaimed(target, fallback)
	e.releaseTruncation()
	var checkpoint uint64
	if !fallback {
		checkpoint = 1
	}
	e.tr.SpanFor(obs.EvTruncate, t0, time.Since(t0).Nanoseconds(), 0, pages, checkpoint)
	return err
}

// The roads to an epoch truncation, which EvTruncEpoch carries in B.
const (
	epochBlocked = 1 + iota // the cleaner stopped at a page that stayed pinned
	epochLogFull            // an append found the log full
)

// epoch runs an epoch truncation — the paper's log-replay fallback — under
// the caller's truncation claim.  It has two callers, its two roads:
// truncateClaimed, when the cleaner is blocked, and retryAppend, whose
// caller's own page references are among the pins.  The spool is not
// touched.  Every record the epoch contains is durable before any of it
// reaches a segment (the no-undo/redo invariant): collectEpochPipe forces
// the log through the epoch's end before it returns it.
func (e *Engine) epoch(road uint64) error {
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
	ep, err := e.collectEpochPipe()
	if err != nil {
		return fail(err)
	}
	// Apply outside every lock: commits keep flowing into the current
	// epoch meanwhile, so the apply is not part of the pause.
	applyT := time.Now()
	if _, err := ep.Apply(e.lookupSegment, e.retryIO); err != nil {
		return fail(err)
	}
	applied := time.Since(applyT)
	e.completeEpochPipe(ep.EndSeq())
	e.stats.EpochTruncs.Add(1)
	if road == epochLogFull {
		e.stats.EpochTruncsLogFull.Add(1)
	}
	took := time.Since(t0)
	e.met.ObserveTruncPause((took - applied).Nanoseconds())
	e.tr.SpanFor(obs.EvTruncEpoch, t0, took.Nanoseconds(), 0, uint64(ep.Records()), road)
	return nil
}

// applyPending applies the redo the restart left pending (Open), the run's
// first truncation epoch.  Every claim holder that writes a page from memory
// or moves the head calls it first: applied later, the redo would write
// older bytes over such a page, and a head moved first would drop records
// whose bytes are in no segment yet.  Nothing queued predates the
// redo, so there is nothing to reconcile.  Caller holds the truncation
// claim.
func (e *Engine) applyPending() error {
	if e.pending == nil {
		return nil
	}
	if st, err := e.pending.Apply(e.lookupSegment, e.retryIO); err != nil {
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
// re-modified pages to their new (surviving) log reference.  A transient
// fault is backed off with the lock released.  The epoch may hold records
// not yet forced, so it takes a ticket through its last record before it is
// returned to be applied.
func (e *Engine) collectEpochPipe() (ep *recovery.Epoch, err error) {
	p := &e.pipe
	err = e.retryIO(func() (err error) {
		p.mu.Lock()
		defer p.mu.Unlock()
		if ep, err = recovery.CollectEpoch(e.log); err == nil {
			p.epochEndSeq = ep.EndSeq()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if end := ep.EndSeq(); end > 0 {
		if _, _, err := e.waitForced(end-1, false); err != nil {
			return nil, err
		}
	}
	return ep, nil
}

// completeEpochPipe drops the queue descriptors the epoch made obsolete:
// those first referenced by a record it applied.  A page a later record
// references was promoted past them (enqueuePagePipeLocked), and a spooled
// page stays dirty by its spool references.  It runs under the pipeline
// lock so it cannot interleave with a commit's enqueue.
func (e *Engine) completeEpochPipe(endSeq uint64) {
	p := &e.pipe
	p.mu.Lock()
	p.queue.DropOlderThan(endSeq)
	p.epochEndSeq = 0
	p.mu.Unlock()
}

// Only an open transaction pins a page, from its SetRange to its append (a
// flush commit lets go there too, not after its force).  A committer that
// re-touches the queue's first page without pause, such as a lazy one on a
// control page, is met in that window now and then, and leaves it within
// microseconds.  The cleaner waits out such transient pins, blockedHeadGrace
// in all per walk, looking again every blockedHeadPace, before it declares
// the queue blocked.
const (
	blockedHeadGrace = 50 * time.Millisecond
	blockedHeadPace  = 200 * time.Microsecond
)

// cleanEverything is the clean target no log usage satisfies.
const cleanEverything = -1

// cleanPeeked, when set, runs each time clean leaves the pipeline section
// that read the queue's first page or the log's tail.  Tests commit from it
// to land an append between that read and the head move.
var cleanPeeked func()

// clean is the page cleaner (paper Figure 7): it writes the pages of the
// FIFO queue to their segments, oldest log reference first,
// until the live log less what a head move would free is at most targetUsed
// bytes, or the queue is drained, or its first page stays pinned, which
// it reports.  It counts each page in IncrSteps as it goes and
// returns the pages written and the log position and sequence number of the
// first reference it did not retire — the next append's when the queue
// drained.  Everything before that reference is durably in the segments, so
// truncateClaimed moves the head there.  Caller holds the truncation claim.
//
// Each page is written in one visit.  The page's region lock, held across
// the pin check, the copy of the page into e.page, a spool drain and the
// queue pop, excludes commits on that region: none can spool the page again
// or re-enqueue (and dedup against) its descriptor in the middle of its
// being retired.  The copy is written with no lock held, so a
// slow or faulting segment stalls no committer; a commit that re-dirties the
// page meanwhile enqueues a descriptor of its own, whose newer log reference
// the head cannot pass.  Page write-outs are batched: pages are written
// without syncing and the touched segments are synced once with no lock
// held, before the caller may act on the result — a single status write per
// batch instead of one per page, with the same guarantee (a page is durably
// in its segment before the head passes its first log reference).
func (e *Engine) clean(targetUsed int64) (pages uint64, pos int64, seq uint64, blocked bool, err error) {
	if err := e.applyPending(); err != nil {
		return 0, 0, 0, false, err
	}
	p := &e.pipe
	wrote := make(map[*segment.Segment]bool)
	deadline := time.Now().Add(blockedHeadGrace)
	var tries appendTries
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
		if cleanPeeked != nil {
			cleanPeeked()
		}
		if !ok || e.log.Used()-e.reclaimableTo(pos) <= targetUsed {
			break
		}
		// Unmap removes its region's descriptors under the claim the caller
		// holds, so the region is mapped.
		r := e.regions[d.ID.Region]
		r.mu.Lock()
		if r.refs[d.ID.Page] > 0 {
			// The first page in the queue has uncommitted changes and cannot
			// be written without violating no-undo/redo; nothing may pass it
			// (paper: truncation is blocked until the count drops to zero).
			r.mu.Unlock()
			if !time.Now().Before(deadline) {
				blocked = true
				break
			}
			time.Sleep(blockedHeadPace)
			continue
		}
		copy(e.page, r.pageBytes(d.ID.Page))
		var rec appended
		var need int64
		p.mu.Lock()
		// A no-flush commit may have re-dirtied the page: its bytes are
		// committed but in no record yet, so writing the page (and moving the
		// head past its log reference) would break atomicity on a crash.  The
		// spool is drained here, as a flush commit drains it under its region
		// locks, and the drain's record becomes the page's newest reference.
		if r.spoolRefs[d.ID.Page] > 0 {
			rec, need, err = e.drainSpoolPipeLocked()
		}
		if err == nil {
			d = p.queue.PopFirst()
		}
		p.mu.Unlock()
		r.mu.Unlock()
		if rec.n > 0 {
			e.tr.Record(obs.EvLogAppend, rec.tid, uint64(rec.n), rec.seq)
			e.stats.Flushes.Add(1)
		}
		if err != nil {
			if err = e.retryAppend(err, &tries, need, true, " while cleaning"); err != nil {
				return pages, 0, 0, false, err
			}
			continue // the page is visited again
		}
		tries = appendTries{}
		if d.Last > e.log.ForcedThrough() {
			// The page must not reach its segment ahead of the records that
			// changed it (write-ahead rule): the drain's above, or one a flush
			// commit appended and has not forced yet.  This force alone does
			// not take a ticket.  Riding the client's force in flight instead
			// cost tpca_noflush 6 % of its throughput (EXPERIMENTS.md, "One
			// force ticket"): the cleaner then waits on a client force instead
			// of stalling it.
			if _, err = e.force(); err != nil {
				return pages, 0, 0, false, err
			}
		}
		if err = e.writePage(r, d.ID.Page, e.page); err != nil {
			return pages, 0, 0, false, err
		}
		wrote[r.seg] = true
		pages++
		e.stats.IncrSteps.Add(1)
	}
	for seg := range wrote {
		if err = e.retryIO(seg.Sync); err != nil {
			return pages, 0, 0, false, err
		}
	}
	return pages, pos, seq, blocked, nil
}

// writePage is the one place a page reaches its segment: it writes src,
// the page's bytes, unsynced (the caller syncs the segment before anything
// relies on the page being there) and counts it.  Caller holds no lock,
// since a transient fault backs off inside.
func (e *Engine) writePage(r *Region, page int64, src []byte) error {
	off := r.segOff + page*int64(mapping.PageSize)
	if err := e.retryIO(func() error { return r.seg.WriteAt(src, off) }); err != nil {
		return err
	}
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

// truncateClaimed is every truncation but retryAppend's, under the
// caller's truncation claim: it flushes the spool, has the cleaner write
// pages until at most target log bytes would stay live, and moves the
// head.  When the cleaner stopped at a page that stayed pinned and fallback
// is set, an epoch truncation follows (paper §5.1.2: incremental
// truncation reverts to epoch truncation when blocked); a checkpoint
// (fallback false) leaves the head at that page.  A log left above target
// with nothing blocked — a commit landed during the walk — stays as it is.
// A truncation that walks observes one pause, the epoch's when one
// follows.  Errors come back through maybePoison.
func (e *Engine) truncateClaimed(target int64, fallback bool) (pages uint64, err error) {
	// The spool flush runs even on a log already below target: truncation's
	// contract includes making spooled no-flush commits durable.
	if err := e.flushSpool(true); err != nil {
		return 0, e.maybePoison(err)
	}
	if e.log.Used() <= target {
		return 0, nil
	}
	pause := time.Now()
	pages, pos, seq, blocked, err := e.clean(target)
	// Everything before the first reference the cleaner left is durably in
	// the segments: that is where the head goes.
	if hp, hs := e.log.Head(); err == nil && (hp != pos || hs != seq) {
		err = e.retryIO(func() error { return e.log.SetHead(pos, seq) })
	}
	if err == nil && blocked && fallback {
		return pages, e.maybePoison(e.epoch(epochBlocked))
	}
	ns := time.Since(pause).Nanoseconds()
	e.met.ObserveTruncPause(ns)
	e.tr.SpanFor(obs.EvTruncPause, pause, ns, 0, pages, 0)
	return pages, e.maybePoison(err)
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
	// Aim well below the trigger so truncations are not continuous.
	err := e.TruncateIncremental(math.Float64frombits(e.truncThreshold.Load()) / 2)
	if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, wal.ErrLogClosed) {
		// Poisoning (when warranted) already happened inside the truncation
		// path; here we make the failure observable.  The engine remains
		// correct either way — the log head did not advance, so recovery
		// still covers every acknowledged commit — but the log will keep
		// filling until the operator notices via Query/Stats.
		e.stats.TruncFailures.Add(1)
		e.truncErr.Store(&boxedErr{err: err})
	}
}
