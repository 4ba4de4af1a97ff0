package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/rvm-go/rvm/internal/mapping"
	"github.com/rvm-go/rvm/internal/obs"
	"github.com/rvm-go/rvm/internal/pagevec"
	"github.com/rvm-go/rvm/internal/wal"
)

// TxMode selects abortability (paper §4.2 restore_mode flag).
type TxMode int

const (
	// Restore transactions may abort: RVM copies the old values of every
	// set-range so it can undo changes.
	Restore TxMode = iota
	// NoRestore transactions promise never to abort explicitly; RVM skips
	// the old-value copies, saving time and space.
	NoRestore
)

// CommitMode selects the permanence guarantee (paper §4.2 commit_mode).
type CommitMode int

const (
	// Flush forces the transaction's records to the log before returning:
	// full permanence.
	Flush CommitMode = iota
	// NoFlush spools the records instead ("lazy" transaction): bounded
	// persistence until the next Flush of the engine, with much lower
	// commit latency.
	NoFlush
)

// Record flags stored in the log for post-mortem inspection.
const (
	flagNoFlush   = 1 << 0
	flagNoRestore = 1 << 1
)

// span is a half-open byte range [off, end) within a region.
type span struct{ off, end int64 }

// rangeset maintains sorted, disjoint, non-adjacent spans.  Adding a span
// returns the sub-spans that were not already covered; identical,
// overlapping, and adjacent ranges coalesce — the intra-transaction
// optimization of paper §5.2.
type rangeset struct{ spans []span }

// add inserts [off, end) and returns the newly covered pieces, appended to
// buf[:0].  The span slice is spliced in place: the merge replaces
// spans[i:j] with a single union span and an insert shifts the tail, so a
// warm set adds no allocations beyond the amortized growth of the backing
// array.
func (s *rangeset) add(off, end int64, buf []span) []span {
	i := sort.Search(len(s.spans), func(i int) bool { return s.spans[i].end >= off })
	added := buf[:0]
	pos := off
	j := i
	for j < len(s.spans) && s.spans[j].off <= end {
		if s.spans[j].off > pos {
			added = append(added, span{pos, s.spans[j].off})
		}
		if s.spans[j].end > pos {
			pos = s.spans[j].end
		}
		j++
	}
	if pos < end {
		added = append(added, span{pos, end})
	}
	// Replace spans[i:j] with their union with [off,end).
	newOff, newEnd := off, end
	if i < j {
		if s.spans[i].off < newOff {
			newOff = s.spans[i].off
		}
		if s.spans[j-1].end > newEnd {
			newEnd = s.spans[j-1].end
		}
		s.spans[i] = span{newOff, newEnd}
		if j > i+1 {
			s.spans = append(s.spans[:i+1], s.spans[j:]...)
		}
	} else {
		s.spans = append(s.spans, span{})
		copy(s.spans[i+1:], s.spans[i:])
		s.spans[i] = span{newOff, newEnd}
	}
	return added
}

// txRegion is a transaction's bookkeeping for one region.
type txRegion struct {
	region *Region
	set    rangeset   // coalesced coverage: what the transaction logs
	old    []oldValue // old values for newly covered bytes (restore mode)
	pages  rangeset   // pages referenced by this tx in this region, in page units
	naive  int64      // log bytes set-ranges would cost unoptimized
	// First backing arrays of set.spans, pages.spans and old: a region
	// with a couple of ranges allocates nothing.
	spanBuf [2]span
	pageBuf [1]span
	oldBuf  [2]oldValue
}

// oldValue is the pre-transaction contents of one newly covered span.
// rangeset.add reports only bytes no earlier set-range covered, so a
// transaction's captures are pairwise disjoint and restore in any order.
type oldValue struct {
	off  int64
	data []byte
}

// Tx is an active transaction.  A Tx is not safe for concurrent use by
// multiple goroutines, but many transactions may be active at once; RVM
// provides no serializability between them (paper §3.1).  Transactions on
// disjoint regions share no lock: they meet only at the log pipeline.
type Tx struct {
	eng  *Engine
	id   uint64
	mode TxMode
	done bool
	// regions is the bookkeeping of every region touched, ascending by
	// region index — both the lock-acquisition order and the deterministic
	// log order.  The first two regions' books live inside the Tx: every
	// one costs Begin some 70 ns of zeroing whether it is used or not,
	// about what allocating a third on demand costs.
	regions []*txRegion
	regPtrs [4]*txRegion
	regBuf  [2]txRegion
	oldData []byte // old values are captured into one growing buffer
}

// Begin starts a transaction (paper §4.2 begin_transaction).  It takes no
// lock: the transaction count and ID source are atomics.  The increment-
// then-check order pairs with Close's publish-closed-then-read-active so
// a Begin can never slip into a closing engine unobserved.  A Tx is never
// recycled: a caller holding one past Commit must keep seeing ErrTxDone.
func (e *Engine) Begin(mode TxMode) (*Tx, error) {
	e.active.Add(1)
	if err := e.check(); err != nil {
		e.active.Add(-1)
		return nil, err
	}
	t := &Tx{eng: e, id: e.nextTID.Add(1) - 1, mode: mode}
	t.regions = t.regPtrs[:0]
	e.stats.Begins.Add(1)
	e.tr.Record(obs.EvTxBegin, t.id, 0, 0)
	return t, nil
}

// ID returns the transaction identifier.
func (t *Tx) ID() uint64 { return t.id }

// SetRange declares that the transaction is about to modify [off, off+n)
// of region r (paper §4.2).  For Restore transactions the current contents
// are copied so an abort can undo the change.  Duplicate, overlapping, and
// adjacent ranges are coalesced (paper §5.2).  Only r's own lock is taken, so
// set-ranges on disjoint regions run concurrently.
func (t *Tx) SetRange(r *Region, off, n int64) error {
	if t.done {
		return ErrTxDone
	}
	if n < 0 || off < 0 || off+n > r.length {
		return fmt.Errorf("%w: [%d,+%d) in region of %d bytes", ErrBounds, off, n, r.length)
	}
	if n == 0 {
		return nil
	}
	e := t.eng
	if err := e.check(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.mapped {
		return ErrRegionUnmapped
	}
	tr := t.txRegionLocked(r)
	e.stats.SetRanges.Add(1)
	tr.naive += rangeEncodedLen(n)

	var buf [2]span
	for _, sp := range tr.set.add(off, off+n, buf[:0]) {
		if t.mode == Restore {
			// Only newly covered bytes need old-value copies; bytes already
			// covered had their pre-transaction values captured earlier.
			// A capture keeps its bytes when the buffer later moves.
			if t.oldData == nil {
				t.oldData = make([]byte, 0, max(256, sp.end-sp.off))
			}
			lo := len(t.oldData)
			t.oldData = append(t.oldData, r.data[sp.off:sp.end]...)
			tr.old = append(tr.old, oldValue{sp.off, t.oldData[lo:len(t.oldData):len(t.oldData)]})
		}
		tr.refPages(sp.off, sp.end)
	}
	return nil
}

// txRegionLocked returns the transaction's bookkeeping for r, filing it in
// index order on first touch.  Caller holds r.mu (for nTx).
func (t *Tx) txRegionLocked(r *Region) *txRegion {
	i := len(t.regions)
	for i > 0 && t.regions[i-1].region.idx >= r.idx {
		i--
	}
	if i == len(t.regions) || t.regions[i].region != r {
		var tr *txRegion
		if n := len(t.regions); n < len(t.regBuf) {
			tr = &t.regBuf[n]
		} else {
			tr = new(txRegion)
		}
		tr.region, tr.set.spans, tr.pages.spans, tr.old = r, tr.spanBuf[:0], tr.pageBuf[:0], tr.oldBuf[:0]
		t.regions = slices.Insert(t.regions, i, tr)
		r.nTx++
	}
	return t.regions[i]
}

// rangeEncodedLen is the log cost of one modification range of n bytes.
func rangeEncodedLen(n int64) int64 { return 20 + n } // wal range header + data

// refPages increments uncommitted reference counts for pages of [off,end)
// not yet referenced by this transaction in this region.
func (tr *txRegion) refPages(off, end int64) {
	ps := int64(mapping.PageSize)
	var buf [1]span
	for _, sp := range tr.pages.add(off/ps, (end-1)/ps+1, buf[:0]) {
		for p := sp.off; p < sp.end; p++ {
			tr.region.pvec.IncRef(int(p))
		}
	}
}

// eachPage calls fn for every page the transaction references in the region.
func (tr *txRegion) eachPage(fn func(page int64)) {
	for _, sp := range tr.pages.spans {
		for p := sp.off; p < sp.end; p++ {
			fn(p)
		}
	}
}

// Modify is a convenience that performs SetRange and then copies data into
// the region at off.
func (t *Tx) Modify(r *Region, off int64, data []byte) error {
	if err := t.SetRange(r, off, int64(len(data))); err != nil {
		return err
	}
	copy(r.data[off:], data)
	return nil
}

// lockRegions acquires the lock of every region the transaction touched,
// in ascending index order (the hierarchy's rule for multi-region
// transactions).
func (t *Tx) lockRegions() {
	for i := range t.regions {
		t.regions[i].region.mu.Lock()
	}
}

func (t *Tx) unlockRegions() {
	for i := range t.regions {
		t.regions[i].region.mu.Unlock()
	}
}

// finish releases per-region bookkeeping common to commit and abort.  held
// says the caller still holds the region locks, which finish then releases;
// otherwise each region is locked just long enough to drop its count.
func (t *Tx) finish(held bool) {
	e := t.eng
	for i := range t.regions {
		tr := t.regions[i]
		r := tr.region
		tr.eachPage(func(p int64) { r.pvec.DecRef(int(p)) })
		if !held {
			r.mu.Lock()
		}
		r.nTx--
		r.mu.Unlock()
	}
	t.done = true
	e.active.Add(-1)
}

// buildRanges reads the current (new) values of the transaction's ranges
// from region memory.  When copyData is true the data is duplicated into
// one buffer (needed for spooling, where memory keeps changing after
// commit); otherwise the ranges alias region memory, which the caller must
// keep locked until the log consumes them.  It also returns the pages
// behind the ranges, their log cost, and the intra-transaction savings for
// the caller to account once the commit actually succeeds.
func (t *Tx) buildRanges(copyData bool) (ranges []wal.Range, pages []pagevec.PageID, logged, saved int64) {
	var nranges, npages int
	var nbytes, naive int64
	for i := range t.regions {
		tr := t.regions[i]
		nranges += len(tr.set.spans)
		for _, sp := range tr.set.spans {
			nbytes += sp.end - sp.off
		}
		for _, sp := range tr.pages.spans {
			npages += int(sp.end - sp.off)
		}
		naive += tr.naive
	}
	ranges = make([]wal.Range, 0, nranges)
	pages = make([]pagevec.PageID, 0, npages)
	var buf []byte
	if copyData {
		buf = make([]byte, 0, nbytes)
	}
	for i := range t.regions {
		tr := t.regions[i]
		r := tr.region
		for _, sp := range tr.set.spans {
			d := r.data[sp.off:sp.end]
			if copyData {
				buf = append(buf, d...)
				d = buf[len(buf)-len(d) : len(buf) : len(buf)]
			}
			ranges = append(ranges, wal.Range{Seg: r.seg.ID(), Off: uint64(r.segOff + sp.off), Data: d})
		}
		tr.eachPage(func(p int64) { pages = append(pages, pagevec.PageID{Region: r.idx, Page: p}) })
	}
	// Exact intra-transaction savings: what verbatim logging of every
	// set-range call would have cost minus what we will actually log.
	logged = nbytes + int64(nranges)*rangeEncodedLen(0)
	return ranges, pages, logged, naive - logged
}

// Commit ends the transaction, making its changes permanent per the commit
// mode (paper §4.2 end_transaction).
func (t *Tx) Commit(mode CommitMode) error {
	if t.done {
		return ErrTxDone
	}
	if mode != Flush && mode != NoFlush {
		return fmt.Errorf("rvm: unknown commit mode %d", int(mode))
	}
	e := t.eng
	// The commit's own latency has no reader with metrics and tracing off,
	// and then the clock is not read for it (t0 stays zero).
	var t0 time.Time
	if e.met != nil || e.tr != nil {
		t0 = time.Now()
	}
	if err := e.check(); err != nil {
		return err
	}
	if len(t.regions) == 0 {
		// Nothing was modified; no log record is needed.
		t.finish(false)
		e.stats.EmptyCommits.Add(1)
		if mode == Flush {
			e.stats.FlushCommits.Add(1)
		} else {
			e.stats.NoFlushCommits.Add(1)
		}
		return nil
	}
	lazy := mode == NoFlush
	var flags uint8
	if t.mode == NoRestore {
		flags |= flagNoRestore
	}
	if lazy {
		flags |= flagNoFlush
	}
	return t.commit(lazy, flags, t0)
}

// phaseClock cuts a commit's timeline, from the t it is started with, into
// consecutive phases (DESIGN.md §14).  Off — metrics disabled — it never
// reads the clock.  Reading it under a lock is fine (it is not an
// emission); the histograms are fed only after every lock is released.
type phaseClock struct {
	on bool
	t  time.Time
}

// lap returns the nanoseconds since the previous lap.
func (c *phaseClock) lap() int64 {
	if !c.on {
		return 0
	}
	now := time.Now()
	d := now.Sub(c.t)
	c.t = now
	return d.Nanoseconds()
}

// commit is the one commit path: put the transaction's record in the log,
// in order, then make it durable (DESIGN.md §15).  It takes only the locks
// of the regions the transaction touched plus the pipeline lock for the
// append; the force runs with no lock at all.  A commit is staged:
//
//  1. Under the region locks, the ranges go through the pipeline in one
//     section.  A lazy commit copies them into the spool and is done.
//     Otherwise the spool is drained ahead of it and one record is
//     appended.
//  2. Force the log, holding no lock.  This is the acknowledgement point.
//
// Region locks are released after stage 1: per-byte redo order is still
// exact because same-region appends are serialized by the region lock, so
// sequence order equals memory write order for any byte.  The phases
// accumulate across ErrLogFull retries, so they partition the commit's
// latency up to its force.
func (t *Tx) commit(lazy bool, flags uint8, t0 time.Time) error {
	e := t.eng
	p := &e.pipe
	clk := phaseClock{on: e.met != nil, t: t0}
	var lockNs, encodeNs, pipeNs, appendNs, forceNs, fsyncNs int64
	var saved, nbytes, spoolBytes int64
	var led bool
	var seq uint64
	for attempt := 0; ; attempt++ {
		// Ranges are rebuilt per attempt: they alias region memory, which
		// is only stable while the region locks are held.
		t.lockRegions()
		lockNs += clk.lap()
		ranges, pages, logged, sv := t.buildRanges(lazy)
		encodeNs += clk.lap()
		p.mu.Lock()
		pipeNs += clk.lap()
		var err error
		var need int64
		if lazy {
			e.spoolPipeLocked(&spooled{tid: t.id, flags: flags, ranges: ranges, pages: pages, bytes: logged})
			spoolBytes, nbytes = p.spoolBytes, logged
			t.markDirtyPipeLocked(nil, 0, 0) // dirty bits only; queue entries at flush
		} else {
			err = e.drainSpoolPipeLocked() // older commits reach the log first
			if err != nil && len(p.spool) > 0 {
				// It is the oldest spooled commit that found no room.
				need = wal.EncodedLen(p.spool[0].ranges)
			}
			var pos int64
			if err == nil {
				pos, seq, nbytes, err = e.appendPipeLocked(t.id, flags, ranges)
			}
			if err == nil {
				// Dirty bits and page enqueues happen in the same critical
				// section as the append, so the truncation queue keeps log
				// order.  The pages cannot be written out before the force
				// completes: this transaction holds their uncommitted
				// reference counts until finish, and epoch truncation forces
				// the log before applying records.
				t.markDirtyPipeLocked(pages, pos, seq)
			}
		}
		p.mu.Unlock()
		appendNs += clk.lap()
		if err == nil {
			saved = sv
		} else if need == 0 {
			need = wal.EncodedLen(ranges)
		}
		if lazy {
			// The spool's page references (taken just above) now keep
			// truncation off these pages, so the transaction's own can go
			// while the region locks are still held; finish releases them.
			t.finish(true)
			break
		}
		t.unlockRegions()
		if err == nil {
			break
		}
		if err = e.retryLogFull(err, attempt, need, false, ""); err != nil {
			// A storage fault poisons the engine and abandons the
			// transaction; a logical failure (log full) leaves it live for
			// the caller to retry or abort.
			err = e.maybePoison(err)
			t.abandonIfPoisoned(err)
			return err
		}
		appendNs += clk.lap() // making room is part of getting the record in
	}
	if !lazy {
		// A force that fails past the transient retries leaves the device
		// state unknowable, so it has poisoned the engine rather than risk
		// acknowledging on a log it cannot trust.
		var err error
		if led, fsyncNs, err = e.force(seq); err != nil {
			t.abandonIfPoisoned(err)
			return err
		}
		forceNs = clk.lap()
		if !e.opts.GroupCommit {
			// Direct path: the force wait is the fsync (plus retryIO's
			// negligible bookkeeping).
			fsyncNs = forceNs
		}
		t.finish(false)
	}
	e.stats.IntraSavedBytes.Add(uint64(saved))
	if lazy {
		e.stats.NoFlushCommits.Add(1)
		if limit := e.opts.SpoolLimit; limit > 0 && spoolBytes > limit {
			// Implicit flush: the spool is full.  Persistence stays "bounded
			// by the period between log flushes" (§4.2) — this just bounds
			// the period by memory as well as by time.
			if err := e.flushSpool(false); err != nil {
				return e.maybePoison(err)
			}
		}
	} else {
		e.stats.FlushCommits.Add(1)
	}
	trigger := e.shouldAutoTruncate()
	if !t0.IsZero() {
		// Force-wait is observed only when a force ran: a lazy commit's
		// durability is the later Flush's, timed there.
		if lazy {
			e.met.ObserveCommitFront(lockNs, encodeNs, pipeNs, appendNs)
			e.met.ObserveCommitNoFlush(time.Since(t0).Nanoseconds())
			e.tr.SpanSince(obs.EvCommitNoFlush, t0, t.id, uint64(nbytes), 0)
		} else {
			e.met.ObserveCommitPhases(lockNs, encodeNs, pipeNs, appendNs, forceNs, fsyncNs, e.opts.GroupCommit, led)
			e.met.ObserveCommitFlush(time.Since(t0).Nanoseconds())
			e.tr.SpanSince(obs.EvCommitFlush, t0, t.id, uint64(nbytes), seq)
		}
	}
	if trigger {
		go e.autoTruncate()
	}
	return nil
}

// force makes the log durable through seq: the group-commit ticket protocol
// when enabled, a direct force otherwise.  It returns whether this
// committer ran the force itself and the fsync time of a force it led; the
// direct path leaves timing the fsync to the caller, whose whole force wait
// it is.
func (e *Engine) force(seq uint64) (led bool, fsyncNs int64, err error) {
	if e.opts.GroupCommit {
		return e.waitForced(seq)
	}
	return true, 0, e.maybePoison(e.retryIO(e.log.Force))
}

// abandonIfPoisoned resolves a transaction whose commit just poisoned the
// engine: it can never commit, and leaving it active would wedge Close
// behind ErrActiveTx.  Logical failures (log full) keep the transaction
// alive so the caller can retry or abort.
func (t *Tx) abandonIfPoisoned(err error) {
	if errors.Is(err, ErrPoisoned) {
		t.finish(false)
	}
}

// markDirtyPipeLocked marks dirty the pages of the transaction's regions;
// when queue position info is supplied (flush path) the supplied pages are
// also enqueued for incremental truncation.  Caller holds e.pipe.mu — the
// dirty bits are atomic, but setting them inside the pipeline section keeps
// them consistent with the spool/queue state that epoch completion reads.
func (t *Tx) markDirtyPipeLocked(pages []pagevec.PageID, pos int64, seq uint64) {
	for i := range t.regions {
		r := t.regions[i].region
		t.regions[i].eachPage(func(p int64) { r.pvec.SetDirty(int(p)) })
	}
	for _, id := range pages {
		t.eng.enqueuePagePipeLocked(id, pos, seq)
	}
}

// enqueuePagePipeLocked records a page's log reference in the FIFO queue,
// honouring the no-duplicates rule and the epoch-promotion rule.  Caller
// holds e.pipe.mu.
func (e *Engine) enqueuePagePipeLocked(id pagevec.PageID, pos int64, seq uint64) {
	p := &e.pipe
	if p.queue.Push(id, pos, seq) || p.epochEndSeq == 0 {
		return // newly queued, or already queued and noting its newest reference
	}
	if d, _ := p.queue.Get(id); d.Seq < p.epochEndSeq {
		// Queued at a reference inside an epoch being truncated right now:
		// the earliest *surviving* reference is this record.
		p.queue.Promote(id, pos, seq)
	}
}

// appendPipeLocked appends the transaction's record to the log, retrying
// transient faults.  Caller holds e.pipe.mu, which is what serializes
// commit order into the log.
func (e *Engine) appendPipeLocked(tid uint64, flags uint8, ranges []wal.Range) (pos int64, seq uint64, n int64, err error) {
	err = e.retryIO(func() error {
		var aerr error
		pos, seq, n, aerr = e.log.Append(tid, flags, ranges)
		return aerr
	})
	return pos, seq, n, err
}

// UndoRecord is an old-value record returned by CommitUndo: the bytes that
// [Off, Off+len(Old)) of Region held before the transaction modified them.
// SegID and SegOff give the segment-space address of the same bytes, for
// callers that persist the records across process restarts.
type UndoRecord struct {
	Region *Region
	Off    int64 // region-relative
	SegID  uint64
	SegOff int64 // segment-space
	Old    []byte
}

// CommitUndo commits the transaction like Commit, additionally returning
// its old-value records.  This is the extension sketched in §8 of the
// paper for layering distributed transactions on RVM: a subordinate keeps
// the records until the two-phase-commit outcome is known, discards them
// on global commit, and uses them to construct a compensating RVM
// transaction on global abort.
//
// Records are returned in capture order; a compensating transaction must
// apply them newest-first (iterate in reverse).  Only Restore transactions
// carry old values, so CommitUndo fails on a NoRestore transaction.
func (t *Tx) CommitUndo(mode CommitMode) ([]UndoRecord, error) {
	if t.done {
		return nil, ErrTxDone
	}
	if t.mode != Restore {
		return nil, fmt.Errorf("rvm: CommitUndo requires a restore-mode transaction")
	}
	var undo []UndoRecord
	for i := range t.regions {
		tr := t.regions[i]
		r := tr.region
		for _, ov := range tr.old {
			undo = append(undo, UndoRecord{
				Region: r, Off: ov.off,
				SegID: r.seg.ID(), SegOff: r.segOff + ov.off,
				Old: ov.data,
			})
		}
	}
	if err := t.Commit(mode); err != nil {
		return nil, err
	}
	return undo, nil
}

// Abort undoes the transaction by restoring the old values of its ranges
// (paper §4.2 abort_transaction).  No-restore transactions cannot abort.
func (t *Tx) Abort() error {
	if t.done {
		return ErrTxDone
	}
	if t.mode == NoRestore {
		return ErrNoRestoreAbort
	}
	e := t.eng
	if e.closed.Load() {
		return ErrClosed
	}
	t.lockRegions()
	for i := range t.regions {
		tr := t.regions[i]
		r := tr.region
		for _, ov := range tr.old {
			copy(r.data[ov.off:], ov.data)
		}
	}
	t.finish(true)
	e.stats.Aborts.Add(1)
	e.tr.Record(obs.EvTxAbort, t.id, 0, 0)
	return nil
}
