package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
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

// txShards returns the distinct WAL shards the transaction's regions log
// through, in ascending shard order — the order every cross-shard phase
// visits them in.  A one-shard engine has only one answer.
func (t *Tx) txShards() []*shard {
	if len(t.eng.shards) == 1 {
		return t.eng.shards
	}
	var shs []*shard
	for i := range t.regions {
		if sh := t.regions[i].region.sh; !slices.Contains(shs, sh) {
			shs = append(shs, sh)
		}
	}
	slices.SortFunc(shs, func(a, b *shard) int { return a.idx - b.idx })
	return shs
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

// buildRanges reads the current (new) values of the ranges the transaction
// logs through shard sh — all of them, unless the commit is cross-shard —
// from region memory.  When copyData is true the data is duplicated into
// one buffer (needed for spooling, where memory keeps changing after
// commit); otherwise the ranges alias region memory, which the caller must
// keep locked until the log consumes them.  It also returns the pages
// behind the ranges, their log cost, and the intra-transaction savings for
// the caller to account once the commit actually succeeds.
func (t *Tx) buildRanges(sh *shard, copyData bool) (ranges []wal.Range, pages []pagevec.PageID, logged, saved int64) {
	var nranges, npages int
	var nbytes, naive int64
	for i := range t.regions {
		tr := t.regions[i]
		if tr.region.sh != sh {
			continue
		}
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
		if r.sh != sh {
			continue
		}
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
// mode (paper §4.2 end_transaction).  A transaction whose regions span
// several WAL shards is always durable when Commit returns, so a cross-shard
// NoFlush commit is silently upgraded to flush semantics — spooling one
// shard's half of an atomic commit would let a crash split it.
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
	shs := t.txShards()
	lazy := mode == NoFlush && len(shs) == 1
	var flags uint8
	if t.mode == NoRestore {
		flags |= flagNoRestore
	}
	if lazy {
		flags |= flagNoFlush
	}
	return t.commit(shs, lazy, flags, t0)
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

// commit is the one commit path: put the transaction's records in the log
// of every participating shard (shs, ascending), in order, then make them
// durable (DESIGN.md §15).  It takes only the locks of the regions the
// transaction touched plus each participant's pipeline lock for the append;
// the forces run with no lock at all.  A commit is staged:
//
//  1. Under the region locks, each shard gets its share of the ranges in
//     one pipeline section.  A lazy commit copies them into the shard's
//     spool and is done.  Otherwise the spool is drained ahead of it and
//     one record is appended: the transaction record, or — with several
//     participants — a prepare, registered in-doubt on the shard so epoch
//     truncation never separates it from its commit mark.
//  2. Force every participant (in parallel), holding no lock.  For a single
//     shard this is the acknowledgement point.
//  3. Several participants only: once all of the transaction's data is
//     durable everywhere, every participant gets a commit mark carrying the
//     TID, and the marks are forced.  The first durable mark is the commit
//     point — recovery unions the marks of all shards, so one surviving
//     mark commits the transaction everywhere and a prepare no mark
//     confirms is discarded on every shard.
//
// Region locks are released after stage 1: per-byte redo order is still
// exact because same-region appends are serialized by the region lock, so
// within each shard's log sequence order equals memory write order for any
// byte.  failCommit and appendMarks say what a failure leaves behind.  The
// phases accumulate across ErrLogFull retries, so they partition the
// commit's latency up to its last force.
func (t *Tx) commit(shs []*shard, lazy bool, flags uint8, t0 time.Time) error {
	e := t.eng
	cross := len(shs) > 1
	clk := phaseClock{on: e.met != nil, t: t0}
	var lockNs, encodeNs, pipeNs, appendNs, forceNs, fsyncNs int64
	var saved, nbytes, spoolBytes int64
	var led bool
	// One log sequence number per participant: the prepares', then the
	// marks'.  Two fit inline so the common shapes allocate nothing here.
	var seqBuf [2]uint64
	seqs := append(seqBuf[:0], make([]uint64, len(shs))...)
	for attempt := 0; ; attempt++ {
		// Ranges are rebuilt per attempt: they alias region memory, which
		// is only stable while the region locks are held.
		t.lockRegions()
		lockNs += clk.lap()
		saved, nbytes = 0, 0
		var err error
		var full *shard
		var need int64
		for gi, sh := range shs {
			ranges, pages, logged, sv := t.buildRanges(sh, lazy)
			encodeNs += clk.lap()
			p := &sh.pipe
			p.mu.Lock()
			pipeNs += clk.lap()
			if lazy {
				e.spoolPipeLocked(sh, &spooled{tid: t.id, flags: flags, ranges: ranges, pages: pages, bytes: logged})
				spoolBytes, nbytes = p.spoolBytes, logged
				t.markDirtyPipeLocked(sh, nil, 0, 0) // dirty bits only; queue entries at flush
			} else {
				err = e.drainSpoolPipeLocked(sh) // older commits reach the log first
				if err != nil && len(p.spool) > 0 {
					// It is the oldest spooled commit that found no room.
					need = wal.EncodedLen(p.spool[0].ranges)
				}
				var pos, nb int64
				var seq uint64
				if err == nil {
					pos, seq, nb, err = e.appendPipeLocked(sh, cross, t.id, flags, ranges)
				}
				if err == nil {
					if cross {
						// Keep the seq of the *first* prepare across ErrLogFull
						// retries: an earlier attempt's orphaned prepare must
						// stay inside the same truncation epoch as the final
						// commit mark, or epoch replay would see it unpaired.
						if p.inDoubt[t.id] == nil {
							p.inDoubt[t.id] = &inDoubtTx{prepSeq: seq}
						}
					}
					// Dirty bits and page enqueues happen in the same
					// critical section as the append, so the truncation
					// queue keeps log order.  The pages cannot be written
					// out before the force completes: this transaction holds
					// their uncommitted reference counts until finish, and
					// epoch truncation forces the log before applying records.
					t.markDirtyPipeLocked(sh, pages, pos, seq)
					seqs[gi] = seq
					nbytes += nb
				}
			}
			p.mu.Unlock()
			appendNs += clk.lap()
			if err != nil {
				full = sh
				if need == 0 {
					need = wal.EncodedLen(ranges)
				}
				break
			}
			saved += sv
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
		if err = e.retryLogFull(full, err, attempt, need, false, ""); err != nil {
			return t.failCommit(shs, err)
		}
		appendNs += clk.lap() // making room is part of getting the record in
	}
	if !lazy {
		// A force that fails past the transient retries leaves the device
		// state unknowable, so it has poisoned the engine rather than risk
		// acknowledging on a log it cannot trust.
		for round := 0; ; round++ {
			l, ns, err := t.forceShards(shs, seqs)
			if err != nil {
				t.abandonIfPoisoned(err)
				return err
			}
			led, fsyncNs = led || l, fsyncNs+ns
			if !cross || round == 1 {
				break
			}
			if err := t.appendMarks(shs, seqs); err != nil {
				return err
			}
		}
		forceNs = clk.lap()
		if !e.opts.GroupCommit {
			// Direct path: the force wait is the fsync (plus retryIO's
			// negligible bookkeeping).
			fsyncNs = forceNs
		}
		t.finish(false)
	}
	for _, sh := range shs {
		sh.commits.Add(1)
	}
	e.stats.IntraSavedBytes.Add(uint64(saved))
	if cross {
		e.stats.CrossShardCommits.Add(1)
	}
	if lazy {
		e.stats.NoFlushCommits.Add(1)
		if limit := e.opts.SpoolLimit; limit > 0 && spoolBytes > limit {
			// Implicit flush: this shard's spool is full.  Persistence stays
			// "bounded by the period between log flushes" (§4.2) — this
			// just bounds the period by memory as well as by time.
			if err := e.flushSpool(shs[0], false); err != nil {
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
			e.tr.SpanSince(obs.EvCommitFlush, t0, t.id, uint64(nbytes), seqs[len(seqs)-1])
		}
	}
	if trigger {
		go e.autoTruncate()
	}
	return nil
}

// failCommit ends a commit that failed before any commit mark existed.  A
// storage fault poisons the engine and abandons the transaction; a logical
// failure (log full) leaves it live for the caller to retry or abort.  A
// cross-shard transaction's durable prepares are then orphans that can never
// gain a mark: its in-doubt entries go, so truncation stops fencing epochs
// on them (epoch replay and recovery both discard unconfirmed prepares).
func (t *Tx) failCommit(shs []*shard, err error) error {
	err = t.eng.maybePoison(err)
	if len(shs) > 1 && !errors.Is(err, ErrPoisoned) {
		for _, sh := range shs {
			sh.pipe.mu.Lock()
			delete(sh.pipe.inDoubt, t.id)
			sh.pipe.mu.Unlock()
		}
	}
	t.abandonIfPoisoned(err)
	return err
}

// appendMarks appends the transaction's commit mark to every participant,
// ascending, leaving each mark's seq in seqs.  Marks go on every
// participant so each shard's log is self-contained for truncation.
func (t *Tx) appendMarks(shs []*shard, seqs []uint64) error {
	e := t.eng
	for gi, sh := range shs {
		p := &sh.pipe
		p.mu.Lock()
		var seq uint64
		err := e.retryIO(func() error {
			var aerr error
			_, seq, _, aerr = sh.log.AppendCommitMark(t.id)
			return aerr
		})
		if err == nil {
			if d := p.inDoubt[t.id]; d != nil {
				d.cmtSeq = seq
			}
			seqs[gi] = seq
		}
		p.mu.Unlock()
		if err == nil {
			continue
		}
		if gi == 0 {
			return t.failCommit(shs, err) // no mark exists anywhere
		}
		// A mark is already in some shard's log (and may reach its device
		// at any moment), but the rest cannot be written: the outcome is
		// undecidable at runtime.  Fail stop; the next recovery decides it
		// consistently from the surviving marks.
		err = e.poison(fmt.Errorf("rvm: cross-shard commit %d: mark write failed on shard %d after %d mark(s): %w",
			t.id, sh.idx, gi, err))
		t.abandonIfPoisoned(err)
		return err
	}
	return nil
}

// forceShards makes every shard's log durable through the given seq (one
// per shard, parallel across shards): group-commit tickets when enabled,
// direct forces otherwise.  It returns whether any force was self-led and
// the summed leader fsync time; the first error wins.
func (t *Tx) forceShards(shs []*shard, seqs []uint64) (led bool, fsyncNs int64, err error) {
	if len(shs) == 1 {
		return t.forceOne(shs[0], seqs[0])
	}
	var wg sync.WaitGroup
	results := make([]struct {
		led     bool
		fsyncNs int64
		err     error
	}, len(shs))
	for i := range shs {
		wg.Add(1)
		// By value: seqs may live on the caller's stack.
		go func(i int, sh *shard, seq uint64) {
			defer wg.Done()
			results[i].led, results[i].fsyncNs, results[i].err = t.forceOne(sh, seq)
		}(i, shs[i], seqs[i])
	}
	wg.Wait()
	for _, r := range results {
		led = led || r.led
		fsyncNs += r.fsyncNs
		if err == nil {
			err = r.err
		}
	}
	return led, fsyncNs, err
}

// forceOne forces one shard's log through seq, via its group-commit
// ticket protocol when enabled.  The direct path leaves timing the fsync
// to the caller, whose whole force wait it is.
func (t *Tx) forceOne(sh *shard, seq uint64) (led bool, fsyncNs int64, err error) {
	e := t.eng
	if e.opts.GroupCommit {
		return e.waitForced(sh, seq)
	}
	return true, 0, e.maybePoison(e.retryIO(sh.log.Force))
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

// markDirtyPipeLocked marks dirty the pages of the transaction's regions on
// shard sh; when queue position info is supplied (flush path) the supplied
// pages are also enqueued for incremental truncation on the shard.  Caller
// holds sh.pipe.mu — the dirty bits are atomic, but setting them inside the
// pipeline section keeps them consistent with the spool/queue state that
// epoch completion reads.
func (t *Tx) markDirtyPipeLocked(sh *shard, pages []pagevec.PageID, pos int64, seq uint64) {
	for i := range t.regions {
		if r := t.regions[i].region; r.sh == sh {
			t.regions[i].eachPage(func(p int64) { r.pvec.SetDirty(int(p)) })
		}
	}
	for _, id := range pages {
		t.eng.enqueuePagePipeLocked(sh, id, pos, seq)
	}
}

// enqueuePagePipeLocked records a page's log reference in the shard's
// FIFO queue, honouring the no-duplicates rule and the epoch-promotion
// rule.  Caller holds sh.pipe.mu.
func (e *Engine) enqueuePagePipeLocked(sh *shard, id pagevec.PageID, pos int64, seq uint64) {
	p := &sh.pipe
	if p.queue.Push(id, pos, seq) || p.epochEndSeq == 0 {
		return // newly queued, or already queued and noting its newest reference
	}
	if d, _ := p.queue.Get(id); d.Seq < p.epochEndSeq {
		// Queued at a reference inside an epoch being truncated right now:
		// the earliest *surviving* reference is this record.
		p.queue.Promote(id, pos, seq)
	}
}

// appendPipeLocked appends the transaction's record — a prepare when the
// commit has several participants — to the shard's log, retrying transient
// faults.  Caller holds sh.pipe.mu, which is what serializes commit order
// into that log.
func (e *Engine) appendPipeLocked(sh *shard, prepare bool, tid uint64, flags uint8, ranges []wal.Range) (pos int64, seq uint64, n int64, err error) {
	err = e.retryIO(func() error {
		var aerr error
		if prepare {
			pos, seq, n, aerr = sh.log.AppendPrepare(tid, flags, ranges)
		} else {
			pos, seq, n, aerr = sh.log.Append(tid, flags, ranges)
		}
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
