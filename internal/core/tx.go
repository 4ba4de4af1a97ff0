package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
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
	// set-range so it can undo changes.  The copies also let the commit log
	// of each span only the part from the first to the last 8-byte word the
	// transaction changed (Tx.buildRanges).
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
// buf[:0].  The span slice is spliced in place: spans[i:j], the spans the
// new one overlaps or touches, are replaced by their union with it, so a
// warm set adds no allocations beyond the amortized growth of the backing
// array.
func (s *rangeset) add(off, end int64, buf []span) []span {
	i := sort.Search(len(s.spans), func(i int) bool { return s.spans[i].end >= off })
	added, pos, j := buf[:0], off, i
	for ; j < len(s.spans) && s.spans[j].off <= end; j++ {
		if s.spans[j].off > pos {
			added = append(added, span{pos, s.spans[j].off})
		}
		pos = max(pos, s.spans[j].end)
	}
	if pos < end {
		added = append(added, span{pos, end})
	}
	if i == j {
		s.spans = append(s.spans, span{})
		copy(s.spans[i+1:], s.spans[i:])
	} else {
		off, end = min(off, s.spans[i].off), max(end, s.spans[j-1].end)
		s.spans = append(s.spans[:i+1], s.spans[j:]...)
	}
	s.spans[i] = span{off, end}
	return added
}

// txRegion is a transaction's bookkeeping for one region.
type txRegion struct {
	region *Region
	set    rangeset   // coalesced coverage: what the transaction logs
	old    []oldValue // old values for newly covered bytes (restore mode)
	pages  rangeset   // pages referenced by this tx in this region, in page units
	naive  int64      // log bytes set-ranges would cost unoptimized
	ends   uint64     // region.ends at the first touch
	// First backing arrays of set.spans, pages.spans and old: a region
	// with up to four ranges on as many pages, two of them captured,
	// allocates nothing.
	spanBuf [4]span
	pageBuf [4]span
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
//
// A Tx is a small handle that is never recycled: a caller holding one past
// Commit must keep seeing ErrTxDone.  Its books are recycled: finish hands
// them back to the engine, so that a Begin allocates only the handle.
type Tx struct {
	eng      *Engine
	id       uint64
	mode     TxMode
	done     bool
	*txBooks // nil once the transaction is done
}

// txBooks is a transaction's bookkeeping: what a Begin would otherwise
// allocate and zero, so the engine recycles it (Engine.books).
type txBooks struct {
	// regions is the bookkeeping of every region touched, ascending by
	// region index — both the lock-acquisition order and the deterministic
	// log order.  The first region's books are regBuf, further regions'
	// are more[0], more[1], ...: each kept, once allocated, for the next
	// transaction.
	regions []*txRegion
	regPtrs [4]*txRegion
	regBuf  txRegion
	more    []*txRegion
	oldData []byte // old values are captured into one growing buffer
}

// maxOldRetain bounds the old-value buffer a recycled transaction keeps.
const maxOldRetain = 64 << 10

// Begin starts a transaction (paper §4.2 begin_transaction).  It takes no
// lock: the transaction count, the ID source and the slots of recycled
// books are atomics.  The increment-then-check order pairs with Close's
// publish-closed-then-read-active so a Begin can never slip into a closing
// engine unobserved.
func (e *Engine) Begin(mode TxMode) (*Tx, error) {
	if mode != Restore && mode != NoRestore {
		return nil, fmt.Errorf("rvm: unknown transaction mode %d", int(mode))
	}
	e.active.Add(1)
	if err := e.check(); err != nil {
		e.active.Add(-1)
		return nil, err
	}
	var b *txBooks
	for i := range e.books {
		if e.books[i].Load() != nil {
			if b = e.books[i].Swap(nil); b != nil {
				break
			}
		}
	}
	if b == nil {
		b = new(txBooks)
	}
	b.regions = b.regPtrs[:0]
	t := &Tx{eng: e, id: e.nextTID.Add(1) - 1, mode: mode, txBooks: b}
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
	if n < 0 || off < 0 || n > r.length-off {
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
	if !r.mapped || r.eng != e {
		return ErrRegionUnmapped
	}
	tr := t.txRegionLocked(r)
	e.stats.SetRanges.Add(1)
	tr.naive += wal.RangeLen(r.seg.ID(), uint64(r.segOff+off), n)

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
// index order on first touch.  Caller holds r.mu (for nTx and ends).
func (t *Tx) txRegionLocked(r *Region) *txRegion {
	i := len(t.regions)
	for i > 0 && t.regions[i-1].region.idx >= r.idx {
		i--
	}
	if i == len(t.regions) || t.regions[i].region != r {
		tr := &t.regBuf
		if n := len(t.regions); n > 0 {
			if n > len(t.more) {
				t.more = append(t.more, new(txRegion))
			}
			tr = t.more[n-1]
		}
		tr.region, tr.set.spans, tr.pages.spans, tr.old = r, tr.spanBuf[:0], tr.pageBuf[:0], tr.oldBuf[:0]
		tr.ends = r.ends
		t.regions = slices.Insert(t.regions, i, tr)
		r.nTx++
	}
	return t.regions[i]
}

// refPages increments uncommitted reference counts for pages of [off,end)
// not yet referenced by this transaction in this region.  Caller holds the
// region's lock.
func (tr *txRegion) refPages(off, end int64) {
	ps := int64(mapping.PageSize)
	var buf [1]span
	for _, sp := range tr.pages.add(off/ps, (end-1)/ps+1, buf[:0]) {
		for p := sp.off; p < sp.end; p++ {
			tr.region.refs[p]++
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

// finish releases per-region bookkeeping common to commit and abort, and
// with it the region locks, which the caller holds.  The books go back to
// the engine, emptied.  The transaction stays counted in e.active: its
// caller ends it there once nothing is left to wait for.
func (t *Tx) finish() {
	e := t.eng
	b := t.txBooks
	for _, tr := range b.regions {
		r := tr.region
		tr.eachPage(func(p int64) { r.refs[p]-- })
		r.nTx--
		r.mu.Unlock()
		*tr = txRegion{}
	}
	t.done, t.txBooks = true, nil
	clear(b.regPtrs[:])
	b.regions = nil
	if b.oldData = b.oldData[:0]; cap(b.oldData) > maxOldRetain {
		b.oldData = nil
	}
	for i := range e.books {
		if e.books[i].CompareAndSwap(nil, b) {
			break
		}
	}
}

// buildRanges appends the transaction's ranges to ranges and the pages
// behind them to pages.  The ranges alias region memory, which the caller
// must keep locked until the log or the spool has consumed them.  It also
// returns their log cost, the intra-transaction savings and what the diff
// left out, for the caller to account once the commit actually succeeds.
//
// A restore transaction logs of each coalesced span only the words it
// changed (changedSpan), unless another transaction committed or aborted
// over the region since this one first touched it: then the old values
// may no longer be what the log holds, and the spans go whole.
func (t *Tx) buildRanges(ranges []wal.Range, pages []pagevec.PageID) (_ []wal.Range, _ []pagevec.PageID, logged, intra, diff int64) {
	var naive, whole int64
	for _, tr := range t.regions {
		r := tr.region
		seg := r.seg.ID()
		old := tr.old
		if t.mode != Restore || r.ends != tr.ends {
			old = nil
		} else if !slices.IsSortedFunc(old, byOff) {
			slices.SortFunc(old, byOff) // captures are disjoint: any order restores
		}
		for _, sp := range tr.set.spans {
			cost := wal.RangeLen(seg, uint64(r.segOff+sp.off), sp.end-sp.off)
			whole += cost
			if old != nil {
				// The captures that tile sp come next in old.
				n := 0
				for at := sp.off; at < sp.end; n++ {
					at += int64(len(old[n].data))
				}
				ch := r.changedSpan(sp, old[:n])
				old = old[n:]
				if ch.off == ch.end {
					continue
				}
				// A range moved past a short header's offset could cost
				// more than the span whole; then the span goes whole.
				if c := wal.RangeLen(seg, uint64(r.segOff+ch.off), ch.end-ch.off); c <= cost {
					sp, cost = ch, c
				}
			}
			ranges, logged = append(ranges, r.wholeRange(sp)), logged+cost
		}
		tr.eachPage(func(p int64) { pages = append(pages, pagevec.PageID{Region: r.idx, Page: p}) })
		naive += tr.naive
	}
	// Exact intra-transaction savings: what verbatim logging of every
	// set-range call would have cost minus the coalesced spans.  Short
	// set-ranges that merge into a span of 64 KiB or more take a wide range
	// header, so this can be a few bytes below zero.
	return ranges, pages, logged, naive - whole, whole - logged
}

func byOff(a, b oldValue) int { return cmp.Compare(a.off, b.off) }

// wholeRange is span sp of r as one range.
func (r *Region) wholeRange(sp span) wal.Range {
	return wal.Range{Seg: r.seg.ID(), Off: uint64(r.segOff + sp.off), Data: r.data[sp.off:sp.end]}
}

// changedSpan returns the part of span sp that differs from old, the
// captures that tile it in offset order: from the first changed unit to the
// last, or an empty span if nothing changed.  The unit compared is an
// 8-byte word of the segment-offset grid (a region starts on a page
// boundary, so the region-offset grid is the same), or the partial word at
// either end of sp: a word of random data matches its old value once in
// 2^64 tries, where a byte at a span's edge would once in 256.  An
// unchanged run inside the span is logged with it.
//
// An unchanged word needs no log record because the old value is what the
// log, the spool or the segment already holds for it (DESIGN.md §8):
// SetRange precedes the store, and buildRanges diffs only while no other
// transaction has ended over the region.  Caller holds r.mu.
func (r *Region) changedSpan(sp span, old []oldValue) span {
	lo, k := int64(-1), 0 // the first changed byte, in old[k]
	for ; k < len(old); k++ {
		c := old[k]
		if i := firstDiff(r.data[c.off:c.off+int64(len(c.data))], c.data); i >= 0 {
			lo = c.off + int64(i)
			break
		}
	}
	if lo < 0 {
		return span{}
	}
	// The span ends with the unit of the last changed byte.  Most often
	// that is lo's own, and one comparison of what follows shows it.
	hi := min(sp.end, lo&^7+8)
	for j := len(old) - 1; j >= k && old[j].off+int64(len(old[j].data)) > hi; j-- {
		c := old[j]
		from := max(hi-c.off, 0)
		if i := lastDiff(r.data[c.off+from:c.off+int64(len(c.data))], c.data[from:]); i >= 0 {
			hi = min(sp.end, (c.off+from+int64(i))&^7+8)
			break
		}
	}
	return span{max(sp.off, lo&^7), hi}
}

// firstDiff returns the index of the first byte in which a and b, of equal
// length, differ, or -1 if they are equal.
func firstDiff(a, b []byte) int {
	if len(a) >= 8 {
		if x := binary.LittleEndian.Uint64(a) ^ binary.LittleEndian.Uint64(b); x != 0 {
			return bits.TrailingZeros64(x) / 8
		}
	}
	if string(a) == string(b) {
		return -1
	}
	i := 0
	for ; i+8 <= len(a); i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for ; i < len(a); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// lastDiff returns the index of the last byte in which a and b, of equal
// length, differ, or -1 if they are equal.
func lastDiff(a, b []byte) int {
	if string(a) == string(b) {
		return -1
	}
	i := len(a)
	for ; i >= 8; i -= 8 {
		if x := binary.LittleEndian.Uint64(a[i-8:]) ^ binary.LittleEndian.Uint64(b[i-8:]); x != 0 {
			return i - 1 - bits.LeadingZeros64(x)/8
		}
	}
	for i--; i >= 0; i-- {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
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
		t.lockRegions()
		t.finish()
		e.active.Add(-1)
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
	on   bool
	t    time.Time
	last time.Duration // since t, at the previous lap
}

// lap returns the nanoseconds since the previous lap.  time.Since reads
// only the monotonic clock, about half the price of a time.Now.
func (c *phaseClock) lap() int64 {
	if !c.on {
		return 0
	}
	now := time.Since(c.t)
	d := now - c.last
	c.last = now
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
//     appended; so too for a lazy commit the spool cannot take (it is
//     larger than the spool's limit, or the spool is past it), which the
//     implicit flush then forces.
//  2. Force the log, holding no lock.  This is the acknowledgement point.
//     The transaction let go of its pages in stage 1, but it ends (leaves
//     e.active) only here.
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
	var intra, diff, nbytes, spoolBytes int64
	var led, inSpool bool
	var drained, own appended // the last attempt's records, traced once it holds no lock
	var rangeBuf [4]wal.Range // what a transaction of a few ranges builds in
	var pageBuf [8]pagevec.PageID
	var tries appendTries
	for {
		// Ranges are rebuilt per attempt: they alias region memory, which
		// is only stable while the region locks are held.
		t.lockRegions()
		lockNs += clk.lap()
		ranges, pages, logged, in, df := t.buildRanges(rangeBuf[:0], pageBuf[:0])
		encodeNs += clk.lap()
		p.mu.Lock()
		pipeNs += clk.lap()
		var err error
		var need int64
		drained, own = appended{}, appended{}
		// A no-flush commit is spooled unless a drain could then outgrow
		// the log: the spool never holds more than two limits' worth.
		if inSpool = lazy && logged <= e.spoolLimit && p.spoolBytes <= e.spoolLimit; inSpool {
			// The copy is cut from the spool's memory, which pipe.mu guards.
			e.spoolPipeLocked(p.mem.clone(&spooled{tid: t.id, flags: flags, ranges: ranges, pages: pages, bytes: logged}))
			spoolBytes, nbytes = p.spoolBytes, logged
		} else {
			drained, need, err = e.drainSpoolPipeLocked() // older commits reach the log first
			if err == nil {
				own, err = e.appendPipeLocked(t.id, flags, ranges)
				nbytes = own.n
			}
			if err == nil {
				// The pages are enqueued in the same critical section as the
				// append, so the truncation queue keeps log order.  They
				// cannot be written out before the record is forced: the
				// cleaner forces the log before it writes a page queued at an
				// unforced record, and epoch truncation forces the log before
				// applying records.
				for _, id := range pages {
					e.enqueuePagePipeLocked(id, own.pos, own.seq)
				}
			}
		}
		p.mu.Unlock()
		appendNs += clk.lap()
		if err == nil {
			intra, diff = in, df
			for _, tr := range t.regions {
				tr.region.ends++
			}
			// The spool's page references (taken just above), or the queue
			// entries at a record the cleaner forces before it writes a page,
			// now keep truncation off these pages, so the transaction's own
			// references go here, whichever the commit mode, while the region
			// locks are still held; finish releases the locks.  Only an open
			// transaction pins a page: a flush commit in its force pins none.
			t.finish()
			break
		}
		if need == 0 {
			need = wal.EncodedLen(ranges)
		}
		t.unlockRegions()
		if drained.n > 0 { // the drain got in, the record behind it did not
			e.tr.Record(obs.EvLogAppend, drained.tid, uint64(drained.n), drained.seq)
		}
		if err = e.retryAppend(err, &tries, need, false, ""); err != nil {
			// A logical failure (log full) leaves the transaction live for
			// the caller to retry or abort.  A storage fault poisons the
			// engine and abandons the transaction, which could never commit
			// and would wedge Close behind ErrActiveTx.
			if err = e.maybePoison(err); !errors.Is(err, ErrPoisoned) {
				return err
			}
			t.lockRegions()
			t.finish()
			e.active.Add(-1)
			return err
		}
		appendNs += clk.lap() // making room, or backing off, is part of getting the record in
	}
	for _, rec := range [...]appended{drained, own} {
		if rec.n > 0 {
			e.tr.Record(obs.EvLogAppend, rec.tid, uint64(rec.n), rec.seq)
		}
	}
	var err error
	if !lazy {
		// A force that fails past the transient retries leaves the device
		// state unknowable, so it has poisoned the engine rather than risk
		// acknowledging on a log it cannot trust.
		led, fsyncNs, err = e.waitForced(own.seq, true)
		forceNs = clk.lap()
	}
	// The commit ends only here, so Close refuses an engine with a flush
	// commit still waiting on its force.
	e.active.Add(-1)
	if err != nil {
		return err
	}
	e.stats.IntraSavedBytes.Add(uint64(intra))
	e.stats.DiffSavedBytes.Add(uint64(diff))
	if lazy {
		e.stats.NoFlushCommits.Add(1)
		if !inSpool || spoolBytes > e.spoolLimit {
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
		// One clock reading feeds both sinks.  Force-wait is observed only
		// when a force ran: a lazy commit's is the later Flush's.
		ns := time.Since(t0).Nanoseconds()
		if lazy {
			e.met.ObserveCommitFront(lockNs, encodeNs, pipeNs, appendNs)
			e.met.ObserveCommitNoFlush(ns)
			e.tr.SpanFor(obs.EvCommitNoFlush, t0, ns, t.id, uint64(nbytes), 0)
		} else {
			e.met.ObserveCommitPhases(lockNs, encodeNs, pipeNs, appendNs, forceNs, fsyncNs, led)
			e.met.ObserveCommitFlush(ns)
			e.tr.SpanFor(obs.EvCommitFlush, t0, ns, t.id, uint64(nbytes), own.seq)
		}
	}
	if trigger {
		go e.autoTruncate()
	}
	return nil
}

// enqueuePagePipeLocked records a page's log reference in the FIFO queue,
// honouring the no-duplicates rule and the epoch-promotion rule.  The queue
// is the only record that a page with logged bytes is dirty, so a page the
// epoch in flight would otherwise drop must stay in it.  Caller holds
// e.pipe.mu.
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

// appendPipeLocked appends a record to the log.  A failed append leaves the
// log as it was; the caller retries it once it holds no lock (retryAppend).
// Caller holds e.pipe.mu, which is what serializes commit order into the
// log.
func (e *Engine) appendPipeLocked(tid uint64, flags uint8, ranges []wal.Range) (rec appended, err error) {
	rec.tid = tid
	rec.pos, rec.seq, rec.n, err = e.log.Append(tid, flags, ranges)
	return rec, err
}

// appended is a record in the log, traced once no lock is held (DESIGN.md §11).
type appended struct {
	tid, seq uint64
	pos, n   int64 // area offset; bytes taken, a wrap's included (0: none)
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
	// The records alias the buffer the old values were captured in, which
	// the transaction's books would hand to the next one.
	t.oldData = nil
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
		// The restored bytes are what this transaction saw, which another
		// one may have captured as its old values before they were restored.
		r.ends++
	}
	t.finish()
	e.active.Add(-1)
	e.stats.Aborts.Add(1)
	e.tr.Record(obs.EvTxAbort, t.id, 0, 0)
	return nil
}
