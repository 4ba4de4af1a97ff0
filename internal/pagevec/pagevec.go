// Package pagevec implements the two data structures behind RVM's
// incremental truncation (paper §5.1.2, Figure 7):
//
//   - a page Vector per mapped region, loosely analogous to a VM page
//     table: each entry holds a dirty bit and an uncommitted reference
//     count.  The count is incremented as set-ranges execute and
//     decremented on commit or abort; on commit the affected pages are
//     marked dirty.  To preserve the log's no-undo/redo property, a page
//     with a non-zero uncommitted reference count must never be written to
//     the recoverable data segment.
//
//   - a FIFO Queue of page-modification descriptors giving the order in
//     which dirty pages must be written out to move the log head.  Each
//     descriptor records the log position of the first live record
//     referencing its page, and the queue contains no duplicate page
//     references: a page appears only in the earliest descriptor in which
//     it could appear.
//
// The paper's per-entry "reserved" bit is an internal lock; here the
// Vector entries are atomics, so concurrent transactions on the same
// region can bump reference counts and dirty bits without a shared lock.
// Ordering between a reference-count check and the page write it guards
// is still the caller's job (the engine's region mutex provides it).  The
// Queue has no internal synchronization; the engine serializes access
// under its log-pipeline lock.
package pagevec

import (
	"fmt"
	"sync/atomic"
)

// Vector tracks per-page modification state for one mapped region.  All
// methods are safe for concurrent use.
type Vector struct {
	refs  []atomic.Int32
	dirty []atomic.Bool
	ndirt atomic.Int64
}

// New returns a Vector for a region of npages pages.
func New(npages int) *Vector {
	return &Vector{refs: make([]atomic.Int32, npages), dirty: make([]atomic.Bool, npages)}
}

// NumPages returns the region size in pages.
func (v *Vector) NumPages() int { return len(v.refs) }

// IncRef notes an uncommitted set-range reference to page.
func (v *Vector) IncRef(page int) { v.refs[page].Add(1) }

// DecRef drops an uncommitted reference on commit or abort.
func (v *Vector) DecRef(page int) {
	if v.refs[page].Add(-1) < 0 {
		panic(fmt.Sprintf("pagevec: DecRef on page %d with zero refs", page))
	}
}

// Refs returns the page's uncommitted reference count.
func (v *Vector) Refs(page int) int { return int(v.refs[page].Load()) }

// SetDirty marks a page as having committed changes not yet reflected to
// its external data segment.
func (v *Vector) SetDirty(page int) {
	if v.dirty[page].CompareAndSwap(false, true) {
		v.ndirt.Add(1)
	}
}

// ClearDirty marks the page clean after it is written to its segment.
func (v *Vector) ClearDirty(page int) {
	if v.dirty[page].CompareAndSwap(true, false) {
		v.ndirt.Add(-1)
	}
}

// IsDirty reports whether the page has unreflected committed changes.
func (v *Vector) IsDirty(page int) bool { return v.dirty[page].Load() }

// DirtyCount returns the number of dirty pages.
func (v *Vector) DirtyCount() int { return int(v.ndirt.Load()) }

// PageID names a page across all mapped regions.
type PageID struct {
	Region int   // engine-assigned region index
	Page   int64 // page index within the region
}

// Descriptor is one entry of the page-modification queue.
type Descriptor struct {
	ID  PageID
	Pos int64  // log-area offset of the first record referencing the page
	Seq uint64 // sequence number of that record
	// Last is the sequence number of the newest record referencing the
	// page: the page may reach its segment only once the log is durable
	// that far (the write-ahead rule).
	Last uint64
}

// Queue is the FIFO of page-modification descriptors.  The zero value is
// an empty queue.
type Queue struct {
	items []Descriptor
	head  int
	live  int            // non-tombstone entries in items[head:]
	index map[PageID]int // PageID -> absolute index (head-relative + head)
}

func (q *Queue) ensure() {
	if q.index == nil {
		q.index = make(map[PageID]int)
	}
}

// Len returns the number of queued descriptors.
func (q *Queue) Len() int { return q.live }

// Push enqueues a descriptor for id unless the page is already queued
// (the earlier descriptor wins, per the no-duplicates rule, and only notes
// seq as its newest reference).  It reports whether a new descriptor was
// added.
func (q *Queue) Push(id PageID, pos int64, seq uint64) bool {
	q.ensure()
	if i, ok := q.index[id]; ok {
		q.items[i].Last = max(q.items[i].Last, seq)
		return false
	}
	q.index[id] = len(q.items)
	q.items = append(q.items, Descriptor{ID: id, Pos: pos, Seq: seq, Last: seq})
	q.live++
	return true
}

// Promote moves id's descriptor to the back of the queue with a new log
// position.  It is used during epoch truncation: when the records an old
// descriptor pointed at are about to be truncated but the page has been
// modified again, the page's earliest surviving reference is the new
// record.  If the page is not queued, Promote behaves like Push.
func (q *Queue) Promote(id PageID, pos int64, seq uint64) {
	q.ensure()
	if i, ok := q.index[id]; ok {
		q.items[i] = Descriptor{} // tombstone; skipped on pop/first
		delete(q.index, id)
		q.live--
	}
	q.Push(id, pos, seq)
}

// skipTombstones advances head past removed entries.
func (q *Queue) skipTombstones() {
	for q.head < len(q.items) && q.items[q.head] == (Descriptor{}) {
		q.head++
	}
	q.maybeCompact()
}

// First returns the oldest descriptor without removing it.
func (q *Queue) First() (Descriptor, bool) {
	q.skipTombstones()
	if q.head >= len(q.items) {
		return Descriptor{}, false
	}
	return q.items[q.head], true
}

// PopFirst removes the oldest descriptor.  It panics on an empty queue.
func (q *Queue) PopFirst() Descriptor {
	d, ok := q.First()
	if !ok {
		panic("pagevec: PopFirst on empty queue")
	}
	delete(q.index, d.ID)
	q.items[q.head] = Descriptor{}
	q.live--
	q.head++
	q.maybeCompact()
	return d
}

// Get returns id's descriptor if the page is queued.
func (q *Queue) Get(id PageID) (Descriptor, bool) {
	q.ensure()
	if i, ok := q.index[id]; ok {
		return q.items[i], true
	}
	return Descriptor{}, false
}

// Has reports whether the page is queued.
func (q *Queue) Has(id PageID) bool {
	_, ok := q.Get(id)
	return ok
}

// Remove deletes id's descriptor if present, reporting whether it was.
func (q *Queue) Remove(id PageID) bool {
	q.ensure()
	i, ok := q.index[id]
	if !ok {
		return false
	}
	q.items[i] = Descriptor{}
	delete(q.index, id)
	q.live--
	q.skipTombstones()
	return true
}

// RemoveRegion deletes all descriptors of the given region (used when a
// region is unmapped after its dirty pages are written out).  It returns
// the number removed.
func (q *Queue) RemoveRegion(region int) int {
	n := 0
	for id := range q.index {
		if id.Region == region {
			q.Remove(id)
			n++
		}
	}
	return n
}

// DropOlderThan removes all descriptors with Seq < seq (used when an epoch
// truncation has applied every record below seq).  It returns the number
// removed.
func (q *Queue) DropOlderThan(seq uint64) int {
	n := 0
	for i := q.head; i < len(q.items); i++ {
		d := q.items[i]
		if d != (Descriptor{}) && d.Seq < seq {
			q.items[i] = Descriptor{}
			delete(q.index, d.ID)
			q.live--
			n++
		}
	}
	q.skipTombstones()
	return n
}

// Walk visits live descriptors oldest-first.
func (q *Queue) Walk(fn func(Descriptor)) {
	for i := q.head; i < len(q.items); i++ {
		if q.items[i] != (Descriptor{}) {
			fn(q.items[i])
		}
	}
}

// maybeCompact reclaims the popped prefix when it dominates the slice.
func (q *Queue) maybeCompact() {
	if q.head > 64 && q.head > len(q.items)/2 {
		live := q.items[q.head:]
		copy(q.items, live)
		q.items = q.items[:len(live)]
		for id, i := range q.index {
			q.index[id] = i - q.head
		}
		q.head = 0
	}
}
