// Package pagevec implements the page-modification queue behind RVM's
// incremental truncation (paper §5.1.2, Figure 7): a FIFO Queue of
// descriptors giving the order in which dirty pages must be written out to
// move the log head.  Each descriptor records the log position of the first
// live record referencing its page, and the queue contains no duplicate page
// references: a page appears only in the earliest descriptor in which it
// could appear.
//
// Figure 7's page vector is not here.  Its uncommitted reference count is a
// per-page counter of the engine's region, guarded by the region's lock.
// Its dirty bit is kept nowhere: a page is dirty exactly when it is queued
// here or referenced by a spooled no-flush commit, and the engine reads it
// from those two (DESIGN.md §12).  The Queue has no internal
// synchronization; the engine serializes access under its log-pipeline
// lock.
package pagevec

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
// an empty queue.  Positions are absolute: items[i] is position base+i, and
// slots[region][page] holds one more than the position of the page's
// descriptor (zero: not queued), so every lookup is an array access and
// compaction only moves base.
type Queue struct {
	items      []Descriptor
	head, base int
	live       int     // non-tombstone entries in items[head:]
	slots      [][]int // per region, per page: 1 + absolute position, or 0
}

// slot returns id's slot, growing the tables to hold it.
func (q *Queue) slot(id PageID) *int {
	if id.Region >= len(q.slots) {
		q.slots = append(q.slots, make([][]int, id.Region+1-len(q.slots))...)
	}
	if s := q.slots[id.Region]; id.Page >= int64(len(s)) {
		q.slots[id.Region] = append(s, make([]int, int(id.Page)+1-len(s))...)
	}
	return &q.slots[id.Region][id.Page]
}

// at returns the index in items of id's descriptor, or -1.
func (q *Queue) at(id PageID) int {
	if id.Region < len(q.slots) && id.Page < int64(len(q.slots[id.Region])) {
		return q.slots[id.Region][id.Page] - 1 - q.base
	}
	return -1
}

// Len returns the number of queued descriptors.
func (q *Queue) Len() int { return q.live }

// Push enqueues a descriptor for id unless the page is already queued
// (the earlier descriptor wins, per the no-duplicates rule, and only notes
// seq as its newest reference).  It reports whether a new descriptor was
// added.
func (q *Queue) Push(id PageID, pos int64, seq uint64) bool {
	s := q.slot(id)
	if i := *s - 1 - q.base; i >= 0 {
		q.items[i].Last = max(q.items[i].Last, seq)
		return false
	}
	*s = q.base + len(q.items) + 1
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
	q.Remove(id)
	q.Push(id, pos, seq)
}

// drop tombstones items[i], the descriptor of a queued page.
func (q *Queue) drop(i int) {
	q.slots[q.items[i].ID.Region][q.items[i].ID.Page] = 0
	q.items[i] = Descriptor{} // skipped on pop/first
	q.live--
}

// skipTombstones advances head past removed entries, and reclaims the
// popped prefix when it dominates the slice.
func (q *Queue) skipTombstones() {
	for q.head < len(q.items) && q.items[q.head] == (Descriptor{}) {
		q.head++
	}
	if q.head > 64 && q.head > len(q.items)/2 {
		n := copy(q.items, q.items[q.head:])
		q.items, q.base, q.head = q.items[:n], q.base+q.head, 0
	}
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
	q.Remove(d.ID)
	return d
}

// Get returns id's descriptor if the page is queued.
func (q *Queue) Get(id PageID) (Descriptor, bool) {
	if i := q.at(id); i >= 0 {
		return q.items[i], true
	}
	return Descriptor{}, false
}

// Has reports whether the page is queued.
func (q *Queue) Has(id PageID) bool { return q.at(id) >= 0 }

// Remove deletes id's descriptor if present, reporting whether it was.
func (q *Queue) Remove(id PageID) bool {
	i := q.at(id)
	if i < 0 {
		return false
	}
	q.drop(i)
	q.skipTombstones()
	return true
}

// RemoveRegion deletes all descriptors of the given region (used when a
// region is unmapped after its dirty pages are written out).  It returns
// the number removed.
func (q *Queue) RemoveRegion(region int) int {
	n := 0
	if region < len(q.slots) {
		for _, s := range q.slots[region] {
			if s != 0 {
				q.drop(s - 1 - q.base)
				n++
			}
		}
		q.slots[region] = nil
	}
	q.skipTombstones()
	return n
}

// DropOlderThan removes all descriptors with Seq < seq (used when an epoch
// truncation has applied every record below seq).  It returns the number
// removed.
func (q *Queue) DropOlderThan(seq uint64) int {
	n := 0
	for i := q.head; i < len(q.items); i++ {
		if d := q.items[i]; d != (Descriptor{}) && d.Seq < seq {
			q.drop(i)
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
