package core

import (
	"cmp"
	"slices"
	"sort"

	"github.com/rvm-go/rvm/internal/pagevec"
	"github.com/rvm-go/rvm/internal/wal"
)

// spoolLimit bounds the log bytes of the committed no-flush transactions the
// spool holds: a commit that takes it past the limit flushes the spool (the
// real RVM's log buffers were finite too).  Open caps it at a quarter of the
// log less a record's framing, so that a drain — one record of at most two
// limits' worth — fits in half the log, which any record fits in once an
// epoch has emptied the log.  Open reads it once; a variable for the tests.
var spoolLimit int64 = 1 << 20

// spooled is a committed no-flush transaction awaiting its log write.
// Everything about it, and about the index it is filed in, is guarded by
// pipe.mu.  It is cut from the pipeline's spoolMem, as are its ranges, the
// bytes they hold, and its pages.
type spooled struct {
	next    *spooled // the next entry filed in the same index bucket
	witness segSpan  // the range the entry is filed under
	dead    bool     // subsumed: no longer part of the spool
	flags   uint8
	tid     uint64
	bytes   int64       // encoded log size, for inter-opt accounting
	ranges  []wal.Range // data copied at commit time
	pages   []pagevec.PageID
}

// spoolBucket is one bucket of a pipeline's spool index: the live entries
// whose witness range starts in one 4 KiB stretch of one segment, and how
// many commits have had to look through it.
type spoolBucket struct {
	head   *spooled
	visits int
}

// count is b's visits; an absent bucket (nil) has had none.
func (b *spoolBucket) count() int {
	if b == nil {
		return 0
	}
	return b.visits
}

// arena is memory of one kind that spool entries are cut from, recycled
// whole by reset (DESIGN.md §12).  A cut bigger than a slab gets a slab of
// its own, which the arena does not keep.
type arena[T any] struct {
	slabs [][]T // slabs[cur] is being cut; those after it are empty
	cur   int
}

// take cuts n elements, in slabs of size elements.
func (a *arena[T]) take(n, size int) []T {
	if n > size {
		return make([]T, n)
	}
	for ; a.cur < len(a.slabs); a.cur++ {
		if s := a.slabs[a.cur]; len(s)+n <= cap(s) {
			a.slabs[a.cur] = s[:len(s)+n]
			return s[len(s) : len(s)+n : len(s)+n]
		}
	}
	a.slabs = append(a.slabs, make([]T, n, size))
	return a.slabs[a.cur][:n:n]
}

func (a *arena[T]) reset() {
	for i, s := range a.slabs {
		clear(s)
		a.slabs[i] = s[:0]
	}
	a.cur = 0
}

// spoolMem is the memory spool entries are cut from.
type spoolMem struct {
	ents   arena[spooled]
	ranges arena[wal.Range]
	pages  arena[pagevec.PageID]
	data   arena[byte]
}

// clone copies sp — its ranges, the bytes they hold, and its pages — into
// m.  The index links are not copied.
func (m *spoolMem) clone(sp *spooled) *spooled {
	n := 0
	for _, r := range sp.ranges {
		n += len(r.Data)
	}
	c := &m.ents.take(1, 512)[0]
	*c = spooled{witness: sp.witness, flags: sp.flags, tid: sp.tid, bytes: sp.bytes, ranges: m.ranges.take(len(sp.ranges), 512)[:0]}
	c.pages = append(m.pages.take(len(sp.pages), 512)[:0], sp.pages...)
	data := m.data.take(n, 64<<10)[:0]
	for _, r := range sp.ranges {
		data = append(data, r.Data...)
		r.Data = data[len(data)-len(r.Data) : len(data) : len(data)]
		c.ranges = append(c.ranges, r)
	}
	return c
}

func (m *spoolMem) reset() {
	m.ents.reset()
	m.ranges.reset()
	m.pages.reset()
	m.data.reset()
}

// spoolBucketShift sizes the index's buckets: 4 KiB.
const spoolBucketShift = 12

// spoolBucketKey names the bucket holding byte off of segment seg.  Two
// buckets may share a key; that only adds candidates, which the full
// subsumption check then rejects.
func spoolBucketKey(seg uint64, off int64) uint64 {
	return seg*0x9e3779b97f4a7c15 + uint64(off>>spoolBucketShift)
}

// segSpan is a half-open byte range [off, end) of segment seg.
type segSpan struct {
	seg      uint64
	off, end int64
}

// coverOf returns the coverage of ranges as disjoint, non-adjacent spans
// sorted by (segment, offset), built in buf.  A restore transaction that
// changed nothing has no ranges, and covers nothing.
func coverOf(buf []segSpan, ranges []wal.Range) []segSpan {
	for _, r := range ranges {
		buf = append(buf, rangeSpan(r))
	}
	if len(buf) == 0 {
		return buf
	}
	slices.SortFunc(buf, func(a, b segSpan) int {
		return cmp.Or(cmp.Compare(a.seg, b.seg), cmp.Compare(a.off, b.off))
	})
	cover := buf[:1]
	for _, s := range buf[1:] {
		if last := &cover[len(cover)-1]; s.seg == last.seg && s.off <= last.end {
			last.end = max(last.end, s.end)
		} else {
			cover = append(cover, s)
		}
	}
	return cover
}

// covers reports whether one span of cover contains s.
func covers(cover []segSpan, s segSpan) bool {
	i := sort.Search(len(cover), func(i int) bool {
		return cover[i].seg > s.seg || cover[i].seg == s.seg && cover[i].end > s.off
	})
	return i < len(cover) && cover[i].seg == s.seg && cover[i].off <= s.off && cover[i].end >= s.end
}

// rangeSpan is the span r modifies.
func rangeSpan(r wal.Range) segSpan {
	return segSpan{r.Seg, int64(r.Off), int64(r.Off) + int64(len(r.Data))}
}

// subsumedPipeLocked reports whether every range of old is covered by the
// new transaction's coverage, and counts the check.
func (p *pipeline) subsumedPipeLocked(old *spooled, cover []segSpan) bool {
	p.spoolChecks++
	for _, r := range old.ranges {
		if !covers(cover, rangeSpan(r)) {
			return false
		}
	}
	return true
}

// spoolPipeLocked adds a committed no-flush transaction to the spool,
// after applying the inter-transaction optimization (paper §5.2): an
// earlier unflushed transaction whose modifications sp's subsume is
// discarded.  The cost is that of sp's own ranges, whatever the spool
// holds, because the spool is indexed (DESIGN.md §12).  Each live entry is
// filed under a witness, one of its ranges.  An entry is subsumed only if
// all of its ranges are covered, the witness among them, and a covered
// witness starts inside one of sp's coverage spans — so the buckets those
// spans touch hold every candidate, and the full check runs only on those
// whose witness is indeed covered.  The witness is the range whose bucket
// commits have visited least: what every transaction writes (a balance, a
// counter) is a poor witness, one that every commit would have to look at.
//
// A discard leaves a hole in commit order that no crash can expose: the
// drain logs the spool as one record, which a crash keeps whole or not at
// all (TestSpoolDiscardKeepsCommitOrder).  Caller holds e.pipe.mu and the
// locks of sp's regions; sp may move once it is spooled.
func (e *Engine) spoolPipeLocked(sp *spooled) {
	p := &e.pipe
	var buf [8]segSpan
	cover := coverOf(buf[:0], sp.ranges)
	var at [8]*spoolBucket // the walk's lookup of each range's first byte
	for _, c := range cover {
		for off := c.off; off < c.end; off = (off>>spoolBucketShift + 1) << spoolBucketShift {
			key := spoolBucketKey(c.seg, off)
			b := p.spoolIdx[key]
			for i, r := range sp.ranges[:min(len(sp.ranges), len(at))] {
				if spoolBucketKey(r.Seg, int64(r.Off)) == key {
					at[i] = b
				}
			}
			if b == nil {
				continue
			}
			link := &b.head
			for old := *link; old != nil; old = *link {
				if !covers(cover, old.witness) || !p.subsumedPipeLocked(old, cover) {
					link = &old.next
					continue
				}
				e.stats.InterSavedBytes.Add(uint64(old.bytes))
				e.retireSpooledPipeLocked(old, 0, 0)
				*link = old.next
			}
			b.visits++
		}
	}
	var witness *spoolBucket
	for i, r := range sp.ranges {
		b := at[i%len(at)]
		if i >= len(at) {
			b = p.spoolIdx[spoolBucketKey(r.Seg, int64(r.Off))]
		}
		if i == 0 || b.count() < witness.count() {
			sp.witness, witness = rangeSpan(r), b
		}
	}
	if witness == nil {
		if p.spoolIdx == nil {
			p.spoolIdx = make(map[uint64]*spoolBucket)
		}
		witness = &p.buckets.take(1, 512)[0]
		p.spoolIdx[spoolBucketKey(sp.witness.seg, sp.witness.off)] = witness
	}
	sp.next, witness.head = witness.head, sp
	witness.visits++
	for _, id := range sp.pages {
		e.regions[id.Region].spoolRefs[id.Page]++
	}
	p.spool = append(p.spool, sp)
	p.spoolBytes += sp.bytes
	if p.deadBytes > p.spoolBytes+1<<20 {
		p.compactSpoolPipeLocked()
	}
}

// compactSpoolPipeLocked moves the live entries, in order, into fresh
// memory and files them again under the same witnesses, in buckets that
// keep their visits: the memory of the dead entries goes without a drain,
// so the log is that of a spool that never moved.  Caller holds pipe.mu.
func (p *pipeline) compactSpoolPipeLocked() {
	p.mem = spoolMem{}
	for _, b := range p.spoolIdx {
		b.head = nil
	}
	live := p.spool[:0]
	for _, old := range p.spool {
		if !old.dead {
			sp := p.mem.clone(old)
			b := p.spoolIdx[spoolBucketKey(sp.witness.seg, sp.witness.off)]
			sp.next, b.head = b.head, sp
			live = append(live, sp)
		}
	}
	clear(p.spool[len(live):])
	p.spool = live
	p.deadBytes = 0
}

// retireSpooledPipeLocked takes sp out of the spool — logged in the record
// at pos, seq, or subsumed (seq 0) — releasing its page references.  A
// subsumed entry keeps its slot in p.spool and its memory, dead, until a
// drain empties the spool or a compaction drops it.  A drain logs every
// live entry in one record, so a page joins the truncation queue at it once,
// as its last spool reference goes.  Caller holds e.pipe.mu; the regions
// slice is readable under it (see Engine.regions).
func (e *Engine) retireSpooledPipeLocked(sp *spooled, pos int64, seq uint64) {
	for _, id := range sp.pages {
		// Unmap flushes the spool before it clears the region's slot, so the
		// region is still there — but guard against stale slots anyway.
		if id.Region >= len(e.regions) || e.regions[id.Region] == nil {
			continue
		}
		refs := &e.regions[id.Region].spoolRefs[id.Page]
		if *refs--; *refs == 0 && seq != 0 {
			e.enqueuePagePipeLocked(id, pos, seq)
		}
	}
	e.pipe.spoolBytes -= sp.bytes
	e.pipe.deadBytes += sp.bytes
	sp.dead = true
}

// drainSpoolPipeLocked appends the spool to the log (without forcing) as one
// record: the newest bytes of the live entries (newestPipeLocked), under the
// newest entry's TID and flags.  A crash keeps the drain whole or not at
// all, so the restart holds every drained commit or none, and a byte that a
// later drained commit rewrote is dead in the record.  Every drained page is
// enqueued at the record.  On an error nothing is logged, the spool is
// unchanged, and need is the record's encoded size.  Caller holds
// e.pipe.mu.
func (e *Engine) drainSpoolPipeLocked() (need int64, err error) {
	p := &e.pipe
	if len(p.spool) == 0 {
		return 0, nil
	}
	ranges, logged := p.newestPipeLocked()
	newest := p.spool[len(p.spool)-1] // never subsumed: nothing came after it
	pos, seq, _, err := e.appendPipeLocked(newest.tid, newest.flags, ranges)
	if err != nil {
		need = wal.EncodedLen(ranges)
	}
	clear(p.drain.ranges)
	clear(p.drain.out)
	if err != nil {
		return need, err
	}
	e.stats.DrainSavedBytes.Add(uint64(p.spoolBytes - logged))
	for _, sp := range p.spool {
		if !sp.dead {
			e.retireSpooledPipeLocked(sp, pos, seq)
		}
	}
	clear(p.spool) // nothing refers to the spool's memory any more
	p.spool = p.spool[:0]
	clear(p.spoolIdx)
	p.buckets.reset()
	p.mem.reset()
	p.deadBytes = 0
	return 0, nil
}

// drainScratch is the memory a drain's merge works in, kept for its
// capacity.  Guarded by pipe.mu.
type drainScratch struct {
	ranges []wal.Range    // the live entries' ranges, the newest first
	pieces []drainPiece   // where each of them lies, sorted
	spare  []drainPiece   // the sort's other buffer
	counts [16][256]int32 // the sort's digit counts
	heap   []int32        // the pieces over the sweep's position, newest on top
	out    []wal.Range    // the record's ranges
	joined []byte         // the bytes of ranges joined from several pieces
}

// drainPiece is the span of ranges[src]: the lower src, the newer.
type drainPiece struct {
	seg, off, end uint64
	src           int32
}

// newestPipeLocked returns the ranges of the drain's record: each byte that
// a live spool entry covers, once, with the value of the newest entry that
// covers it.  A piece is a maximal run of bytes whose newest writer is one
// range, cut from the bytes that range copied at commit; the pieces come in
// (segment, offset) order, and a piece joins the range before it where the
// two are adjacent and still take a short range header together.  The ranges
// are disjoint, so their order in the record does not matter.  Pieces of
// nearly 64 KiB that cannot share a short header can make them dearer than
// the entries' own ranges; those are returned then, in commit order, for a
// drain never logs more than the entries would, which is what the spool's
// bound sizes the log for.  It returns the ranges and their log cost.
//
// The ranges are sorted once by where they start and swept: a heap holds
// those that cover the sweep's position, newest on top, and the top's bytes
// run up to its end or to the next range's start.  A range that the top
// covers to its end is never pushed.  A range that a newer one repeats
// exactly — a balance that every commit rewrites — is mostly dropped before
// the sort, by a memo of the newest range at each hash of (segment, offset,
// length).  The result aliases p.drain.  Caller holds e.pipe.mu.
func (p *pipeline) newestPipeLocked() ([]wal.Range, int64) {
	d := &p.drain
	src, pieces := d.ranges[:0], d.pieces[:0]
	var memo [256]drainPiece
	for i := len(p.spool) - 1; i >= 0; i-- {
		if p.spool[i].dead {
			continue
		}
		for _, r := range p.spool[i].ranges {
			q := drainPiece{r.Seg, r.Off, r.Off + uint64(len(r.Data)), int32(len(src))}
			m := &memo[(q.seg*0x9e3779b97f4a7c15^q.off*0xbf58476d1ce4e5b9^q.end)>>56]
			if m.seg == q.seg && m.off == q.off && m.end == q.end {
				continue
			}
			*m = q
			src, pieces = append(src, r), append(pieces, q)
		}
	}
	pieces, d.spare = sortPieces(pieces, d.spare, &d.counts)
	cut := func(q *drainPiece, from, to uint64) wal.Range {
		r := src[q.src]
		return wal.Range{Seg: q.seg, Off: from, Data: r.Data[from-r.Off : to-r.Off]}
	}
	out, h := d.out[:0], d.heap[:0]
	last := -1        // the piece out's last range was cut from
	var seg, x uint64 // the sweep's position
	for i := 0; i < len(pieces) || len(h) > 0; {
		if len(h) == 0 {
			q := &pieces[i]
			seg, x = q.seg, q.off
			// The common case: the newest of the pieces that start here
			// reaches past the others and ends before the next one starts.
			j := i + 1
			for j < len(pieces) && pieces[j].seg == seg && pieces[j].off == x && pieces[j].end <= q.end {
				j++
			}
			if j == len(pieces) || pieces[j].seg != seg || pieces[j].off >= q.end {
				out, last, i = append(out, cut(q, q.off, q.end)), i, j
				continue
			}
		}
		for ; i < len(pieces) && pieces[i].seg == seg && pieces[i].off <= x; i++ {
			if q := &pieces[i]; len(h) == 0 || pieces[h[0]].src > q.src || pieces[h[0]].end < q.end {
				h = heapPush(h, pieces, int32(i))
			}
		}
		for len(h) > 0 && pieces[h[0]].end <= x {
			h = heapPop(h, pieces)
		}
		if len(h) == 0 {
			continue
		}
		top := int(h[0])
		q := &pieces[top]
		until := q.end
		if i < len(pieces) && pieces[i].seg == seg {
			until = min(until, pieces[i].off)
		}
		if top == last { // the range goes on
			o := &out[len(out)-1]
			*o = cut(q, o.Off, until)
		} else {
			out = append(out, cut(q, x, until))
		}
		last, x = top, until
	}
	joined, n, cost := d.joined[:0], 0, int64(0)
	for i := 0; i < len(out); n++ {
		r, lo := out[i], -1
		for i++; i < len(out) && joins(r, out[i]); i++ {
			if lo < 0 {
				lo = len(joined)
				joined = append(joined, r.Data...)
			}
			joined = append(joined, out[i].Data...)
			r.Data = joined[lo:]
		}
		out[n], cost = r, cost+wal.RangeLen(r.Seg, r.Off, int64(len(r.Data)))
	}
	clear(out[n:])
	out = out[:n]
	if cost > p.spoolBytes {
		clear(out)
		out = out[:0]
		for _, sp := range p.spool {
			if !sp.dead {
				out = append(out, sp.ranges...)
			}
		}
		cost = p.spoolBytes
	}
	d.ranges, d.pieces, d.heap, d.out, d.joined = src, pieces, h, out, joined
	return out, cost
}

// sortPieces sorts a by (segment, offset), keeping the order of equal
// pieces: a least-significant-digit radix sort, through spare, on each byte
// in which some pieces differ, whose counts one read of a gathers in counts.
// A drain's pieces lie in a few megabytes of one segment, so a 256-commit
// TPC-A drain takes three passes, at a third of the cost of a comparison
// sort.  It returns the sorted pieces and the other buffer.
func sortPieces(a, spare []drainPiece, counts *[16][256]int32) (sorted, other []drainPiece) {
	var offs, segs uint64 // the bits in which some pieces differ
	for i := range a {
		offs |= a[i].off ^ a[0].off
		segs |= a[i].seg ^ a[0].seg
	}
	var digits [16]uint8 // the bytes sorted on: 0-7 of the offset, 8-15 of the segment
	n := 0
	for d, bits := range [2]uint64{offs, segs} {
		for b := 0; b < 8; b++ {
			if bits>>(b*8)&0xff != 0 {
				digits[n], n = uint8(d*8+b), n+1
			}
		}
	}
	at := counts[:n]
	clear(at)
	for i := range a {
		for j, d := range digits[:n] {
			at[j][a[i].digit(d)]++
		}
	}
	spare = slices.Grow(spare[:0], len(a))[:len(a)]
	for j, d := range digits[:n] {
		var sum int32
		for k, c := range at[j] {
			at[j][k], sum = sum, sum+c
		}
		for i := range a {
			k := a[i].digit(d)
			spare[at[j][k]] = a[i]
			at[j][k]++
		}
		a, spare = spare, a
	}
	return a, spare
}

// digit is byte d of q's offset, or byte d-8 of its segment.
func (q *drainPiece) digit(d uint8) uint8 {
	if d >= 8 {
		return uint8(q.seg >> (d % 8 * 8))
	}
	return uint8(q.off >> (d * 8))
}

// joins reports whether b continues a and the two as one range still take
// the short range header (that of an empty range), which saves b's.  Wide
// ranges are never joined: their header is a sliver of their bytes, which a
// join would copy once more.
func joins(a, b wal.Range) bool {
	n := int64(len(a.Data) + len(b.Data))
	return b.Seg == a.Seg && b.Off == a.Off+uint64(len(a.Data)) &&
		wal.RangeLen(a.Seg, a.Off, n) == n+wal.RangeLen(0, 0, 0)
}

// heapPush adds piece v to h, a heap of pieces with the newest on top.
func heapPush(h []int32, pieces []drainPiece, v int32) []int32 {
	h = append(h, v)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if pieces[h[up]].src <= pieces[h[i]].src {
			break
		}
		h[up], h[i] = h[i], h[up]
		i = up
	}
	return h
}

// heapPop removes the top of h, a heap of pieces with the newest on top.
func heapPop(h []int32, pieces []drainPiece) []int32 {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && pieces[h[c+1]].src < pieces[h[c]].src {
			c++
		}
		if pieces[h[i]].src <= pieces[h[c]].src {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return h
}
