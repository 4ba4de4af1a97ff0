package core

import (
	"slices"

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

// spooled is a committed no-flush transaction awaiting its log write: its
// ranges, the bytes they hold, and its pages, all cut from the pipeline's
// spoolMem.  Guarded by pipe.mu.
type spooled struct {
	flags  uint8
	tid    uint64
	bytes  int64       // encoded log size of its ranges
	ranges []wal.Range // data copied at commit time
	pages  []pagevec.PageID
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
// m.
func (m *spoolMem) clone(sp *spooled) *spooled {
	n := 0
	for _, r := range sp.ranges {
		n += len(r.Data)
	}
	c := &m.ents.take(1, 512)[0]
	*c = spooled{flags: sp.flags, tid: sp.tid, bytes: sp.bytes, ranges: m.ranges.take(len(sp.ranges), 512)[:0]}
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

// spoolPipeLocked adds a committed no-flush transaction to the spool and
// takes its page references.  The inter-transaction optimization (paper
// §5.2) is the drain's: it logs the newest bytes of the spool, so an entry
// whose every byte a later one rewrote never reaches the log
// (newestPipeLocked).  Such an entry counts in spoolBytes and holds its page
// references until the drain too; the pages it changed are those of the
// entries that rewrite it.  Caller holds e.pipe.mu and the locks of sp's
// regions.
func (e *Engine) spoolPipeLocked(sp *spooled) {
	for _, id := range sp.pages {
		e.regions[id.Region].spoolRefs[id.Page]++
	}
	e.pipe.spool = append(e.pipe.spool, sp)
	e.pipe.spoolBytes += sp.bytes
}

// drainSpoolPipeLocked appends the spool to the log (without forcing) as one
// record: the newest bytes of the entries (newestPipeLocked), under the
// newest entry's TID and flags.  A crash keeps the drain whole or not at
// all, so the restart holds every drained commit or none, and a byte that a
// later drained commit rewrote is dead in the record.  Every drained page is
// enqueued at the record, once, as its last spool reference goes, and the
// spool's memory is recycled; rec is the record, if any.  On an error
// nothing is logged, the spool is unchanged, and need is the record's encoded
// size.  Caller holds e.pipe.mu; the regions slice is readable under it.
func (e *Engine) drainSpoolPipeLocked() (rec appended, need int64, err error) {
	p := &e.pipe
	if len(p.spool) == 0 {
		return rec, 0, nil
	}
	ranges, logged, inter := p.newestPipeLocked()
	newest := p.spool[len(p.spool)-1]
	rec, err = e.appendPipeLocked(newest.tid, newest.flags, ranges)
	if err != nil {
		need = wal.EncodedLen(ranges)
	}
	clear(p.drain.ranges)
	clear(p.drain.out)
	if err != nil {
		return rec, need, err
	}
	e.stats.InterSavedBytes.Add(uint64(inter))
	e.stats.DrainSavedBytes.Add(uint64(p.spoolBytes - logged - inter))
	for _, sp := range p.spool {
		for _, id := range sp.pages {
			refs := &e.regions[id.Region].spoolRefs[id.Page]
			if *refs--; *refs == 0 {
				e.enqueuePagePipeLocked(id, rec.pos, rec.seq)
			}
		}
	}
	clear(p.spool) // nothing refers to the spool's memory any more
	p.spool = p.spool[:0]
	p.spoolBytes = 0
	p.mem.reset()
	return rec, 0, nil
}

// drainScratch is the memory a drain's merge works in, kept for its
// capacity.  Guarded by pipe.mu.
type drainScratch struct {
	ranges []wal.Range    // the entries' ranges, the newest first
	pieces []drainPiece   // where each of them lies, sorted
	kept   []bool         // per entry: a piece was cut from it
	spare  []drainPiece   // the sort's other buffer
	counts [16][256]int32 // the sort's digit counts
	heap   []int32        // the pieces over the sweep's position, newest on top
	out    []wal.Range    // the record's ranges
	joined []byte         // the bytes of ranges joined from several pieces
}

// drainPiece is the span of ranges[src], a range of spool entry ent: the
// lower src, the newer.
type drainPiece struct {
	seg, off, end uint64
	src, ent      int32
}

// newestPipeLocked returns the ranges of the drain's record: each byte that
// a spool entry covers, once, with the value of the newest entry that covers
// it.  A piece is a maximal run of bytes whose newest writer is one range,
// cut from the bytes that range copied at commit; the pieces come in
// (segment, offset) order, and a piece joins the range before it where the
// two are adjacent and still take a short range header together.  The ranges
// are disjoint, so their order in the record does not matter.  It returns
// the ranges, their log cost, and inter, the log cost of the entries no
// piece was cut from: those whose every byte a newer entry rewrote, which
// the inter-transaction optimization (paper §5.2) drops.  Pieces of nearly
// 64 KiB that cannot share a short header can make the ranges dearer than
// the entries they were cut from; the entries' own ranges are returned then,
// all of them, in commit order, with no inter bytes, for a drain never logs
// more than the entries would, which is what the spool's bound sizes the
// log for.
//
// The ranges are sorted once by where they start and swept: a heap holds
// those that cover the sweep's position, newest on top, and the top's bytes
// run up to its end or to the next range's start.  A range that the top
// covers to its end is never pushed.  A range that a newer one repeats
// exactly — a balance that every commit rewrites — is mostly dropped before
// the sort, by a memo of the newest range at each hash of (segment, offset,
// length).  The result aliases p.drain.  Caller holds e.pipe.mu.
func (p *pipeline) newestPipeLocked() (_ []wal.Range, cost, inter int64) {
	d := &p.drain
	src, pieces := d.ranges[:0], d.pieces[:0]
	kept := slices.Grow(d.kept[:0], len(p.spool))[:len(p.spool)]
	clear(kept)
	var memo [256]drainPiece
	for i := len(p.spool) - 1; i >= 0; i-- {
		for _, r := range p.spool[i].ranges {
			q := drainPiece{r.Seg, r.Off, r.Off + uint64(len(r.Data)), int32(len(src)), int32(i)}
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
		kept[q.ent] = true
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
	joined, n := d.joined[:0], 0
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
	for i, sp := range p.spool {
		if !kept[i] {
			inter += sp.bytes
		}
	}
	if cost+inter > p.spoolBytes {
		clear(out)
		out = out[:0]
		for _, sp := range p.spool {
			out = append(out, sp.ranges...)
		}
		cost, inter = p.spoolBytes, 0
	}
	d.ranges, d.pieces, d.kept, d.heap, d.out, d.joined = src, pieces, kept, h, out, joined
	return out, cost, inter
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
