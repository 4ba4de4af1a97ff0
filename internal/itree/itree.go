// Package itree implements an interval map over byte ranges.
//
// It is the data structure behind RVM's recovery trees: crash recovery and
// epoch truncation read the write-ahead log from head to tail and build, for
// each external data segment, the set of latest committed bytes for every
// modified range.  The read runs oldest-first, so a later record's bytes
// replace what an earlier one left: the OverwriteExisting policy.  The
// KeepExisting policy encodes the rule of the paper's newest-first read —
// an already-covered byte is never overwritten by an older record — and
// tests cross-check the two directions against each other.
//
// Bytes are bucketed by 4 KiB page.  A page holds a short sorted list of
// disjoint chunks; an insert copies only the bytes that fill a gap, writes
// overlapped bytes in place, and never touches a neighbour's data, so its
// cost is O(len(data)) plus a splice bounded by one page's chunk list — it
// does not grow with the tree or with the length of the run being extended.
// Memory is the covered bytes plus one chunk header per gap filled.
// Adjacent chunks are coalesced only by Walk, so iterating a finished tree
// still yields the minimal set of writes to apply to a segment.
//
// The bytes live in slabs the tree owns and a chunk header names its bytes
// by slab position, not by pointer: a tree of a hundred thousand chunks is
// a few large pointer-free objects to the garbage collector, which then has
// nothing to trace in it and no write barrier to run when a splice moves
// headers — a restart builds its trees while the collector is running.
package itree

import (
	"fmt"
	"slices"
	"sort"
)

// Policy selects what happens when an inserted range overlaps bytes that are
// already present in the map.
type Policy int

const (
	// KeepExisting preserves bytes already in the map; the insertion only
	// fills gaps.  Use when inserting newest-first.
	KeepExisting Policy = iota
	// OverwriteExisting replaces overlapped bytes with the new data.  Use
	// when inserting oldest-first.
	OverwriteExisting
)

// Interval is a contiguous run of bytes at Off.  Data always has the exact
// length of the interval.
type Interval struct {
	Off  uint64
	Data []byte
}

// End returns the exclusive upper bound of the interval.
func (iv Interval) End() uint64 { return iv.Off + uint64(len(iv.Data)) }

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	slabShift = 16 // a slab holds 64 KiB; a chunk, at most a page, lies in one
	slabSize  = 1 << slabShift
)

// chunk is a run of n bytes at off within its page; it never crosses the
// page's end.  Its bytes are at slab position pos (slab index, then offset
// within the slab).
type chunk struct {
	off, n uint32
	pos    uint64
}

func (c chunk) end() uint32 { return c.off + c.n }

// search returns the index of the first chunk of a page that ends beyond
// off: the first that could overlap or follow a range starting there.
func search(cs []chunk, off uint32) int {
	return sort.Search(len(cs), func(i int) bool { return cs[i].end() > off })
}

// Tree is an ordered map from byte offsets to bytes.  The zero value is an
// empty tree ready for use.  Tree is not safe for concurrent use.
type Tree struct {
	// pages maps a page number (offset >> pageShift) to that page's chunks,
	// sorted by off and pairwise disjoint; adjacent chunks stay separate.
	pages map[uint64][]chunk
	slabs [][]byte // all full but the last
	bytes uint64
}

// data returns the bytes of c.
func (t *Tree) data(c chunk) []byte {
	return t.slabs[c.pos>>slabShift][c.pos&(slabSize-1):][:c.n:c.n]
}

// store copies b, at most a page, into the slabs and returns its position.
func (t *Tree) store(b []byte) uint64 {
	k := len(t.slabs) - 1
	if k < 0 || len(t.slabs[k])+len(b) > slabSize {
		t.slabs = append(t.slabs, make([]byte, 0, slabSize))
		k++
	}
	pos := uint64(k)<<slabShift | uint64(len(t.slabs[k]))
	t.slabs[k] = append(t.slabs[k], b...)
	return pos
}

// Bytes returns the total number of bytes covered by the tree.
func (t *Tree) Bytes() uint64 { return t.bytes }

// Len returns the number of maximal intervals in the tree.
func (t *Tree) Len() int {
	n := 0
	cs := t.sorted()
	for i := range cs {
		if i == 0 || cs[i-1].End() != cs[i].Off {
			n++
		}
	}
	return n
}

// Insert adds data at offset off under the given policy.  The data slice is
// copied; callers may reuse their buffer.  Inserting an empty range is a
// no-op.
func (t *Tree) Insert(off uint64, data []byte, p Policy) {
	if len(data) == 0 {
		return
	}
	if off+uint64(len(data)) < off {
		panic(fmt.Sprintf("itree: range [%d,+%d) overflows uint64", off, len(data)))
	}
	if p != KeepExisting && p != OverwriteExisting {
		panic(fmt.Sprintf("itree: unknown policy %d", int(p)))
	}
	if t.pages == nil {
		t.pages = make(map[uint64][]chunk)
	}
	for len(data) > 0 {
		rel := uint32(off & (pageSize - 1))
		n := min(len(data), pageSize-int(rel))
		t.insertPage(off>>pageShift, rel, data[:n], p == OverwriteExisting)
		off += uint64(n)
		data = data[n:]
	}
}

// insertPage adds data at off within page pn: gaps between the page's
// chunks get a copy of the new bytes, overlapped chunks are overwritten in
// place or left alone.
func (t *Tree) insertPage(pn uint64, off uint32, data []byte, overwrite bool) {
	cs := t.pages[pn]
	end := off + uint32(len(data))
	i := search(cs, off)
	for pos := off; pos < end; i++ {
		if i < len(cs) && cs[i].off <= pos {
			n := min(cs[i].end(), end) - pos
			if overwrite {
				copy(t.data(cs[i])[pos-cs[i].off:], data[pos-off:pos-off+n])
			}
			pos += n
			continue
		}
		gapEnd := end
		if i < len(cs) && cs[i].off < end {
			gapEnd = cs[i].off
		}
		cs = slices.Insert(cs, i, chunk{pos, gapEnd - pos, t.store(data[pos-off : gapEnd-off])})
		t.bytes += uint64(gapEnd - pos)
		pos = gapEnd
	}
	t.pages[pn] = cs
}

// sorted returns every chunk as an Interval, in ascending offset order.
// The intervals' data aliases the tree's.
func (t *Tree) sorted() []Interval {
	pns := make([]uint64, 0, len(t.pages))
	n := 0
	for pn, cs := range t.pages {
		pns = append(pns, pn)
		n += len(cs)
	}
	slices.Sort(pns)
	out := make([]Interval, 0, n)
	for _, pn := range pns {
		for _, c := range t.pages[pn] {
			out = append(out, Interval{Off: pn<<pageShift | uint64(c.off), Data: t.data(c)})
		}
	}
	return out
}

// Walk calls fn for each maximal interval in ascending offset order.  The
// callback must not retain or mutate the data slice: an interval made of
// several chunks is assembled in a buffer Walk reuses.  Walk stops early if
// fn returns a non-nil error and returns that error.
func (t *Tree) Walk(fn func(iv Interval) error) error {
	cs := t.sorted()
	var buf []byte
	for i := 0; i < len(cs); {
		// cs[i:j] is one run of adjacent chunks, n bytes long.
		j, n := i+1, len(cs[i].Data)
		for j < len(cs) && cs[j-1].End() == cs[j].Off {
			n += len(cs[j].Data)
			j++
		}
		iv := cs[i]
		if j > i+1 {
			buf = slices.Grow(buf[:0], n)
			for _, c := range cs[i:j] {
				buf = append(buf, c.Data...)
			}
			iv.Data = buf
		}
		if err := fn(iv); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// Overlay copies every byte the tree holds in [off, off+len(dst)) to its
// place in dst, leaving the bytes it does not hold as they are.
func (t *Tree) Overlay(dst []byte, off uint64) {
	end := off + uint64(len(dst))
	for pn, cs := range t.pages {
		base := pn << pageShift
		if base >= end || base+pageSize <= off {
			continue
		}
		for _, c := range cs {
			lo, hi := max(base+uint64(c.off), off), min(base+uint64(c.end()), end)
			if lo < hi {
				copy(dst[lo-off:hi-off], t.data(c)[lo-base-uint64(c.off):])
			}
		}
	}
}

// checkInvariants panics if the tree's structural invariants are violated.
// It is exported to the package's tests via export_test.go.
func (t *Tree) checkInvariants() {
	var sum uint64
	for pn, cs := range t.pages {
		for i, c := range cs {
			if c.n == 0 || c.end() > pageSize {
				panic(fmt.Sprintf("itree: page %d chunk %d spans [%d,%d)", pn, i, c.off, c.end()))
			}
			if i > 0 && cs[i-1].end() > c.off {
				panic(fmt.Sprintf("itree: page %d chunks %d and %d overlap or are out of order", pn, i-1, i))
			}
			sum += uint64(c.n)
		}
	}
	if sum != t.bytes {
		panic(fmt.Sprintf("itree: Bytes()=%d but chunks hold %d", t.bytes, sum))
	}
}
