package core

import (
	"cmp"
	"slices"
	"sort"

	"github.com/rvm-go/rvm/internal/pagevec"
	"github.com/rvm-go/rvm/internal/wal"
)

// spooled is a committed no-flush transaction awaiting its log write.
// Everything about it, and about the index it is filed in, is guarded by
// its shard's pipe.mu.
type spooled struct {
	next    *spooled // the next entry filed in the same index bucket
	witness segSpan  // the range the entry is filed under
	dead    bool     // logged or subsumed: no longer part of the spool
	flags   uint8
	tid     uint64
	bytes   int64       // encoded log size, for inter-opt accounting
	ranges  []wal.Range // data copied at commit time, into one buffer
	pages   []pagevec.PageID
}

// spoolBucket is one bucket of a pipeline's spool index: the live entries
// whose witness range starts in one 4 KiB stretch of one segment, and how
// many commits have had to look through it.
type spoolBucket struct {
	head   *spooled
	visits int
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
// sorted by (segment, offset), built in buf.
func coverOf(buf []segSpan, ranges []wal.Range) []segSpan {
	for _, r := range ranges {
		buf = append(buf, rangeSpan(r))
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

// spoolPipeLocked adds a committed no-flush transaction to the shard's
// spool, after applying the inter-transaction optimization (paper §5.2): an
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
// Caller holds sh.pipe.mu and the locks of sp's regions.
func (e *Engine) spoolPipeLocked(sh *shard, sp *spooled) {
	p := &sh.pipe
	var buf [8]segSpan
	cover := coverOf(buf[:0], sp.ranges)
	for _, c := range cover {
		for off := c.off; off < c.end; off = (off>>spoolBucketShift + 1) << spoolBucketShift {
			key := spoolBucketKey(c.seg, off)
			b, ok := p.spoolIdx[key]
			if !ok {
				continue
			}
			link := &b.head
			for old := *link; old != nil; old = *link {
				if !old.dead { // an entry a partial drain logged lingers, dead
					if !covers(cover, old.witness) || !p.subsumedPipeLocked(old, cover) {
						link = &old.next
						continue
					}
					e.stats.InterSavedBytes.Add(uint64(old.bytes))
					e.retireSpooledPipeLocked(sh, old, nil)
				}
				*link = old.next
			}
			b.visits++
			p.spoolIdx[key] = b
		}
	}
	var witness spoolBucket
	for i, r := range sp.ranges {
		if b := p.spoolIdx[spoolBucketKey(r.Seg, int64(r.Off))]; i == 0 || b.visits < witness.visits {
			sp.witness, witness = rangeSpan(r), b
		}
	}
	if p.spoolIdx == nil {
		p.spoolIdx = make(map[uint64]spoolBucket)
	}
	sp.next = witness.head
	p.spoolIdx[spoolBucketKey(sp.witness.seg, sp.witness.off)] = spoolBucket{sp, witness.visits + 1}
	for _, id := range sp.pages {
		e.regions[id.Region].spoolRefs[id.Page]++
	}
	p.spool = append(p.spool, sp)
	p.spoolBytes += sp.bytes
}

// retireSpooledPipeLocked takes sp out of the spool — logged as ent, or
// subsumed (ent nil) — releasing its page references and its payload.  The
// entry keeps its slot in p.spool, dead, until a drain passes it: the
// slice's order is the log's order.  A logged entry's pages join the
// truncation queue at its record.  Caller holds sh.pipe.mu; the regions
// slice is readable under it (see Engine.regions).
func (e *Engine) retireSpooledPipeLocked(sh *shard, sp *spooled, ent *wal.Entry) {
	for _, id := range sp.pages {
		// Unmap flushes the spool before it clears the region's slot, so the
		// region is still there — but guard against stale slots anyway.
		if id.Region >= len(e.regions) || e.regions[id.Region] == nil {
			continue
		}
		e.regions[id.Region].spoolRefs[id.Page]--
		if ent != nil {
			e.enqueuePagePipeLocked(sh, id, ent.Pos, ent.Seq)
		}
	}
	sh.pipe.spoolBytes -= sp.bytes
	sp.dead, sp.ranges, sp.pages = true, nil, nil
}

// drainSpoolPipeLocked appends every transaction spooled on the shard to
// its log (without forcing) — one device write for the lot, short of a wrap
// or a very large spool — and enqueues their pages.  On an error the
// entries that did reach the log are gone from the spool and p.spool[0] is
// the first that did not.  Caller holds sh.pipe.mu.
func (e *Engine) drainSpoolPipeLocked(sh *shard) error {
	p := &sh.pipe
	if len(p.spool) == 0 {
		return nil
	}
	ents := p.batch[:0]
	for _, sp := range p.spool {
		if !sp.dead {
			ents = append(ents, wal.Entry{TID: sp.tid, Flags: sp.flags, Ranges: sp.ranges})
		}
	}
	logged := 0
	err := e.retryIO(func() error {
		n, err := sh.log.AppendBatch(ents[logged:])
		logged += n
		return err
	})
	k := 0
	for i := 0; i < logged; k++ {
		if sp := p.spool[k]; !sp.dead {
			e.retireSpooledPipeLocked(sh, sp, &ents[i])
			i++
		}
	}
	for k < len(p.spool) && p.spool[k].dead {
		k++
	}
	rest := copy(p.spool, p.spool[k:])
	clear(p.spool[rest:]) // logged payloads are garbage now
	p.spool = p.spool[:rest]
	if rest == 0 {
		clear(p.spoolIdx)
	}
	clear(ents)
	p.batch = ents[:0]
	return err
}
