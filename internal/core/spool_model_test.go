package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"github.com/rvm-go/rvm/internal/iofault"
	"github.com/rvm-go/rvm/internal/obs"
	"github.com/rvm-go/rvm/internal/wal"
)

// spoolModel is the spool worked out byte by byte, the reference the
// engine's must agree with.  Every no-flush commit is spooled; one the spool
// cannot take — larger than the limit, or the spool past it — drains the
// spool and is logged on its own.  A drain logs each byte its entries cover
// once, with the newest value, and an entry whose every byte a newer entry
// rewrites is left out whole: the inter-transaction optimization.
type spoolModel struct {
	limit      int64 // the engine's: an implicit flush beyond this many spooled bytes
	ents       []modelEntry
	bytes      int64
	inter      uint64 // log bytes of the entries the drains left out whole
	framing    uint64 // bytes of the flushed entries' records that are not ranges
	drainSaved uint64 // range bytes the drains' merge left out of the rest
	owner      map[uint64][]int32
}

// segSpan is a half-open byte range [off, end) of segment seg.
type segSpan struct {
	seg      uint64
	off, end int64
}

type modelEntry struct {
	tid    uint64
	ranges []segSpan
	bytes  int64
}

// frame is the framing the log reports for a record of bytes range bytes:
// a record with no ranges, and padding to 8 bytes.
func frame(bytes int64) uint64 { return uint64((wal.EncodedLen(nil)+bytes+7)&^7 - bytes) }

func (s *spoolModel) commit(tid uint64, ranges []segSpan) {
	ent := modelEntry{tid: tid, ranges: ranges}
	for _, r := range ranges {
		ent.bytes += wal.RangeLen(r.seg, uint64(r.off), r.end-r.off)
	}
	if ent.bytes > s.limit || s.bytes > s.limit {
		s.flush()
		s.framing += frame(ent.bytes)
		return
	}
	s.ents = append(s.ents, ent)
	s.bytes += ent.bytes
	if s.bytes > s.limit {
		s.flush()
	}
}

// flush logs the entries as one record of their newest bytes, or of their
// ranges as they are where that costs less than the entries it keeps.
func (s *spoolModel) flush() {
	if len(s.ents) > 0 {
		merged, inter := s.newestBytes()
		if merged+inter > s.bytes {
			merged, inter = s.bytes, 0
		}
		s.inter += uint64(inter)
		s.drainSaved += uint64(s.bytes - merged - inter)
		s.framing += frame(merged)
	}
	s.ents, s.bytes = s.ents[:0], 0
}

// newestBytes returns the cost of the ranges a drain of the entries logs,
// found byte by byte — each byte is written by the newest range that covers
// it, a piece is a maximal run of bytes with one writer, and in offset order
// a piece joins the range before it where the two are adjacent and still
// take a short range header together — and inter, the cost of the entries
// that write no byte.
func (s *spoolModel) newestBytes() (total, inter int64) {
	if s.owner == nil {
		s.owner = map[uint64][]int32{}
	}
	for seg, o := range s.owner {
		clear(o)
		s.owner[seg] = o[:0]
	}
	var entOf []int // per writer, its entry
	for i, e := range s.ents {
		for _, r := range e.ranges {
			entOf = append(entOf, i)
			writer := int32(len(entOf)) // 1 + the range's index in commit order
			o := s.owner[r.seg]
			if int64(len(o)) < r.end {
				o = append(o, make([]int32, r.end-int64(len(o)))...)
			}
			for b := r.off; b < r.end; b++ {
				o[b] = writer
			}
			s.owner[r.seg] = o
		}
	}
	kept := make([]bool, len(s.ents))
	cost := func(r segSpan) int64 { return wal.RangeLen(r.seg, uint64(r.off), r.end-r.off) }
	for seg, o := range s.owner { // the order of the segments does not change the cost
		var acc segSpan
		for b := int64(0); b < int64(len(o)); {
			e := b + 1
			for e < int64(len(o)) && o[e] == o[b] {
				e++
			}
			piece := segSpan{seg, b, e}
			if o[b] != 0 {
				kept[entOf[o[b]-1]] = true
			}
			switch {
			case o[b] == 0: // no writer
			case acc.end == b && acc.end > acc.off && cost(segSpan{seg, acc.off, e}) == e-acc.off+wal.RangeLen(0, 0, 0):
				acc.end = e
			default:
				if acc.end > acc.off {
					total += cost(acc)
				}
				acc = piece
			}
			b = e
		}
		if acc.end > acc.off {
			total += cost(acc)
		}
	}
	for i, e := range s.ents {
		if !kept[i] {
			inter += e.bytes
		}
	}
	return total, inter
}

func (s *spoolModel) tids() []uint64 {
	var tids []uint64
	for _, e := range s.ents {
		tids = append(tids, e.tid)
	}
	return tids
}

// TestSpoolMatchesModel drives random no-flush transactions over three
// regions of two segments — ranges that straddle page and region
// boundaries, multi-range transactions, bursts that rewrite, widen or
// shrink what was just written, interleaved flushes — and requires the spool
// the model keeps: after every commit the same transactions in the same
// order and the same bytes spooled, after every flush the same bytes left
// out whole.  At the end the counters must add up to what a verbatim logger
// (opt_test.go) would have written for the same set-range calls, with every
// drain logging only the newest bytes of its entries, as the model works
// them out byte by byte.
func TestSpoolMatchesModel(t *testing.T) {
	for _, tc := range []struct {
		name    string
		limit   int64
		commits int
	}{
		{"inter-opt", math.MaxInt64, 12000},
		{"spool-limit", 24 << 10, 6000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			setVar(t, &spoolLimit, tc.limit)
			// The log never wraps: a wrap record is framing only the log's
			// layout predicts.
			v := newEnv(t, 40<<20, pageBytes(16), Options{TruncateThreshold: -1})
			seg2 := filepath.Join(v.dir, "seg2.rvm")
			if err := CreateSegment(seg2, 2, pageBytes(8)); err != nil {
				t.Fatal(err)
			}
			// Two adjacent regions of segment 1, so a transaction's coverage
			// can run across a region boundary, and one of segment 2.
			var regs []*Region
			for _, m := range []struct {
				path       string
				off, pages int
			}{{v.segPath, 0, 8}, {v.segPath, 8, 8}, {seg2, 0, 8}} {
				r, err := v.eng.Map(m.path, pageBytes(m.off), pageBytes(m.pages))
				if err != nil {
					t.Fatal(err)
				}
				regs = append(regs, r)
			}
			ref := &spoolModel{limit: v.eng.spoolLimit}
			var verbatim verbatimLog
			rng := rand.New(rand.NewSource(int64(len(tc.name))))

			type setRange struct {
				reg    int
				off, n int64
			}
			randomRange := func() setRange {
				sr := setRange{reg: rng.Intn(len(regs)), n: 1 + rng.Int63n(300)}
				switch rng.Intn(4) {
				case 0: // long enough to span pages
					sr.n = 1 + rng.Int63n(3*4096)
				case 1: // a handful of hot spots, so that commits collide
					sr.n = 16
					sr.off = int64(rng.Intn(8)) * 1000
					return sr
				}
				length := regs[sr.reg].Length()
				switch rng.Intn(3) {
				case 0: // straddle a page boundary
					sr.off = int64(1+rng.Intn(7))*4096 - 1 - rng.Int63n(sr.n)
				case 1: // run up to the region's end (and, in region 0, the next region's start)
					sr.off = length - sr.n
				default:
					sr.off = rng.Int63n(length - sr.n)
				}
				sr.off = min(max(sr.off, 0), length-sr.n)
				return sr
			}
			var last []setRange
			for i := 0; i < tc.commits; i++ {
				var srs []setRange
				switch k := rng.Intn(10); {
				case k < 2 && last != nil: // rewrite the same ranges
					srs = last
				case k == 2 && last != nil: // widen them: rewrites all of the last commit
					for _, sr := range last {
						off := max(sr.off-rng.Int63n(64), 0)
						srs = append(srs, setRange{sr.reg, off, min(sr.off+sr.n+rng.Int63n(64), regs[sr.reg].Length()) - off})
					}
				case k == 3 && last != nil: // shrink them: leaves some of it
					for _, sr := range last {
						srs = append(srs, setRange{sr.reg, sr.off, max(sr.n-1, 1)})
					}
				case k == 4: // both sides of the boundary between regions 0 and 1
					n := 1 + rng.Int63n(200)
					srs = []setRange{{0, regs[0].Length() - n, n}, {1, 0, 1 + rng.Int63n(200)}}
				default:
					for n := 1 + rng.Intn(5); n > 0; n-- {
						srs = append(srs, randomRange())
					}
				}
				last = srs

				tx, err := v.eng.Begin(NoRestore)
				if err != nil {
					t.Fatal(err)
				}
				// What the engine will log: per region, in region order, the
				// coalesced spans.
				perRegion := make([]rangeset, len(regs))
				for _, sr := range srs {
					if err := tx.SetRange(regs[sr.reg], sr.off, sr.n); err != nil {
						t.Fatal(err)
					}
					verbatim.setRange(regs[sr.reg], sr.off, sr.n)
					regs[sr.reg].Data()[sr.off] = byte(i)
					perRegion[sr.reg].add(sr.off, sr.off+sr.n, nil)
				}
				var logged []segSpan
				for ri, rs := range perRegion {
					for _, sp := range rs.spans {
						r := regs[ri]
						logged = append(logged, segSpan{r.SegmentID(), r.SegmentOffset() + sp.off, r.SegmentOffset() + sp.end})
					}
				}
				if err := tx.Commit(NoFlush); err != nil {
					t.Fatal(err)
				}
				ref.commit(tx.ID(), logged)

				if got, want := v.eng.spoolTIDs(), ref.tids(); !reflect.DeepEqual(got, want) {
					t.Fatalf("commit %d: spool holds %v, the model %v", i, got, want)
				}
				if qi, _ := v.eng.Query(nil); qi.SpoolBytes != ref.bytes {
					t.Fatalf("commit %d: SpoolBytes %d, the model spools %d", i, qi.SpoolBytes, ref.bytes)
				}
				checkInter := func() {
					if got := v.eng.Stats().InterSavedBytes; got != ref.inter {
						t.Fatalf("commit %d: InterSavedBytes %d, the model's drains leave out %d", i, got, ref.inter)
					}
				}
				checkInter() // an implicit flush may have drained the spool
				switch rng.Intn(200) {
				case 0:
					if err := v.eng.Flush(); err != nil {
						t.Fatal(err)
					}
					ref.flush()
					checkInter()
				case 1:
					if err := v.eng.Truncate(); err != nil {
						t.Fatal(err)
					}
					ref.flush()
					checkInter()
				}
			}
			if ref.inter == 0 {
				t.Fatal("no entry was ever left out whole: the walk does not test the inter-transaction optimization")
			}
			if err := v.eng.Flush(); err != nil {
				t.Fatal(err)
			}
			ref.flush()
			verbatim.check(t, v.eng.Stats(), ref.framing)
			if got := v.eng.Stats().DrainSavedBytes; got != ref.drainSaved || ref.drainSaved == 0 {
				t.Fatalf("DrainSavedBytes %d, the model's drains save %d", got, ref.drainSaved)
			}
			// Every page reference the spool took has been given back.
			for _, r := range regs {
				for pg := range len(r.spoolRefs) {
					if n := r.spoolRefCount(pg); n != 0 {
						t.Fatalf("region %d page %d keeps %d spool references with the spool empty", r.idx, pg, n)
					}
				}
			}
		})
	}
}

// TestNoFlushCommitCostBound pins what a no-flush commit pays for the spool
// it joins: the transaction's allocations are few.
func TestNoFlushCommitCostBound(t *testing.T) {
	// Go allocates objects above 512 bytes with a malloc header, a slower
	// path every Begin would take.
	if n := unsafe.Sizeof(Tx{}); n > 512 {
		t.Fatalf("a Tx is %d bytes, want at most 512", n)
	}
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	s := newTPCAShape(t, Options{TruncateThreshold: -1})
	// Only the Tx handle: the books of its regions and its old values are
	// recycled through the engine, and the spool entry, its ranges, data
	// and pages are cut from the spool's memory.  The map-based bookkeeping
	// took 53, the entry's own allocations seven, and books allocated with
	// each Tx two more.
	if n := testing.AllocsPerRun(500, func() { s.commit(t) }); n > 1 {
		t.Fatalf("a 4-range Restore no-flush transaction allocated %.1f times, want at most 1", n)
	}
	// Coda-shaped (the client mix of the paper's §7.3): NoRestore, one
	// region, two to four ranges on as many pages, each declared again in
	// part and then whole.  Only the Tx is allocated.
	v := newEnv(t, 16<<20, pageBytes(64), Options{TruncateThreshold: -1})
	r, err := v.eng.Map(v.segPath, 0, pageBytes(64))
	if err != nil {
		t.Fatal(err)
	}
	for _, offs := range [][]int64{{100, 9000}, {100, 9000, 30000}, {100, 9000, 30000, 60000}} {
		n := testing.AllocsPerRun(500, func() {
			tx, err := v.eng.Begin(NoRestore)
			if err != nil {
				t.Fatal(err)
			}
			for _, off := range offs {
				for _, sr := range [][2]int64{{off, 100}, {off + 50, 58}, {off, 100}} {
					if err := tx.SetRange(r, sr[0], sr[1]); err != nil {
						t.Fatal(err)
					}
				}
				r.Data()[off]++
			}
			if err := tx.Commit(NoFlush); err != nil {
				t.Fatal(err)
			}
		})
		if n > 1 {
			t.Fatalf("a %d-range NoRestore no-flush transaction allocated %.1f times, want at most 1", len(offs), n)
		}
	}
}

// TestSpoolPageRefs: a page a spool entry references holds bytes that are
// committed but not logged.  A checkpoint may not write it, an epoch's
// completion may not leave it clean, and every entry — one a later
// entry rewrote too — gives its references back exactly once, at the drain.
func TestSpoolPageRefs(t *testing.T) {
	setVar(t, &spoolLimit, math.MaxInt64)
	v := newEnv(t, 1<<18, pageBytes(2), Options{TruncateThreshold: -1})
	r := v.mapWhole()
	noFlush := func(off int64, data string) {
		t.Helper()
		tx, _ := v.eng.Begin(Restore)
		if err := tx.Modify(r, off, []byte(data)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(NoFlush); err != nil {
			t.Fatal(err)
		}
	}
	v.commit1(r, 0, []byte("logged")) // page 0 joins the truncation queue
	noFlush(8, "spooled")             // and is then referenced by the spool
	noFlush(pageBytes(1), "other")
	if a, b := r.spoolRefCount(0), r.spoolRefCount(1); a != 1 || b != 1 {
		t.Fatalf("spool references %d and %d, want 1 and 1", a, b)
	}
	// A subsuming commit and a partial overlap add one reference each: the
	// subsumed entry keeps its own until the drain.
	noFlush(8, "SPOOLED!")
	noFlush(10, "xx")
	if a := r.spoolRefCount(0); a != 3 {
		t.Fatalf("page 0 has %d spool references after a subsumption and an overlap, want 3", a)
	}

	if err := v.eng.claimTruncation(); err != nil {
		t.Fatal(err)
	}
	// The cleaner, run as a checkpoint runs it, finds page 0 first in the
	// queue with spooled bytes in it: it turns the spool into log records
	// before it writes anything, then writes both pages, and the head goes
	// to the next append's — the flush commit and the four spool entries are
	// all reflected, in two records: the flush commit's and the drain's.
	pages, _, head, _, err := v.eng.clean(cleanEverything)
	v.eng.releaseTruncation()
	if _, next := v.eng.log.Tail(); err != nil || pages != 2 || head != next || head != 3 || v.eng.Stats().Flushes != 1 {
		t.Fatalf("cleaner wrote %d page(s), head seq %d, %v, %d flush(es); want 2, 3, nil, 1", pages, head, err, v.eng.Stats().Flushes)
	}
	// The drain left the subsumed entry out of its record.
	if got, want := v.eng.Stats().InterSavedBytes, uint64(wal.RangeLen(r.SegmentID(), 8, 7)); got != want {
		t.Fatalf("InterSavedBytes %d, want %d", got, want)
	}
	// The cleaner drained the spool, so the epoch below gets its state made
	// again: a logged page that the spool then references.
	v.commit1(r, 0, []byte("logged"))
	noFlush(10, "xx")
	noFlush(pageBytes(1), "other")
	if err := v.eng.claimTruncation(); err != nil {
		t.Fatal(err)
	}
	// An inline epoch truncation leaves the spool alone.  It applies the
	// flush commit and drops page 0 from the queue — dirty, unqueued, but
	// spooled: it must stay dirty.
	err = v.eng.epoch(epochBlocked)
	v.eng.releaseTruncation()
	if err != nil {
		t.Fatal(err)
	}
	if qi, _ := v.eng.Query(r); qi.LogUsed != 0 || qi.QueuedPages != 0 || qi.DirtyPages != 2 {
		t.Fatalf("after the epoch: %+v; want an empty log and queue and 2 dirty pages", qi)
	}

	if err := v.eng.Truncate(); err != nil {
		t.Fatal(err)
	}
	if a, b := r.spoolRefCount(0), r.spoolRefCount(1); a != 0 || b != 0 {
		t.Fatalf("spool references %d and %d after the drain, want none", a, b)
	}
	if qi, _ := v.eng.Query(r); qi.SpoolBytes != 0 || qi.DirtyPages != 0 {
		t.Fatalf("after truncation: %+v", qi)
	}
	v.reopen(Options{})
	if got := string(v.mapWhole().Data()[:16]); got != "logged\x00\x00SPxxLED!" {
		t.Fatalf("recovered %q", got)
	}
}

// TestSpoolRefsBlockIncrementalTruncation: with a live spool reference on
// the queue's first page, incremental truncation must turn the spool into
// log records before it writes the page — never the page first.
func TestSpoolRefsBlockIncrementalTruncation(t *testing.T) {
	setVar(t, &spoolLimit, math.MaxInt64)
	v := newEnv(t, 1<<18, pageBytes(2), Options{Incremental: true, TruncateThreshold: -1})
	r := v.mapWhole()
	v.commit1(r, 0, []byte("logged"))
	tx, _ := v.eng.Begin(Restore)
	tx.Modify(r, 100, []byte("spooled"))
	if err := tx.Commit(NoFlush); err != nil {
		t.Fatal(err)
	}
	if err := v.eng.claimTruncation(); err != nil {
		t.Fatal(err)
	}
	pages, _, _, _, err := v.eng.clean(0)
	v.eng.releaseTruncation()
	if err != nil || pages != 1 {
		t.Fatal(pages, err)
	}
	if st := v.eng.Stats(); st.Flushes != 1 || st.PagesWritten != 1 {
		t.Fatalf("flushes %d, pages written %d; want 1 and 1", st.Flushes, st.PagesWritten)
	}
	if qi, _ := v.eng.Query(r); r.spoolRefCount(0) != 0 || qi.DirtyPages != 0 {
		t.Fatal("page 0 still referenced or dirty after its write-out")
	}
}

// TestCleanerLogsSpooledPageBeforeWritingIt: a page the cleaner finds with
// spooled bytes reaches its segment only behind a durable record of them.
// A no-flush transaction writes pages 0 and 1, page 0 first in the queue;
// the cleaner writes page 0 alone, and a crash then drops every unsynced
// log write.  The restart must hold the transaction on both pages or on
// neither.
func TestCleanerLogsSpooledPageBeforeWritingIt(t *testing.T) {
	setVar(t, &spoolLimit, math.MaxInt64)
	v, err := newFaultEnv(t, 1<<18, pageBytes(2), 1, true, nil, nil, Options{TruncateThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	r := v.mapWhole()
	// Half a page in one flush commit queues page 0 at a record longer than
	// a quarter page, and the drain's record is shorter: cleaning to a
	// quarter page writes page 0 and stops at page 1, queued at the drain.
	v.commit1(r, 0, bytes.Repeat([]byte("f"), int(pageBytes(1)/2)))
	lazy, err := v.eng.Begin(Restore)
	if err != nil {
		t.Fatal(err)
	}
	if err := lazy.Modify(r, pageBytes(1)-16, []byte("first half")); err != nil {
		t.Fatal(err)
	}
	if err := lazy.Modify(r, pageBytes(1), []byte("second half")); err != nil {
		t.Fatal(err)
	}
	if err := lazy.Commit(NoFlush); err != nil {
		t.Fatal(err)
	}
	if err := v.eng.claimTruncation(); err != nil {
		t.Fatal(err)
	}
	pages, _, _, _, err := v.eng.clean(pageBytes(1) / 4)
	v.eng.releaseTruncation()
	if err != nil || pages != 1 {
		t.Fatalf("the cleaner wrote %d page(s) (%v), want page 0 alone", pages, err)
	}
	// The log keeps none of its unsynced writes; the segment, all of its.
	if err := v.cache.CrashKeeping(func(d *iofault.Cache, _ int64) bool { return d != v.cache }); err != nil {
		t.Fatal(err)
	}
	v.reopen(Options{TruncateThreshold: -1})
	data := v.mapWhole().Data()
	first := string(data[pageBytes(1)-16:pageBytes(1)-6]) == "first half"
	second := string(data[pageBytes(1):pageBytes(1)+11]) == "second half"
	if first != second {
		t.Fatalf("the restart holds half of the no-flush transaction (page 0 %v, page 1 %v)", first, second)
	}
}

// TestSpoolGaugeSurvivesFlush: a no-flush commit that spools while a flush
// is forcing the log shows in the snapshot's spool level, which has one
// source — the pipeline's own count — and no gauge a flusher could
// overwrite with its stale zero.
func TestSpoolGaugeSurvivesFlush(t *testing.T) {
	v := newEnv(t, 1<<18, pageBytes(2), Options{})
	if err := v.eng.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(v.logPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	dev := iofault.NewInjector(f, 1)
	met := obs.NewMetrics()
	v.eng, err = Open(Options{LogPath: v.logPath, LogDevice: dev, Metrics: met, TruncateThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	r := v.mapWhole()
	commit := func() {
		tx, _ := v.eng.Begin(NoRestore)
		if err := tx.Modify(r, 0, []byte("racing the flusher")); err != nil {
			t.Error(err)
		}
		if err := tx.Commit(NoFlush); err != nil {
			t.Error(err)
		}
	}
	commit()
	var once sync.Once
	dev.SetHook(func(op iofault.Op, _ int64, _ int) {
		if op == iofault.OpSync {
			once.Do(commit) // a committer gets in while the flusher forces
		}
	})
	if err := v.eng.Flush(); err != nil {
		t.Fatal(err)
	}
	dev.SetHook(nil)
	qi, _ := v.eng.Query(nil)
	if qi.SpoolBytes == 0 {
		t.Fatal("the racing commit did not spool")
	}
	sn, err := v.eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sn.SpoolBytes != qi.SpoolBytes {
		t.Fatalf("snapshot spool level reads %d with %d bytes spooled", sn.SpoolBytes, qi.SpoolBytes)
	}
}

// TestTxBookkeepingTraps pins behaviour the slice-based bookkeeping must
// keep: regions touched in any order are locked and logged in index order,
// more regions than a Tx holds inline work, and a finished Tx stays
// finished.
func TestTxBookkeepingTraps(t *testing.T) {
	v := newEnv(t, 1<<18, pageBytes(8), Options{TruncateThreshold: -1})
	var regs []*Region
	for i := 0; i < 6; i++ {
		r, err := v.eng.Map(v.segPath, pageBytes(i), pageBytes(1))
		if err != nil {
			t.Fatal(err)
		}
		regs = append(regs, r)
	}
	tx, _ := v.eng.Begin(Restore)
	for _, i := range []int{4, 0, 5, 2, 1, 3, 0, 4} { // descending, repeated, more than the Tx holds inline
		if err := tx.Modify(regs[i], int64(i), []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(tx.regions); i++ {
		if tx.regions[i-1].region.idx >= tx.regions[i].region.idx {
			t.Fatalf("regions out of index order at %d", i)
		}
	}
	if len(tx.regions) != 6 || regs[0].nTx != 1 {
		t.Fatalf("%d regions, nTx %d; want 6 and 1", len(tx.regions), regs[0].nTx)
	}
	if err := tx.Commit(Flush); err != nil {
		t.Fatal(err)
	}
	var offs []uint64
	err := v.eng.log.ScanForward(func(rec *wal.Record) error {
		for _, rg := range rec.Ranges {
			offs = append(offs, rg.Off)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []uint64
	for i := 0; i < 6; i++ {
		want = append(want, uint64(pageBytes(i)+int64(i)))
	}
	if !reflect.DeepEqual(offs, want) {
		t.Fatalf("the record carries ranges at %v, want %v", offs, want)
	}
	for _, r := range regs {
		if r.nTx != 0 || r.refs[0] != 0 {
			t.Fatalf("region %d left with nTx %d, refs %d", r.idx, r.nTx, r.refs[0])
		}
	}
	// A Tx is never recycled: a stale handle keeps failing, whatever has
	// begun since.
	single, _ := v.eng.Begin(Restore)
	single.Modify(regs[0], 0, []byte("z"))
	if err := single.Commit(NoFlush); err != nil {
		t.Fatal(err)
	}
	other, _ := v.eng.Begin(Restore)
	defer other.Abort()
	for name, err := range map[string]error{
		"Commit":   single.Commit(NoFlush),
		"Abort":    single.Abort(),
		"SetRange": single.SetRange(regs[0], 0, 1),
		"cross":    tx.Commit(Flush),
	} {
		if !errors.Is(err, ErrTxDone) {
			t.Fatalf("%s on a finished transaction: %v", name, err)
		}
	}
}
