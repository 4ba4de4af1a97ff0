package core

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/rvm-go/rvm/internal/obs"
	"github.com/rvm-go/rvm/internal/wal"
)

// scanSpool is the inter-transaction optimization as the engine did it
// before its spool was indexed: every commit builds its coverage per segment
// and checks it against every spooled entry.  It survives as the reference
// the index must agree with.
type scanSpool struct {
	limit   int64 // implicit flush beyond this many spooled bytes; 0 never
	ents    []scanEntry
	bytes   int64
	saved   uint64
	framing uint64 // bytes of the flushed entries' records that are not ranges
}

// covers reports whether [off,end) is fully covered: the scan's test, which
// the engine no longer needs.
func (s *rangeset) covers(off, end int64) bool {
	i := sort.Search(len(s.spans), func(i int) bool { return s.spans[i].end > off })
	return i < len(s.spans) && s.spans[i].off <= off && s.spans[i].end >= end
}

type scanEntry struct {
	tid    uint64
	ranges []segSpan
	bytes  int64
}

func (s *scanSpool) commit(tid uint64, ranges []segSpan) {
	ent := scanEntry{tid: tid, ranges: ranges}
	for _, r := range ranges {
		ent.bytes += rangeEncodedLen(r.end - r.off)
	}
	cover := make(map[uint64]*rangeset)
	for _, r := range ranges {
		if cover[r.seg] == nil {
			cover[r.seg] = &rangeset{}
		}
		cover[r.seg].add(r.off, r.end, nil)
	}
	kept := s.ents[:0]
	for _, old := range s.ents {
		subsumed := true
		for _, r := range old.ranges {
			if cs := cover[r.seg]; cs == nil || !cs.covers(r.off, r.end) {
				subsumed = false
				break
			}
		}
		if subsumed {
			s.bytes -= old.bytes
			s.saved += uint64(old.bytes)
			continue
		}
		kept = append(kept, old)
	}
	s.ents = kept
	s.ents = append(s.ents, ent)
	s.bytes += ent.bytes
	if s.limit > 0 && s.bytes > s.limit {
		s.flush()
	}
}

// flush logs the entries, one record each: the framing the log reports for
// a record with no ranges, and padding to 8 bytes.
func (s *scanSpool) flush() {
	for _, ent := range s.ents {
		s.framing += uint64((wal.EncodedLen(nil)+ent.bytes+7)&^7 - ent.bytes)
	}
	s.ents, s.bytes = s.ents[:0], 0
}

func (s *scanSpool) tids() []uint64 {
	var tids []uint64
	for _, e := range s.ents {
		tids = append(tids, e.tid)
	}
	return tids
}

// TestSpoolIndexMatchesScan drives random no-flush transactions over three
// regions of two segments — ranges that straddle bucket and region
// boundaries, multi-range transactions, bursts that rewrite, widen or
// shrink what was just written, interleaved flushes — and requires, after
// every commit, the spool the whole-spool scan would have left: the same
// transactions in the same order, the same bytes saved and spooled.  At the
// end the counters must add up to what a verbatim logger (opt_test.go) would
// have written for the same set-range calls.
func TestSpoolIndexMatchesScan(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opts    Options
		commits int
	}{
		{"inter-opt", Options{SpoolLimit: -1}, 12000},
		{"spool-limit", Options{SpoolLimit: 24 << 10}, 6000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.TruncateThreshold = -1
			// The log never wraps: a wrap record is framing only the log's
			// layout predicts.
			v := newEnv(t, 40<<20, pageBytes(16), tc.opts)
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
			ref := &scanSpool{limit: max(tc.opts.SpoolLimit, 0)}
			var verbatim verbatimLog
			rng := rand.New(rand.NewSource(int64(len(tc.name))))

			type setRange struct {
				reg    int
				off, n int64
			}
			randomRange := func() setRange {
				sr := setRange{reg: rng.Intn(len(regs)), n: 1 + rng.Int63n(300)}
				switch rng.Intn(4) {
				case 0: // long enough to span buckets
					sr.n = 1 + rng.Int63n(3*4096)
				case 1: // a handful of hot spots, so that commits collide
					sr.n = 16
					sr.off = int64(rng.Intn(8)) * 1000
					return sr
				}
				length := regs[sr.reg].Length()
				switch rng.Intn(3) {
				case 0: // straddle a bucket boundary
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
				case k == 2 && last != nil: // widen them: subsumes the last commit
					for _, sr := range last {
						off := max(sr.off-rng.Int63n(64), 0)
						srs = append(srs, setRange{sr.reg, off, min(sr.off+sr.n+rng.Int63n(64), regs[sr.reg].Length()) - off})
					}
				case k == 3 && last != nil: // shrink them: must not subsume it
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
					verbatim.setRange(sr.n)
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
					t.Fatalf("commit %d: spool holds %v, the scan leaves %v", i, got, want)
				}
				if got := v.eng.Stats().InterSavedBytes; got != ref.saved {
					t.Fatalf("commit %d: InterSavedBytes %d, the scan saves %d", i, got, ref.saved)
				}
				if qi, _ := v.eng.Query(nil); qi.SpoolBytes != ref.bytes {
					t.Fatalf("commit %d: SpoolBytes %d, the scan spools %d", i, qi.SpoolBytes, ref.bytes)
				}
				switch rng.Intn(200) {
				case 0:
					if err := v.eng.Flush(); err != nil {
						t.Fatal(err)
					}
					ref.flush()
				case 1:
					if err := v.eng.Truncate(); err != nil {
						t.Fatal(err)
					}
					ref.flush()
				}
			}
			if ref.saved == 0 {
				t.Fatal("nothing was ever subsumed: the walk does not test the index")
			}
			if err := v.eng.Flush(); err != nil {
				t.Fatal(err)
			}
			ref.flush()
			verbatim.check(t, v.eng.Stats(), ref.framing)
			// Every page reference the spool took has been given back.
			for _, r := range regs {
				for pg := 0; pg < r.pvec.NumPages(); pg++ {
					if n := r.spoolRefCount(pg); n != 0 {
						t.Fatalf("region %d page %d keeps %d spool references with the spool empty", r.idx, pg, n)
					}
				}
			}
		})
	}
}

// TestNoFlushCommitCostBound pins what a no-flush commit pays for the spool
// it joins: the full subsumption checks per commit stay a small constant —
// the whole-spool scan ran one per spooled entry — and the transaction's
// allocations are few.
func TestNoFlushCommitCostBound(t *testing.T) {
	for _, spool := range []int{256, 8192} {
		s := newTPCAShape(t, Options{SpoolLimit: -1, TruncateThreshold: -1})
		for i := 0; i < spool; i++ {
			s.commit(t)
		}
		const commits = 1000
		before := s.eng.spoolChecks()
		for i := 0; i < commits; i++ {
			s.commit(t)
		}
		if got := len(s.eng.spoolTIDs()); got != spool+commits {
			t.Fatalf("spool holds %d entries, want %d", got, spool+commits)
		}
		// An entry filed under the one page of balances has its witness
		// covered by every commit; the least-visited rule keeps them few.
		perCommit := float64(s.eng.spoolChecks()-before) / commits
		t.Logf("spool of %d: %.2f subsumption checks per commit", spool, perCommit)
		if perCommit > 4 {
			t.Fatalf("spool of %d: %.1f subsumption checks per commit, want at most 4", spool, perCommit)
		}
	}
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	s := newTPCAShape(t, Options{TruncateThreshold: -1})
	// The Tx, the third region's books, the old values, and the spool entry
	// with its ranges, data and pages: seven, where the map-based
	// bookkeeping took 53.
	if n := testing.AllocsPerRun(500, func() { s.commit(t) }); n > 8 {
		t.Fatalf("a 4-range Restore no-flush transaction allocated %.1f times, want at most 8", n)
	}
}

// TestSpoolPageRefs: a page a live spool entry references holds bytes that
// are committed but not logged.  A checkpoint may not write it, an epoch's
// completion may not clear its dirty bit, and a subsumed entry gives its
// references back exactly once.
func TestSpoolPageRefs(t *testing.T) {
	v := newEnv(t, 1<<18, pageBytes(2), Options{TruncateThreshold: -1, SpoolLimit: -1})
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
	// A subsuming commit takes over the reference; a partial overlap adds one.
	noFlush(8, "SPOOLED!")
	noFlush(10, "xx")
	if a := r.spoolRefCount(0); a != 2 {
		t.Fatalf("page 0 has %d spool references after a subsumption and an overlap, want 2", a)
	}
	if got := v.eng.Stats().InterSavedBytes; got != uint64(rangeEncodedLen(7)) {
		t.Fatalf("InterSavedBytes %d, want %d", got, rangeEncodedLen(7))
	}

	if err := v.eng.claimTruncation(); err != nil {
		t.Fatal(err)
	}
	// The cleaner, run as a checkpoint runs it, finds page 0 first in the
	// queue with spooled bytes in it: it turns the spool into log records
	// before it writes anything, then writes both pages, and the stable LSN
	// is the next append's — the flush commit and the three live spool entries
	// are all reflected.
	pages, _, stable, err := v.eng.clean(cleanEverything, &v.eng.stats.CheckpointPages)
	v.eng.releaseTruncation()
	if _, next := v.eng.log.Tail(); err != nil || pages != 2 || stable != next || stable != 5 || v.eng.Stats().Flushes != 1 {
		t.Fatalf("cleaner wrote %d page(s), stable %d, %v, %d flush(es); want 2, 5, nil, 1", pages, stable, err, v.eng.Stats().Flushes)
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
	// spooled: the dirty bit must stay.
	err = v.eng.epoch()
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
	v := newEnv(t, 1<<18, pageBytes(2), Options{Incremental: true, TruncateThreshold: -1, SpoolLimit: -1})
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
	pages, _, _, err := v.eng.clean(0, &v.eng.stats.IncrSteps)
	v.eng.releaseTruncation()
	if err != nil || pages != 1 {
		t.Fatal(pages, err)
	}
	if st := v.eng.Stats(); st.Flushes != 1 || st.PagesWritten != 1 {
		t.Fatalf("flushes %d, pages written %d; want 1 and 1", st.Flushes, st.PagesWritten)
	}
	if r.spoolRefCount(0) != 0 || r.pvec.IsDirty(0) {
		t.Fatal("page 0 still referenced or dirty after its write-out")
	}
}

// syncHookDevice runs a hook inside every Sync.
type syncHookDevice struct {
	wal.Device
	hook atomic.Pointer[func()]
}

func (d *syncHookDevice) Sync() error {
	if h := d.hook.Load(); h != nil {
		(*h)()
	}
	return d.Device.Sync()
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
	dev := &syncHookDevice{Device: f}
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
	hook := func() { once.Do(commit) } // a committer gets in while the flusher forces
	dev.hook.Store(&hook)
	if err := v.eng.Flush(); err != nil {
		t.Fatal(err)
	}
	dev.hook.Store(nil)
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
		if r.nTx != 0 || r.pvec.Refs(0) != 0 {
			t.Fatalf("region %d left with nTx %d, refs %d", r.idx, r.nTx, r.pvec.Refs(0))
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
