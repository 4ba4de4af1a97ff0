package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"github.com/rvm-go/rvm/internal/obs"
	"github.com/rvm-go/rvm/internal/wal"
)

// pathsRegions is the layout of the commit-path scripts: four two-page
// regions.
const pathsRegions = 4

// pathsSeed is the seed the pinned record hashes were taken with.
const pathsSeed = 1

// recordStream hashes every transaction record the log ever held — type,
// tid, flags and ranges, in log order — by scanning for new records after
// each script step.  An inline truncation only ever drops records an
// earlier step has already seen: it runs inside a commit, ahead of that
// commit's own append.
type recordStream struct {
	seen  uint64 // the highest seq hashed
	sum   hash.Hash64
	count int
}

func (rs *recordStream) scan(t *testing.T, e *Engine) {
	t.Helper()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		rs.sum.Write(b[:])
	}
	err := e.log.ScanForward(func(rec *wal.Record) error {
		if rec.Seq <= rs.seen {
			return nil
		}
		rs.seen = rec.Seq
		if rec.Type != wal.RecTx {
			return nil
		}
		rs.count++
		word(uint64(rec.Type))
		word(rec.TID)
		word(uint64(rec.Flags))
		word(uint64(len(rec.Ranges)))
		for _, r := range rec.Ranges {
			word(r.Seg)
			word(r.Off)
			word(uint64(len(r.Data)))
			rs.sum.Write(r.Data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// runPathsScript drives one seeded single-goroutine script — Restore and
// NoRestore transactions over several regions with duplicate and
// overlapping set-ranges, some aborted, an engine Flush every so often, in
// a log small enough that commits hit ErrLogFull and truncate inline —
// through an engine opened with opts, committing with the modes by turns.
// It crashes the engine at the end and returns the recovered region images,
// the model's images, and the record-stream hash.
//
// With a finish function the script is the write-back one: a transaction
// pins page 0 of region 0 over the middle of the run, where a checkpoint and
// an incremental truncation meet it, and finish runs before the crash and
// must leave every committed byte in the segment (finishedInSegment).
func runPathsScript(t *testing.T, seed int64, opts Options, modes []CommitMode, window bool, finish func(*testing.T, *env, []*Region) []*Region) (recovered, model [][]byte, stream string) {
	t.Helper()
	opts.TruncateThreshold = -1
	v := newEnv(t, 1<<15, pageBytes(2*pathsRegions), opts)
	var regs []*Region
	for i := 0; i < pathsRegions; i++ {
		r, err := v.eng.Map(v.segPath, pageBytes(2*i), pageBytes(2))
		if err != nil {
			t.Fatal(err)
		}
		regs = append(regs, r)
		model = append(model, make([]byte, r.Length()))
	}
	rs := &recordStream{sum: fnv.New64a()}
	rng := rand.New(rand.NewSource(seed))
	var pin *Tx
	for step := 0; step < 240; step++ {
		if finish != nil {
			pin = pinnedPageStep(t, v, step, pin, regs[0], model[0])
		}
		txMode := Restore
		if rng.Intn(3) == 0 {
			txMode = NoRestore
		}
		tx, err := v.eng.Begin(txMode)
		if err != nil {
			t.Fatal(err)
		}
		type write struct {
			reg  int
			off  int64
			data []byte
		}
		var writes []write
		lastReg, lastOff, lastLen := rng.Intn(pathsRegions), int64(0), int64(8)
		for n := 1 + rng.Intn(5); n > 0; n-- {
			reg, off, ln := lastReg, lastOff, lastLen
			switch rng.Intn(4) {
			case 0: // the same range again
			case 1: // overlapping the previous one
				off, ln = lastOff+lastLen/2, 1+int64(rng.Intn(600))
			default:
				reg, off, ln = rng.Intn(pathsRegions), int64(rng.Intn(7000)), 1+int64(rng.Intn(900))
			}
			if off+ln > regs[reg].Length() {
				off = regs[reg].Length() - ln
			}
			data := make([]byte, ln)
			rng.Read(data)
			if err := tx.Modify(regs[reg], off, data); err != nil {
				t.Fatal(err)
			}
			writes = append(writes, write{reg, off, data})
			lastReg, lastOff, lastLen = reg, off, ln
		}
		if txMode == Restore && rng.Intn(8) == 0 {
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
		} else {
			if window {
				// Predict a second committer, so a flush commit leading
				// its force waits out the join window for one that never
				// comes.
				v.eng.gc.predicted.Store(2)
			}
			if err := tx.Commit(modes[step%len(modes)]); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			for _, w := range writes {
				copy(model[w.reg][w.off:], w.data)
			}
		}
		if step%16 == 15 {
			if err := v.eng.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		rs.scan(t, v.eng)
	}
	if err := v.eng.Flush(); err != nil {
		t.Fatal(err)
	}
	rs.scan(t, v.eng)
	st := v.eng.Stats()
	if st.EpochTruncs == 0 {
		t.Fatal("the script never filled the log: no ErrLogFull retry was exercised")
	}
	if window && st.JoinExpired == 0 {
		t.Fatal("no flush commit waited out the join window")
	}
	stream = fmt.Sprintf("%d:%016x", rs.count, rs.sum.Sum64())
	if finish != nil {
		finishedInSegment(t, v, finish(t, v, regs), model)
	}
	v.reopen(opts)
	for i := 0; i < pathsRegions; i++ {
		r, err := v.eng.Map(v.segPath, pageBytes(2*i), pageBytes(2))
		if err != nil {
			t.Fatal(err)
		}
		recovered = append(recovered, append([]byte(nil), r.Data()...))
	}
	return recovered, model, stream
}

// pinnedPageStep is the write-back script's pinned page.  At step 96 page 0
// of r is queued by a flush commit and then pinned by a transaction that
// stays open; at step 120 a checkpoint and an incremental truncation meet
// the pinned page at the head of the queue — the checkpoint must leave it
// queued, the truncation must fall back to an epoch; at step 144 the
// transaction commits.  It returns the open transaction.
func pinnedPageStep(t *testing.T, v *env, step int, pin *Tx, r *Region, model []byte) *Tx {
	t.Helper()
	const off, n = 64, 32
	switch step {
	case 96:
		v.commit1(r, off, bytes.Repeat([]byte{0xA5}, n))
		copy(model[off:], r.Data()[off:off+n])
		var err error
		if pin, err = v.eng.Begin(Restore); err != nil {
			t.Fatal(err)
		}
		if err := pin.Modify(r, off+8, bytes.Repeat([]byte{0x5A}, n)); err != nil {
			t.Fatal(err)
		}
	case 120:
		if err := v.eng.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if qi, _ := v.eng.Query(r); qi.QueuedPages == 0 || qi.UncommittedTxs != 1 {
			t.Fatalf("after a checkpoint over the pinned page: %+v; want it still queued", qi)
		}
		epochs := v.eng.Stats().EpochTruncs
		if err := v.eng.TruncateIncremental(0); err != nil {
			t.Fatal(err)
		}
		if qi, _ := v.eng.Query(r); v.eng.Stats().EpochTruncs == epochs || qi.LogUsed != 0 {
			t.Fatalf("an incremental truncation blocked by the pinned page did not fall back to an epoch: %+v", qi)
		}
	case 144:
		if err := pin.Commit(Flush); err != nil {
			t.Fatal(err)
		}
		// Other transactions wrote over parts of the range meanwhile; the
		// record carries what memory holds now.
		copy(model[off+8:], r.Data()[off+8:off+8+n])
		pin = nil
	}
	return pin
}

// finishedInSegment checks what every write-back path must leave behind:
// the regions' segment bytes equal to the model, nothing queued, no page
// dirty.
func finishedInSegment(t *testing.T, v *env, regs []*Region, model [][]byte) {
	t.Helper()
	for i, r := range regs {
		img := make([]byte, r.Length())
		if err := r.seg.ReadAt(img, r.segOff); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, model[i]) {
			t.Errorf("region %d: the segment differs from the model before the crash", i)
		}
		if qi, err := v.eng.Query(r); err != nil || qi.QueuedPages != 0 || qi.DirtyPages != 0 {
			t.Errorf("region %d: %+v, %v; want nothing queued and nothing dirty", i, qi, err)
		}
	}
}

// TestCommitPathsAgree runs the same script as flush commits, as flush
// commits whose every force waits out the join window, and as no-flush
// commits plus Flush.  All must recover the model's images, and the record
// stream of the flush runs must hash to the value the three separate commit
// functions of the commit before the one commit path produced: the one
// staged commit function logs the same records, not just bytes of the same
// total size, and the join window changes no record.
func TestCommitPathsAgree(t *testing.T) {
	cases := []struct {
		name   string
		mode   CommitMode
		window bool   // open the join window on every flush commit's force
		stream string // record count and FNV-64a, pinned before the one commit path
	}{
		{"flush", Flush, false, "226:6d880f600d853047"},
		{"group", Flush, true, "226:6d880f600d853047"},
		{"noflush+Flush", NoFlush, false, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			recovered, model, stream := runPathsScript(t, pathsSeed, Options{}, []CommitMode{c.mode}, c.window, nil)
			for i := range model {
				if !bytes.Equal(recovered[i], model[i]) {
					t.Errorf("region %d: recovered image differs from the model", i)
				}
			}
			if c.stream != "" && stream != c.stream {
				t.Errorf("record stream %s, want %s (pinned before the one commit path)", stream, c.stream)
			}
		})
	}
}

// TestWriteBackPathsAgree finishes the same script — flush and no-flush
// commits by turns, a page pinned over the middle of the run — in each of
// the ways a committed byte reaches its segment: the page cleaner as
// incremental truncation, the cleaner as a checkpoint with the truncation
// moving the head after it, log replay by an epoch, a crash's redo applied
// as the restart's first truncation, and Unmap's sweep.  Each must leave the
// model's image in the segment with nothing queued or dirty, and recover it
// after a crash.
func TestWriteBackPathsAgree(t *testing.T) {
	truncated := func(t *testing.T, v *env, epochs uint64) {
		t.Helper()
		if qi, _ := v.eng.Query(nil); qi.LogUsed != 0 || v.eng.Stats().EpochTruncs != epochs {
			t.Errorf("log holds %d bytes after %d epoch(s) in the finish; want an empty log and no epoch", qi.LogUsed, v.eng.Stats().EpochTruncs-epochs)
		}
	}
	cases := []struct {
		name   string
		finish func(t *testing.T, v *env, regs []*Region) []*Region
	}{
		{"incremental", func(t *testing.T, v *env, regs []*Region) []*Region {
			epochs := v.eng.Stats().EpochTruncs
			if err := v.eng.TruncateIncremental(0); err != nil {
				t.Fatal(err)
			}
			truncated(t, v, epochs)
			return regs
		}},
		{"checkpoint+incremental", func(t *testing.T, v *env, regs []*Region) []*Region {
			before := v.eng.Stats()
			if err := v.eng.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			mid := v.eng.Stats()
			if err := v.eng.TruncateIncremental(0); err != nil {
				t.Fatal(err)
			}
			truncated(t, v, before.EpochTruncs)
			if st := v.eng.Stats(); mid.IncrSteps == before.IncrSteps || st.IncrSteps != mid.IncrSteps {
				t.Errorf("the checkpoint wrote %d page(s), the truncation after it %d; want the checkpoint to write the pages and the truncation none",
					mid.IncrSteps-before.IncrSteps, st.IncrSteps-mid.IncrSteps)
			}
			return regs
		}},
		{"epoch", func(t *testing.T, v *env, regs []*Region) []*Region {
			// A transaction pins the queue's first page, so the cleaner
			// blocks at once and Truncate reverts to an epoch.
			v.eng.pipe.mu.Lock()
			d, queued := v.eng.pipe.queue.First()
			v.eng.pipe.mu.Unlock()
			if !queued {
				t.Fatal("nothing queued for the finish")
			}
			pin, err := v.eng.Begin(Restore)
			if err != nil {
				t.Fatal(err)
			}
			if err := pin.SetRange(regs[d.ID.Region], d.ID.Page*pageBytes(1), 1); err != nil {
				t.Fatal(err)
			}
			epochs := v.eng.Stats().EpochTruncs
			if err := v.eng.Truncate(); err != nil {
				t.Fatal(err)
			}
			if err := pin.Abort(); err != nil {
				t.Fatal(err)
			}
			if qi, _ := v.eng.Query(nil); qi.LogUsed != 0 || v.eng.Stats().EpochTruncs != epochs+1 {
				t.Errorf("log holds %d bytes after %d epoch(s) in the finish; want an empty log and one epoch", qi.LogUsed, v.eng.Stats().EpochTruncs-epochs)
			}
			return regs
		}},
		{"restart", func(t *testing.T, v *env, regs []*Region) []*Region {
			v.reopen(Options{TruncateThreshold: -1}) // a crash: no Close
			for i := range regs {
				var err error
				if regs[i], err = v.eng.Map(v.segPath, pageBytes(2*i), pageBytes(2)); err != nil {
					t.Fatal(err)
				}
			}
			if err := v.eng.Truncate(); err != nil {
				t.Fatal(err)
			}
			truncated(t, v, 0)
			return regs
		}},
		{"unmap+map", func(t *testing.T, v *env, regs []*Region) []*Region {
			for i, r := range regs {
				if err := v.eng.Unmap(r); err != nil {
					t.Fatal(err)
				}
				var err error
				if regs[i], err = v.eng.Map(v.segPath, pageBytes(2*i), pageBytes(2)); err != nil {
					t.Fatal(err)
				}
			}
			return regs
		}},
	}
	var first [][]byte
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			recovered, model, _ := runPathsScript(t, pathsSeed, Options{}, []CommitMode{Flush, NoFlush, NoFlush}, false, c.finish)
			if first == nil {
				first = recovered
			}
			for i := range model {
				if !bytes.Equal(recovered[i], model[i]) {
					t.Errorf("region %d: recovered image differs from the model", i)
				}
				if !bytes.Equal(recovered[i], first[i]) {
					t.Errorf("region %d: recovered image differs from the first finisher's", i)
				}
			}
		})
	}
}

// TestCommitRejectsUnknownMode: an unknown commit mode is refused for every
// transaction shape before anything is counted, and leaves the transaction
// live.
func TestCommitRejectsUnknownMode(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(4), Options{TruncateThreshold: -1})
	r1, _ := v.eng.Map(v.segPath, 0, pageBytes(2))
	r2, _ := v.eng.Map(v.segPath, pageBytes(2), pageBytes(2))
	shapes := []struct {
		name string
		regs []*Region
	}{{"empty", nil}, {"one-region", []*Region{r1}}, {"two-region", []*Region{r1, r2}}}
	for _, sh := range shapes {
		for _, mode := range []CommitMode{Flush, NoFlush, 7} {
			t.Run(fmt.Sprintf("%s/mode=%d", sh.name, mode), func(t *testing.T) {
				tx, err := v.eng.Begin(Restore)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range sh.regs {
					if err := tx.Modify(r, 0, []byte("mode")); err != nil {
						t.Fatal(err)
					}
				}
				before := v.eng.Stats()
				err = tx.Commit(mode)
				if mode == Flush || mode == NoFlush {
					if err != nil {
						t.Fatal(err)
					}
					return
				}
				if err == nil || !strings.Contains(err.Error(), "unknown commit mode") {
					t.Fatalf("Commit(7) = %v, want an unknown-mode error", err)
				}
				if after := v.eng.Stats(); after != before {
					t.Fatalf("a refused commit moved counters:\n before %+v\n after  %+v", before, after)
				}
				if err := tx.Abort(); err != nil {
					t.Fatalf("the transaction is not live after a refused commit: %v", err)
				}
			})
		}
	}
}

// TestLazyAndFlushCommitPhases: phase attribution covers every commit
// shape.  N no-flush commits feed the four front-end phase histograms N
// times and force-wait not at all, and those phases fit inside the commits'
// total latency; N flush commits over two regions feed all five.
func TestLazyAndFlushCommitPhases(t *testing.T) {
	const n = 50
	met := obs.NewMetrics()
	setVar(t, &stallBudget, -1)
	opts := Options{TruncateThreshold: -1, Metrics: met}
	v := newEnv(t, 1<<18, pageBytes(4), opts)
	r1, _ := v.eng.Map(v.segPath, 0, pageBytes(2))
	r2, _ := v.eng.Map(v.segPath, pageBytes(2), pageBytes(2))
	commit := func(mode CommitMode, regs ...*Region) {
		t.Helper()
		tx, err := v.eng.Begin(NoRestore)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range regs {
			if err := tx.Modify(r, 64, []byte("phases")); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(mode); err != nil {
			t.Fatal(err)
		}
	}
	front := func(s *obs.MetricsSnapshot) []obs.HistStat {
		return []obs.HistStat{s.PhaseLockWaitNs, s.PhaseEncodeNs, s.PhasePipeWaitNs, s.PhaseAppendNs}
	}

	for i := 0; i < n; i++ {
		commit(NoFlush, r1)
	}
	s := met.Snapshot()
	var frontSum uint64
	for i, h := range front(s) {
		if h.Count != n {
			t.Errorf("front-end phase %d observed %d times after %d no-flush commits", i, h.Count, n)
		}
		frontSum += uint64(h.Sum)
	}
	if s.PhaseForceWaitNs.Count != 0 {
		t.Errorf("force-wait observed %d times by commits that forced nothing", s.PhaseForceWaitNs.Count)
	}
	if s.CommitNoFlushNs.Count != n || frontSum > uint64(s.CommitNoFlushNs.Sum) {
		t.Errorf("front-end phases sum to %d ns, more than the %d commits' %d ns", frontSum, s.CommitNoFlushNs.Count, s.CommitNoFlushNs.Sum)
	}

	for i := 0; i < n; i++ {
		commit(Flush, r1, r2)
	}
	s = met.Snapshot()
	for i, h := range append(front(s), s.PhaseForceWaitNs) {
		want := uint64(2 * n)
		if i == 4 {
			want = n
		}
		if h.Count != want {
			t.Errorf("phase %d observed %d times after %d no-flush and %d flush commits, want %d", i, h.Count, n, n, want)
		}
	}
}
