// Package recovery implements RVM crash recovery and the epoch-truncation
// reuse of it (paper §5.1.2).
//
// Crash recovery reads the log once, head to tail, constructing in-memory
// trees of the latest committed changes for the data segments encountered
// in the log.  The trees are then traversed, applying their modifications
// to the corresponding external data segments.  Finally the log's head and
// tail are updated to reflect an empty log.  Idempotency is achieved by
// delaying that final step until all other recovery actions — including
// syncing the segments — are complete: a crash during recovery simply
// replays it.
//
// The read is the scan that finds the log's tail (or Log.Scan on a log
// already open): each window of validated records goes straight to a pool
// of tree builders, which insert oldest-first and let a later value
// overwrite an earlier one while the scan reads on.  Redo order only matters
// within a page: the trees are sharded by 64KB-aligned segment stripes, each
// stripe's bytes are inserted in log order into exactly one shard and
// applied by exactly one worker, so intra-page ordering is preserved while
// disjoint stripes build and replay concurrently.  Building from the scan
// stops at a checkpoint record, and a second scan from the checkpoint's
// stable LSN builds the rest (Restart).
//
// Epoch truncation applies the same procedure to an initial portion of the
// log while forward processing continues in the rest: records are collected
// under the log lock, applied to segments without it, and only then is the
// log head advanced.  A restart's trees are such an epoch too (Restart.Redo),
// which the engine applies as its first truncation (Epoch.Overlay until then).
package recovery

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rvm-go/rvm/internal/itree"
	"github.com/rvm-go/rvm/internal/obs"
	"github.com/rvm-go/rvm/internal/segment"
	"github.com/rvm-go/rvm/internal/wal"
)

// SegmentLookup resolves a segment ID found in the log to an open segment.
// It is not required to be safe for concurrent use: recovery resolves
// every segment serially before fanning out apply workers.
type SegmentLookup func(segID uint64) (*segment.Segment, error)

// Retry wraps each storage operation of a recovery or truncation pass
// (segment writes, segment syncs, the final log-head advance), letting the
// engine retry transient faults with its backoff policy.  nil runs the
// operation exactly once.
type Retry func(op func() error) error

// retried runs op under retry when one is supplied.
func retried(retry Retry, op func() error) error {
	if retry == nil {
		return op()
	}
	return retry(op)
}

// Config tunes a recovery pass.
type Config struct {
	// Parallelism is the number of workers building and applying redo
	// trees.  Values below 1 mean one.
	Parallelism int
}

// Stats reports what a recovery or truncation pass did.  On error the
// counters hold the partial progress made before the failure, so a
// poisoning report can say how far redo got.
type Stats struct {
	Records       int    // committed transaction records processed
	Ranges        int    // modification ranges processed
	TreeBytes     uint64 // distinct bytes applied to segments
	RecordBytes   uint64 // bytes carried by the processed records
	Segments      int    // distinct segments written
	WritesMerged  int    // maximal intervals written (tree writes)
	ScannedBytes  uint64 // log bytes from the stable LSN (else the head) to the tail
	CheckpointSeq uint64 // stable seq of the bounding checkpoint (0: none)
}

// treeSet accumulates ranges into per-segment trees, oldest first: a later
// range overwrites what an earlier one left.
type treeSet map[uint64]*itree.Tree

func (ts treeSet) add(r wal.Range) {
	tr := ts[r.Seg]
	if tr == nil {
		tr = &itree.Tree{}
		ts[r.Seg] = tr
	}
	tr.Insert(r.Off, r.Data, itree.OverwriteExisting)
}

// applyTrees writes every tree interval of sets to its segment, par trees
// at a time, and then syncs the touched segments.  Stats accumulate per
// interval written, not per tree, so a failure mid-segment still reports
// the work done up to it.  met, nil outside crash recovery, shows progress.
func applyTrees(sets []treeSet, lookup SegmentLookup, retry Retry, par int, met *obs.Metrics, st *Stats) error {
	type task struct {
		seg  *segment.Segment
		tree *itree.Tree
	}
	// lookup need not be safe for concurrent use: resolve every segment
	// before fanning out.
	segs := make(map[uint64]*segment.Segment)
	var tasks []task
	for _, ts := range sets {
		for id, t := range ts {
			if segs[id] == nil {
				seg, err := lookup(id)
				if err != nil {
					return fmt.Errorf("recovery: segment %d referenced by log: %w", id, err)
				}
				segs[id] = seg
			}
			tasks = append(tasks, task{segs[id], t})
		}
	}
	var treeBytes, writesMerged atomic.Uint64
	err := runWorkers(par, func(w int) error {
		for i := w; i < len(tasks); i += par {
			seg := tasks[i].seg
			err := tasks[i].tree.Walk(func(iv itree.Interval) error {
				if err := retried(retry, func() error {
					return seg.WriteAt(iv.Data, int64(iv.Off))
				}); err != nil {
					return err
				}
				writesMerged.Add(1)
				treeBytes.Add(uint64(len(iv.Data)))
				met.AddRecoveryApplyBytes(int64(len(iv.Data)))
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	// Fold partial progress in before checking the error, so poisoning
	// reports how far redo got.
	st.WritesMerged += int(writesMerged.Load())
	st.TreeBytes += treeBytes.Load()
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if err := retried(retry, seg.Sync); err != nil {
			return err
		}
		st.Segments++
	}
	return nil
}

// stripeShift is the log2 width of the shard stripes: every 64KB-aligned
// stripe of a segment belongs to exactly one shard, so any page's bytes
// are built into and applied from exactly one tree by one worker.
const stripeShift = 16

// shardOf maps a (segment, offset) stripe to a shard index.
func shardOf(seg, off uint64, par int) int {
	h := seg*0x9e3779b97f4a7c15 + off>>stripeShift
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(par))
}

// runWorkers runs fn(w) for w in [0, n) concurrently and returns the
// first error.
func runWorkers(n int, fn func(w int) error) error {
	if n == 1 {
		return fn(0)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(w)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// inlineBytes is how much of a log its feeder builds itself before workers
// take over.  Handing a window to another goroutine gains when a second
// processor is free at that moment and loses when it is not; over a few
// megabytes that varies a restart's length by more than it can shorten it
// (EXPERIMENTS.md, PR 22).  A variable for the tests.
var inlineBytes int64 = 4 << 20

// builder builds one log's redo trees, stripe-sharded into one set per apply
// worker, in the order its windows are fed: a later value overwrites an
// earlier one, so feeding in log order is all newest-wins takes.  The first
// inlineBytes of records are built by the goroutine that feeds them; past
// that, workers build while the log is still being read, every one walking
// every window and inserting the stripes of the sets it owns.
type builder struct {
	sets   []treeSet
	work   []chan *wal.Window // worker w's queue; nil while there are no workers
	wg     sync.WaitGroup
	inline int64 // record bytes the feeder built
	// What the windows carried, tallied by whoever is worker 0; read after stop.
	ranges      int
	recordBytes uint64
}

func newBuilder(par int) *builder {
	b := &builder{sets: make([]treeSet, par)}
	for s := range b.sets {
		b.sets[s] = make(treeSet)
	}
	return b
}

// insert adds the window's ranges, cut at stripe boundaries, to the sets
// worker w of n owns — set s where s%n == w — and releases the window.
func (b *builder) insert(win *wal.Window, w, n int) {
	par := len(b.sets)
	for i := range win.Recs {
		for _, r := range win.Recs[i].Ranges {
			if w == 0 {
				b.ranges++
				b.recordBytes += uint64(len(r.Data))
			}
			off, data := r.Off, r.Data
			for len(data) > 0 {
				m := uint64(len(data))
				if end := (off>>stripeShift + 1) << stripeShift; off+m > end {
					m = end - off
				}
				if s := shardOf(r.Seg, off, par); s%n == w {
					b.sets[s].add(wal.Range{Seg: r.Seg, Off: off, Data: data[:m]})
				}
				off += m
				data = data[m:]
			}
		}
	}
	win.Release()
}

// feed builds from the window's records, the next in log order: itself, or
// once there are workers by queueing it for each; the last one through
// releases it.
func (b *builder) feed(win *wal.Window) {
	if b.work == nil {
		if b.inline < inlineBytes {
			for i := range win.Recs {
				b.inline += win.Recs[i].Len
			}
			b.insert(win, 0, 1)
			return
		}
		// The feeder is reading the log on a processor of its own, so the
		// workers are one fewer than the sets.
		n := max(len(b.sets)-1, 1)
		b.work = make([]chan *wal.Window, n)
		for w := range b.work {
			// As many slots as a scan has windows out, so that the scan waits
			// for a window to come back, never on a queue.
			c := make(chan *wal.Window, wal.ScanWindows)
			b.work[w] = c
			b.wg.Add(1)
			go func() {
				defer b.wg.Done()
				for win := range c {
					b.insert(win, w, n)
				}
			}()
		}
	}
	win.Share(len(b.work))
	for _, c := range b.work {
		c <- win
	}
}

// stop ends the workers once they have walked everything fed.  Idempotent.
func (b *builder) stop() {
	for _, c := range b.work {
		close(c)
	}
	b.work = nil
	b.wg.Wait()
}

// Restart is one crash recovery.  Open opens the log and builds redo trees
// from what its tail scan reads, as it reads it; Redo then builds what the
// scan had to leave for later and returns the trees as an epoch, which
// Finish also applies, emptying the log.  Abort releases a restart that will
// not finish.
type Restart struct {
	par       int // stripe sets, and apply workers
	met       *obs.Metrics
	scanNs    int64 // spent scanning a log that was already open
	log       *wal.Log
	an        wal.Analysis
	b         *builder
	deferFrom uint64 // seq of the first record not built from the scan; 0: none
	records   int    // transaction records built from the scan
}

// NewRestart starts a recovery.  met (nil-safe) is the registry the log
// gets too; it sees the replayed-record gauge climb while the log is
// scanned.
func NewRestart(cfg Config, met *obs.Metrics) *Restart {
	par := max(cfg.Parallelism, 1)
	return &Restart{par: par, met: met, b: newBuilder(par)}
}

// Open opens the restart's log on dev.
func (r *Restart) Open(dev wal.Device) (*wal.Log, error) {
	var err error
	r.log, r.an, err = wal.OpenScan(dev, r.consume)
	return r.log, err
}

// consume takes the windows the log's scan reads.  It builds from every
// record up to the first checkpoint record, which means the trees built so
// far reach below what redo has to consider.  What follows is left in the
// log for a second scan (remainder).
func (r *Restart) consume(w *wal.Window) error {
	n, txs := 0, 0
	for n < len(w.Recs) && r.deferFrom == 0 {
		switch w.Recs[n].Type {
		case wal.RecCheckpoint:
			r.deferFrom = w.Recs[n].Seq
			continue
		case wal.RecTx:
			txs++
		}
		n++
	}
	if w.Recs = w.Recs[:n]; n == 0 {
		w.Release()
		return nil
	}
	r.records += txs
	r.met.AddRecoveryReplayed(int64(txs))
	r.b.feed(w)
	return nil
}

// Abort stops the restart's workers.  Idempotent, and a no-op after Finish.
func (r *Restart) Abort() { r.b.stop() }

// remainder builds what the scan left for later: a second scan, from the
// checkpoint record the first one stopped at to the tail.
func (r *Restart) remainder(st *Stats) error {
	from := r.deferFrom
	if _, head := r.log.Head(); r.an.Stable > head {
		// A checkpoint bounds redo at its stable LSN: every older record
		// is reflected in its segment.  The scan could not know while it
		// built from the head, so those trees go and redo starts over at
		// the bound — which is what keeps a checkpointed restart bounded
		// by the log written since, not by the live log.  A stable LSN the
		// head has since moved past bounds nothing: the trees stand.
		r.b.stop()
		r.b = newBuilder(r.par)
		r.met.AddRecoveryReplayed(-int64(r.records))
		r.records, from = 0, r.an.Stable
	}
	st.Records = r.records
	if from == 0 {
		return nil
	}
	if _, next := r.log.Tail(); from > next {
		from = next // a stable LSN past the tail leaves nothing to redo
	}
	_, err := r.log.Scan(r.an.Pos(from), from, func(w *wal.Window) error {
		n := st.Records
		for i := range w.Recs {
			if w.Recs[i].Type == wal.RecTx {
				st.Records++
			}
		}
		r.met.AddRecoveryReplayed(int64(st.Records - n))
		r.b.feed(w)
		return nil
	})
	return err
}

// Redo completes the restart once the log is scanned, short of writing
// anything: the builders finish.  It returns the redo as an Epoch, its head
// at the tail the scan found, and Stats whose TreeBytes the epoch's Apply
// will write.  A segment lookup cannot resolve fails it.  On error the
// Stats are partial.
//
// The phases it reports are consecutive stretches of wall time: scan (the
// second scan, next to nothing when the first built everything; plus any
// scan of a log already open) and build (waiting for the workers); Apply
// reports the third, apply, whenever it runs.
func (r *Restart) Redo(lookup SegmentLookup) (ep *Epoch, st Stats, err error) {
	defer r.Abort()
	tr, met := r.log.Tracer(), r.met
	// The replay runs under the recovery stall gate: restart hangs (a dead
	// segment device, a wedged read) surface through the watchdog like any
	// other stalled operation.
	met.OpEnter(obs.StallRecovery)
	defer met.OpExit(obs.StallRecovery)

	scanStart, t0 := tr.Now(), time.Now()
	st.ScannedBytes = uint64(r.an.Scanned)
	met.SetRecoveryScanBytes(r.an.Scanned)
	st.CheckpointSeq = r.an.Stable
	if err = r.remainder(&st); err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	tr.Span(obs.EvRecovScan, scanStart, 0, uint64(st.Records), st.CheckpointSeq)
	met.ObserveRecoveryScan(r.scanNs + t1.Sub(t0).Nanoseconds())

	r.b.stop()
	st.Ranges, st.RecordBytes = r.b.ranges, r.b.recordBytes
	// Records older than a checkpoint's stable seq were skipped above
	// precisely because they are already in the segments, so the whole live
	// region — prefix included — goes with the epoch.
	pos, seq := r.log.Tail()
	ep = &Epoch{sets: r.b.sets, par: r.par, head: epochHead{r.log, pos, seq}, restart: true}
	met.ObserveRecoveryBuild(time.Since(t1).Nanoseconds())
	ep.stats = st
	for _, ts := range ep.sets {
		for id, t := range ts {
			st.TreeBytes += t.Bytes()
			if _, err := lookup(id); err != nil {
				return nil, st, fmt.Errorf("recovery: segment %d referenced by log: %w", id, err)
			}
		}
	}
	return ep, st, nil
}

// Finish is Redo, then the epoch's Apply: the trees are applied and the
// segments synced, and only then does the log's head advance, so a crash
// mid-recovery replays all of it.  retry (optional) wraps each storage
// operation.  On error the returned Stats hold partial progress.
func (r *Restart) Finish(lookup SegmentLookup, retry Retry) (Stats, error) {
	ep, st, err := r.Redo(lookup)
	if err != nil {
		return st, err
	}
	return ep.Apply(lookup, retry)
}

// Recover replays the live log onto the external data segments with one
// build worker and resets the log to empty.  It must run before any region
// is mapped.  retry (optional) wraps each storage operation.
func Recover(l *wal.Log, lookup SegmentLookup, retry Retry) (Stats, error) {
	return RecoverParallel(l, lookup, retry, Config{})
}

// RecoverParallel is Recover with cfg.Parallelism workers building and
// replaying stripe-sharded redo trees, on a log that is already open: it is
// scanned from its head to its known tail.  On error the returned Stats
// hold partial progress.
func RecoverParallel(l *wal.Log, lookup SegmentLookup, retry Retry, cfg Config) (Stats, error) {
	r := NewRestart(cfg, l.Metrics())
	defer r.Abort()
	t0 := time.Now()
	r.log = l
	pos, seq := l.Head()
	var err error
	if r.an, err = l.Scan(pos, seq, r.consume); err != nil {
		return Stats{}, err
	}
	r.scanNs = time.Since(t0).Nanoseconds()
	return r.Finish(lookup, retry)
}

// CollectEpoch snapshots the log's current live records (the "truncation
// epoch") into per-segment trees, oldest-first.  Records appended after the
// snapshot form the paper's "current epoch" and keep flowing while the
// epoch is applied: collection takes the log lock only for the scan, and
// Apply advances the head to the snapshotted tail afterwards (Figure 6).
func CollectEpoch(l *wal.Log) (*Epoch, error) {
	tailPos, tailSeq := l.Tail()
	trees := make(treeSet)
	e := &Epoch{sets: []treeSet{trees}, par: 1, head: epochHead{l, tailPos, tailSeq}}
	stop := fmt.Errorf("stop")
	err := l.ScanForward(func(rec *wal.Record) error {
		if rec.Seq >= tailSeq {
			// A record appended between the Tail snapshot and the scan
			// belongs to the current epoch, not this truncation.  (Wrap
			// records are skipped by the scan but are freed with the epoch
			// since the head lands beyond them.)
			return stop
		}
		if rec.Type != wal.RecTx {
			return nil // checkpoint records carry no segment bytes
		}
		e.stats.Records++
		for _, r := range rec.Ranges {
			e.stats.Ranges++
			e.stats.RecordBytes += uint64(len(r.Data))
			trees.add(r)
		}
		return nil
	})
	if err != nil && err != stop {
		return nil, err
	}
	return e, nil
}

// Epoch is a truncation epoch, or a restart's redo, awaiting application:
// redo trees, and where the log's head goes once they are in the segments.
type Epoch struct {
	sets    []treeSet // stripe-sharded: any page's bytes are in one set
	par     int       // apply workers
	head    epochHead
	restart bool // a restart's redo: Apply reports recovery's apply phase
	stats   Stats
}

// epochHead is the log's head move after an Apply.
type epochHead struct {
	log *wal.Log
	pos int64  // the tail snapshot: new head after Apply
	seq uint64 // sequence number expected at the new head
}

// Records returns the number of transaction records in the epoch.
func (e *Epoch) Records() int { return e.stats.Records }

// EndSeq returns the first sequence number NOT in the epoch: records with
// Seq < EndSeq are truncated by Apply.
func (e *Epoch) EndSeq() uint64 { return e.head.seq }

// Overlay copies the epoch's bytes of segment seg in [off, off+len(dst)) to
// their place in dst: laid over the segment's image of the range, they make
// what the segment will hold once the epoch is applied.
func (e *Epoch) Overlay(seg uint64, off int64, dst []byte) {
	for _, ts := range e.sets {
		if t := ts[seg]; t != nil {
			t.Overlay(dst, uint64(off))
		}
	}
}

// Apply writes the epoch's changes to the segments, syncs them, and then
// advances the log's head past the epoch.  retry (optional) wraps each
// storage operation.
func (e *Epoch) Apply(lookup SegmentLookup, retry Retry) (Stats, error) {
	var tr *obs.Tracer
	var met *obs.Metrics
	h := e.head
	if e.restart {
		tr, met = h.log.Tracer(), h.log.Metrics()
	}
	start, t0 := tr.Now(), time.Now()
	if err := applyTrees(e.sets, lookup, retry, e.par, met, &e.stats); err != nil {
		return e.stats, err
	}
	tr.Span(obs.EvRecovApply, start, 0, e.stats.TreeBytes, uint64(e.par))
	met.ObserveRecoveryApply(time.Since(t0).Nanoseconds())
	if err := retried(retry, func() error { return h.log.SetHead(h.pos, h.seq) }); err != nil {
		return e.stats, err
	}
	return e.stats, nil
}
