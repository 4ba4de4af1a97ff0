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
// disjoint stripes build and replay concurrently.  Everything behind the head
// is in the segments already — truncation and checkpoints write pages before
// they move it — so the one scan builds everything (Restart).
//
// Epoch truncation applies the same procedure to an initial portion of the
// log while forward processing continues in the rest: the same builder
// collects the records while appends are held off, they are applied to
// segments without any lock, and only then is the log head advanced.  A
// restart's trees are such an epoch too (Restart.Redo), which the engine
// applies as its first truncation (Epoch.Overlay until then).
package recovery

import (
	"fmt"
	"runtime"
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
	Records      int    // committed transaction records processed
	Ranges       int    // modification ranges processed
	TreeBytes    uint64 // distinct bytes applied to segments
	RecordBytes  uint64 // bytes carried by the processed records
	Segments     int    // distinct segments written
	WritesMerged int    // maximal intervals written (tree writes)
	ScannedBytes uint64 // log bytes from the head to the tail
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

// applyTrees writes every tree interval of sets to its segment, one worker
// per set, and then syncs the touched segments.  Stats accumulate per
// interval written, not per tree, so a failure mid-segment still reports
// the work done up to it.  met, nil outside crash recovery, shows progress.
func applyTrees(sets []treeSet, lookup SegmentLookup, retry Retry, met *obs.Metrics, st *Stats) error {
	par := len(sets)
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
	// What the windows carried: records counted by the feeder, the rest
	// tallied by whoever is worker 0; read after stop.
	records     int
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
// releases it.  It is a scan's consumer, and never fails.
func (b *builder) feed(win *wal.Window) error {
	b.records += len(win.Recs)
	if b.work == nil {
		if b.inline < inlineBytes {
			for i := range win.Recs {
				b.inline += win.Recs[i].Len
			}
			b.insert(win, 0, 1)
			return nil
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
	return nil
}

// stop ends the workers once they have walked everything fed.  Idempotent.
func (b *builder) stop() {
	for _, c := range b.work {
		close(c)
	}
	b.work = nil
	b.wg.Wait()
}

// epoch stops the builder and returns what it built as an epoch whose Apply
// moves l's head to its tail.
func (b *builder) epoch(l *wal.Log) *Epoch {
	b.stop()
	pos, seq := l.Tail()
	return &Epoch{sets: b.sets, head: epochHead{l, pos, seq},
		stats: Stats{Records: b.records, Ranges: b.ranges, RecordBytes: b.recordBytes}}
}

// Restart is one crash recovery.  Open opens the log and builds redo trees
// from what its tail scan reads, as it reads it; Redo then waits for the
// builders and returns the trees as an epoch, whose Apply empties the log.
// Abort releases a restart that will not finish.
type Restart struct {
	tr  *obs.Tracer
	met *obs.Metrics
	log *wal.Log
	b   *builder
}

// NewRestart starts a recovery that reports to tr and met (both nil-safe);
// met sees the replayed-record gauge climb while the log is scanned.
func NewRestart(cfg Config, tr *obs.Tracer, met *obs.Metrics) *Restart {
	return &Restart{tr: tr, met: met, b: newBuilder(max(cfg.Parallelism, 1))}
}

// Open opens the restart's log on dev; its scan is the open-scan phase.
func (r *Restart) Open(dev wal.Device) (_ *wal.Log, err error) {
	t0 := time.Now()
	if r.log, err = wal.OpenScan(dev, r.consume); err == nil {
		r.met.ObserveOpenScan(time.Since(t0).Nanoseconds())
	}
	return r.log, err
}

// consume takes the windows the log's scan reads and builds from them.
func (r *Restart) consume(w *wal.Window) error {
	r.met.AddRecoveryReplayed(int64(len(w.Recs)))
	return r.b.feed(w)
}

// Abort stops the restart's workers.  Idempotent, and a no-op after Redo.
func (r *Restart) Abort() { r.b.stop() }

// Redo completes the restart once the log is scanned, short of writing
// anything: the builders finish.  It returns the redo as an Epoch, its head
// at the tail the scan found, and Stats whose TreeBytes the epoch's Apply
// will write.  A segment lookup cannot resolve fails it.  On error the
// Stats are partial.
//
// The phases it reports are consecutive stretches of wall time: scan (next
// to nothing: Open scanned the log, and reported that as the open scan) and
// build (waiting for the workers); Apply reports the third, apply, whenever
// it runs.
func (r *Restart) Redo(lookup SegmentLookup) (ep *Epoch, st Stats, err error) {
	defer r.Abort()
	tr, met := r.tr, r.met
	// The replay runs under the recovery stall gate: restart hangs (a dead
	// segment device, a wedged read) surface through the watchdog like any
	// other stalled operation.
	met.OpEnter(obs.StallRecovery)
	defer met.OpExit(obs.StallRecovery)

	t0 := time.Now()
	used := r.log.Used()
	met.SetRecoveryScanBytes(used)
	t1 := time.Now()
	tr.SpanFor(obs.EvRecovScan, t0, t1.Sub(t0).Nanoseconds(), 0, uint64(r.b.records), 0)
	met.ObserveRecoveryScan(t1.Sub(t0).Nanoseconds())

	ep = r.b.epoch(r.log)
	met.ObserveRecoveryBuild(time.Since(t1).Nanoseconds())
	ep.tr, ep.met = tr, met
	ep.stats.ScannedBytes = uint64(used)
	st = ep.stats
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

// RecoverParallel replays the live records of a log that is already open
// onto the external data segments and empties it, before any region is
// mapped: a scan from the head, Redo, then Apply, with cfg.Parallelism
// stripe sets built and applied, reported to no sinks.  retry (optional)
// wraps each storage operation.  On error the returned Stats hold partial
// progress.
func RecoverParallel(l *wal.Log, lookup SegmentLookup, retry Retry, cfg Config) (Stats, error) {
	r := NewRestart(cfg, nil, nil)
	defer r.Abort()
	r.log = l
	pos, seq := l.Head()
	if err := l.Scan(pos, seq, r.consume); err != nil {
		return Stats{}, err
	}
	ep, st, err := r.Redo(lookup)
	if err != nil {
		return st, err
	}
	return ep.Apply(lookup, retry)
}

// CollectEpoch snapshots the log's live records (the "truncation epoch")
// into redo trees, built as a restart builds them, GOMAXPROCS stripe sets
// wide.  Records appended after it form the paper's "current epoch" and keep
// flowing while the epoch is applied, and Apply advances the head to the
// snapshotted tail afterwards (Figure 6).  The caller keeps appends out until
// it returns — the engine holds its pipeline lock, and a replay runs on one
// goroutine — so the tail the scan reaches is the epoch's end.
func CollectEpoch(l *wal.Log) (*Epoch, error) {
	b := newBuilder(runtime.GOMAXPROCS(0))
	defer b.stop()
	pos, seq := l.Head()
	if err := l.Scan(pos, seq, b.feed); err != nil {
		return nil, err
	}
	return b.epoch(l), nil
}

// Epoch is a truncation epoch, or a restart's redo, awaiting application:
// redo trees, and where the log's head goes once they are in the segments.
type Epoch struct {
	sets  []treeSet // stripe-sharded: any page's bytes are in one set, one worker's
	head  epochHead
	stats Stats
	tr    *obs.Tracer  // a restart's: Apply reports recovery's apply phase to
	met   *obs.Metrics // them; a truncation epoch has no sinks
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
	h := e.head
	t0 := time.Now()
	if err := applyTrees(e.sets, lookup, retry, e.met, &e.stats); err != nil {
		return e.stats, err
	}
	ns := time.Since(t0).Nanoseconds()
	e.tr.SpanFor(obs.EvRecovApply, t0, ns, 0, e.stats.TreeBytes, uint64(len(e.sets)))
	e.met.ObserveRecoveryApply(ns)
	if err := retried(retry, func() error { return h.log.SetHead(h.pos, h.seq) }); err != nil {
		return e.stats, err
	}
	return e.stats, nil
}
