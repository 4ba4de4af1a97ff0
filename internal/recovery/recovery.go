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
// stops at the first record whose effect it cannot decide yet — a
// cross-shard prepare or a checkpoint record — and a second scan from there,
// or from the checkpoint's stable LSN, builds the rest (Restart).
//
// Epoch truncation applies the same procedure to an initial portion of the
// log while forward processing continues in the rest: records are collected
// under the log lock, applied to segments without it, and only then is the
// log head advanced.
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
	// trees, shared out among the logs.  Values below 1 mean one.
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
	CheckpointSeq uint64 // stable seq of shard 0's bounding checkpoint (0: none)
	// DiscardedPrepares counts cross-shard prepare records whose global
	// commit-ID no shard's commit mark confirmed: the transaction never
	// reached its commit point, so its prepares are dropped on every
	// shard, keeping the crash atomic.
	DiscardedPrepares int
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

// Restart is one crash recovery, of one log or of a sharded engine's logs
// together.  Open opens log i and builds redo trees from what its tail scan
// reads, as it reads it; Finish then builds what the scans had to leave for
// later, applies the trees and empties the logs.  Abort releases a restart
// that will not finish.
type Restart struct {
	par    int // stripe sets, and apply workers, per log
	met    *obs.Metrics
	scanNs int64 // spent scanning logs that were already open
	shards []restartShard
}

// restartShard is one log's part of a Restart.
type restartShard struct {
	log       *wal.Log
	an        wal.Analysis
	b         *builder
	deferFrom uint64 // seq of the first record not built from the scan; 0: none
	records   int    // transaction records built from the scan
}

// NewRestart starts the recovery of nlogs logs.  met (nil-safe) is the
// registry the logs get too; it sees the replayed-record gauge climb while
// they are scanned.
func NewRestart(nlogs int, cfg Config, met *obs.Metrics) *Restart {
	r := &Restart{par: max(cfg.Parallelism/nlogs, 1), met: met, shards: make([]restartShard, nlogs)}
	for i := range r.shards {
		r.shards[i].b = newBuilder(r.par)
	}
	return r
}

// Open opens log i of the restart on dev.
func (r *Restart) Open(i int, dev wal.Device) (*wal.Log, error) {
	sh := &r.shards[i]
	var err error
	sh.log, sh.an, err = wal.OpenScan(dev, r.consumer(i))
	return sh.log, err
}

// consumer returns the function log i's scan hands its windows to.  It
// builds from every record up to the first one whose effect the scan cannot
// decide: a cross-shard prepare applies only if some shard — maybe one not
// scanned yet — holds its commit mark, and a checkpoint record means the
// trees built so far reach below what redo has to consider.  What follows
// is left in the log for a second scan (remainder).
func (r *Restart) consumer(i int) func(*wal.Window) error {
	sh := &r.shards[i]
	return func(w *wal.Window) error {
		n, txs := 0, 0
		for n < len(w.Recs) && sh.deferFrom == 0 {
			switch w.Recs[n].Type {
			case wal.RecPrepare, wal.RecCheckpoint:
				sh.deferFrom = w.Recs[n].Seq
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
		sh.records += txs
		r.met.AddRecoveryReplayed(int64(txs))
		sh.b.feed(w)
		return nil
	}
}

// Abort stops the restart's workers.  Idempotent, and a no-op after Finish.
func (r *Restart) Abort() {
	for i := range r.shards {
		r.shards[i].b.stop()
	}
}

// remainder builds what the shard's scan left for later, now that every
// shard's commit marks are known: a second scan, from the first record the
// first one could not decide to the tail.
func (r *Restart) remainder(i int, committed map[uint64]bool, st *Stats) error {
	sh, met := &r.shards[i], r.met
	from := sh.deferFrom
	if _, head := sh.log.Head(); sh.an.Stable > head {
		// A checkpoint bounds redo at its stable LSN: every older record
		// is reflected in its segment.  The scan could not know while it
		// built from the head, so those trees go and redo starts over at
		// the bound — which is what keeps a checkpointed restart bounded
		// by the log written since, not by the live log.  A stable LSN the
		// head has since moved past bounds nothing: the trees stand.
		sh.b.stop()
		sh.b = newBuilder(r.par)
		met.AddRecoveryReplayed(-int64(sh.records))
		sh.records, from = 0, sh.an.Stable
	}
	st.Records = sh.records
	if from == 0 {
		return nil
	}
	if _, next := sh.log.Tail(); from > next {
		from = next // a stable LSN past the tail leaves nothing to redo
	}
	_, err := sh.log.Scan(sh.an.Pos(from), from, func(w *wal.Window) error {
		n := st.Records
		for i := range w.Recs {
			// Transaction records always replay; prepares only with a
			// confirming commit mark on some shard.
			switch rec := &w.Recs[i]; {
			case rec.Type == wal.RecTx, rec.Type == wal.RecPrepare && committed[rec.TID]:
				st.Records++
			case rec.Type == wal.RecPrepare:
				st.DiscardedPrepares++
				rec.Ranges = rec.Ranges[:0]
			}
		}
		met.AddRecoveryReplayed(int64(st.Records - n))
		sh.b.feed(w)
		return nil
	})
	return err
}

// Finish completes the restart once every log is scanned: a prepare record
// applies only when its global commit-ID is in the union of all shards'
// commit marks (the transaction reached its commit point on some shard
// before the crash) and is discarded otherwise; the trees are applied and
// the segments synced; and only then do the logs' heads advance, so a
// crash mid-recovery replays all of it.  Distinct shards never log the
// same page (a region lives on exactly one shard for the life of a run),
// so cross-shard apply order is free.  retry (optional) wraps each storage
// operation.  On error the returned Stats hold partial progress.
//
// The phases it reports are consecutive stretches of wall time: scan (the
// second scans, next to nothing when the first built everything; plus any
// scan of a log already open), build (waiting for the workers), apply.
func (r *Restart) Finish(lookup SegmentLookup, retry Retry) (st Stats, err error) {
	defer r.Abort()
	tr, met := r.shards[0].log.Tracer(), r.met
	// The replay runs under the recovery stall gate: restart hangs (a dead
	// segment device, a wedged read) surface through the watchdog like any
	// other stalled operation.
	met.OpEnter(obs.StallRecovery)
	defer met.OpExit(obs.StallRecovery)

	scanStart, t0 := tr.Now(), time.Now()
	// The commit point of a cross-shard transaction is the first durable
	// commit mark on any shard, so the committed set is the union.
	committed := make(map[uint64]bool)
	var scanned int64
	for i := range r.shards {
		scanned += r.shards[i].an.Scanned
		for _, tid := range r.shards[i].an.Committed {
			committed[tid] = true
		}
	}
	st.ScannedBytes = uint64(scanned)
	met.SetRecoveryScanBytes(scanned)
	st.CheckpointSeq = r.shards[0].an.Stable
	sub := make([]Stats, len(r.shards))
	err = runWorkers(len(r.shards), func(i int) error {
		return r.remainder(i, committed, &sub[i])
	})
	for i := range sub {
		st.Records += sub[i].Records
		st.DiscardedPrepares += sub[i].DiscardedPrepares
	}
	if err != nil {
		return st, err
	}
	t1 := time.Now()
	tr.Span(obs.EvRecovScan, scanStart, 0, uint64(st.Records), st.CheckpointSeq)
	met.ObserveRecoveryScan(r.scanNs + t1.Sub(t0).Nanoseconds())

	var sets []treeSet
	for i := range r.shards {
		b := r.shards[i].b
		b.stop()
		sets = append(sets, b.sets...)
		st.Ranges += b.ranges
		st.RecordBytes += b.recordBytes
	}
	applyStart, t2 := tr.Now(), time.Now()
	met.ObserveRecoveryBuild(t2.Sub(t1).Nanoseconds())

	par := r.par * len(r.shards)
	err = applyTrees(sets, lookup, retry, par, met, &st)
	if err != nil {
		return st, err
	}
	tr.Span(obs.EvRecovApply, applyStart, 0, st.TreeBytes, uint64(par))
	met.ObserveRecoveryApply(time.Since(t2).Nanoseconds())

	// All recovery actions are complete; only now mark the logs empty.
	// Records older than a shard checkpoint's stable seq were skipped
	// above precisely because they are already in the segments, so each
	// whole live region — prefix included — is safe to discard.
	for i := range r.shards {
		l := r.shards[i].log
		pos, seq := l.Tail()
		if err := retried(retry, func() error { return l.SetHead(pos, seq) }); err != nil {
			return st, err
		}
	}
	return st, nil
}

// Recover replays the live log onto the external data segments with one
// build worker and resets the log to empty.  It must run before any region
// is mapped.  retry (optional) wraps each storage operation.
func Recover(l *wal.Log, lookup SegmentLookup, retry Retry) (Stats, error) {
	return RecoverParallel(l, lookup, retry, Config{})
}

// RecoverParallel is Recover with cfg.Parallelism workers building and
// replaying stripe-sharded redo trees.  On error the returned Stats hold
// partial progress.
func RecoverParallel(l *wal.Log, lookup SegmentLookup, retry Retry, cfg Config) (Stats, error) {
	return RecoverShards([]*wal.Log{l}, lookup, retry, cfg)
}

// RecoverShards is a Restart over logs that are already open: each is
// scanned from its head to its known tail, all of them concurrently.
func RecoverShards(logs []*wal.Log, lookup SegmentLookup, retry Retry, cfg Config) (Stats, error) {
	r := NewRestart(len(logs), cfg, logs[0].Metrics())
	defer r.Abort()
	t0 := time.Now()
	err := runWorkers(len(logs), func(i int) (err error) {
		sh := &r.shards[i]
		sh.log = logs[i]
		pos, seq := sh.log.Head()
		sh.an, err = sh.log.Scan(pos, seq, r.consumer(i))
		return err
	})
	if err != nil {
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
	return CollectEpochBounded(l, ^uint64(0))
}

// CollectEpochBounded is CollectEpoch with an upper sequence bound: no
// record with Seq >= limit enters the epoch.  A sharded engine passes
// the bound computed from its in-flight cross-shard transactions
// (epochBoundPipeLocked) so an epoch never separates a prepare record
// from the commit mark that decides it.
//
// When the epoch contains cross-shard records, collection runs two
// passes: the first notes which commit-IDs have a mark inside the epoch,
// the second builds the trees inserting plain transaction records and
// confirmed prepares each at their own log position — per-page redo order
// is exactly log order, because region locks serialize same-region
// appends regardless of where a transaction's commit mark later lands.
// A prepare with no mark in the epoch is discarded: the engine's bound
// keeps every undecided or committed prepare with its mark, so an
// unpaired prepare can only be the remnant of a cleanly aborted
// cross-shard commit, and its bytes must not reach the segments.  The
// common case — no prepares — stays single-pass.
func CollectEpochBounded(l *wal.Log, limit uint64) (*Epoch, error) {
	tailPos, tailSeq := l.Tail()
	// An epoch that ends early ends at the first record the scan delivers
	// with Seq >= limit, discovered below; headPos < 0 until then.
	e := &Epoch{headPos: tailPos, headSeq: tailSeq, log: l}
	if limit < tailSeq {
		e.headPos, e.headSeq = -1, limit
	}
	committed := make(map[uint64]bool)
	prepares := false
	stop := fmt.Errorf("stop")
	pass := func() error {
		e.trees, e.stats = make(treeSet), Stats{}
		err := l.ScanForward(func(rec *wal.Record) error {
			if rec.Seq >= e.headSeq {
				// A record at or past the bound (or appended between the
				// Tail snapshot and the scan) belongs to the current
				// epoch, not this truncation; the first one is the new
				// head.  (Wrap records are skipped by the scan but are
				// freed with the epoch since the head lands beyond them.)
				if e.headPos < 0 {
					e.headPos, e.headSeq = rec.Pos, rec.Seq
				}
				return stop
			}
			switch rec.Type {
			case wal.RecTx:
			case wal.RecPrepare:
				prepares = true
				if !committed[rec.TID] {
					e.stats.DiscardedPrepares++
					return nil
				}
			case wal.RecCommit:
				committed[rec.TID] = true
				return nil
			default:
				return nil // checkpoint records carry no segment bytes
			}
			e.stats.Records++
			for _, r := range rec.Ranges {
				e.stats.Ranges++
				e.stats.RecordBytes += uint64(len(r.Data))
				e.trees.add(r)
			}
			return nil
		})
		if err == stop {
			err = nil
		}
		if e.headPos < 0 {
			// No live record reached the bound: the epoch is the whole
			// snapshot after all.
			e.headPos, e.headSeq = tailPos, tailSeq
		}
		return err
	}
	err := pass()
	if err == nil && prepares {
		// Cross-shard records are present and a mark follows its prepare:
		// build again, now that the epoch's marks are known and its end is
		// fixed (records appended since fall outside it).
		err = pass()
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Epoch is a collected truncation epoch awaiting application.
type Epoch struct {
	log     *wal.Log
	trees   treeSet
	headPos int64  // the tail snapshot: new head after Apply
	headSeq uint64 // sequence number expected at the new head
	stats   Stats
}

// Records returns the number of transaction records in the epoch.
func (e *Epoch) Records() int { return e.stats.Records }

// EndSeq returns the first sequence number NOT in the epoch (records with
// Seq < EndSeq are truncated by Apply).
func (e *Epoch) EndSeq() uint64 { return e.headSeq }

// Apply writes the epoch's changes to the segments, syncs them, and then
// advances the log head past the epoch.  retry (optional) wraps each
// storage operation.
func (e *Epoch) Apply(lookup SegmentLookup, retry Retry) (Stats, error) {
	if err := applyTrees([]treeSet{e.trees}, lookup, retry, 1, nil, &e.stats); err != nil {
		return e.stats, err
	}
	err := retried(retry, func() error {
		return e.log.SetHead(e.headPos, e.headSeq)
	})
	if err != nil {
		return e.stats, err
	}
	return e.stats, nil
}
