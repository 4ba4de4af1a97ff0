// Package recovery implements RVM crash recovery and the epoch-truncation
// reuse of it (paper §5.1.2).
//
// Crash recovery reads the log from tail to head, constructing in-memory
// trees of the latest committed changes for the data segments encountered
// in the log.  The trees are then traversed, applying their modifications
// to the corresponding external data segments.  Finally the log's head and
// tail are updated to reflect an empty log.  Idempotency is achieved by
// delaying that final step until all other recovery actions — including
// syncing the segments — are complete: a crash during recovery simply
// replays it.
//
// Beyond the paper's single-threaded scan, recovery here is split into an
// analysis pass and an apply pass so restart time stays bounded on large
// logs.  Analysis walks the reverse displacements tail-to-head collecting
// record references, stopping at the newest checkpoint record's stable
// sequence number (every older record is already reflected in its
// segment).  The apply pass then decodes records and replays interval
// trees across a worker pool.  Redo order only matters within a page: the
// trees are sharded by 64KB-aligned segment stripes, each stripe's bytes
// are inserted newest-first into exactly one shard and applied by exactly
// one worker, so intra-page ordering is preserved while disjoint stripes
// replay concurrently.
//
// Epoch truncation applies the same procedure to an initial portion of the
// log while forward processing continues in the rest: records are collected
// under the log lock, applied to segments without it, and only then is the
// log head advanced.
package recovery

import (
	"fmt"
	"slices"
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
	// Parallelism is the number of workers decoding, building, and
	// applying redo trees.  Values below 1 mean serial.
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
	ScannedBytes  uint64 // log bytes visited by the analysis pass
	CheckpointSeq uint64 // stable seq of shard 0's bounding checkpoint (0: none)
	// DiscardedPrepares counts cross-shard prepare records whose global
	// commit-ID no shard's commit mark confirmed: the transaction never
	// reached its commit point, so its prepares are dropped on every
	// shard, keeping the crash atomic.
	DiscardedPrepares int
}

// treeSet accumulates ranges into per-segment trees under a policy.
type treeSet map[uint64]*itree.Tree

func (ts treeSet) add(r wal.Range, p itree.Policy) {
	tr := ts[r.Seg]
	if tr == nil {
		tr = &itree.Tree{}
		ts[r.Seg] = tr
	}
	tr.Insert(r.Off, r.Data, p)
}

// apply writes every tree interval to its segment and syncs the touched
// segments.  Stats accumulate per interval written, not per tree, so a
// failure mid-segment still reports the work done up to it.
func (ts treeSet) apply(lookup SegmentLookup, retry Retry, st *Stats) error {
	for segID, tr := range ts {
		seg, err := lookup(segID)
		if err != nil {
			return fmt.Errorf("recovery: segment %d referenced by log: %w", segID, err)
		}
		err = tr.Walk(func(iv itree.Interval) error {
			if err := retried(retry, func() error {
				return seg.WriteAt(iv.Data, int64(iv.Off))
			}); err != nil {
				return err
			}
			st.WritesMerged++
			st.TreeBytes += uint64(len(iv.Data))
			return nil
		})
		if err != nil {
			return err
		}
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

// batchBytes bounds the encoded log bytes decoded and held in memory at
// once during the build pass; trees copy the bytes they keep, so each batch
// decodes into the read windows and records of the one before, and a
// restart allocates a batch of them, not the log.  A restart starts from
// an empty heap, so what it allocates decides how many collector cycles
// fall into it: with the whole log held they were close to half of a
// 15 MB replay and most of its run-to-run spread (EXPERIMENTS.md, PR 14).
// A variable so that tests can cut a small log into many batches.
var batchBytes int64 = 4 << 20

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

// Recover replays the live log onto the external data segments serially
// and resets the log to empty.  It must run before any region is mapped.
// retry (optional) wraps each storage operation.
func Recover(l *wal.Log, lookup SegmentLookup, retry Retry) (Stats, error) {
	return RecoverParallel(l, lookup, retry, Config{})
}

// RecoverParallel is Recover with a worker pool: analysis collects record
// references (bounded by the newest checkpoint), then cfg.Parallelism
// workers decode records, build stripe-sharded redo trees, and replay them
// concurrently.  On error the returned Stats hold partial progress.
func RecoverParallel(l *wal.Log, lookup SegmentLookup, retry Retry, cfg Config) (Stats, error) {
	return RecoverShards([]*wal.Log{l}, lookup, retry, cfg)
}

// RecoverShards replays a sharded engine's logs in parallel.  Analysis
// runs once per shard, the commit marks of every shard are unioned into
// one committed set, and then each shard replays concurrently — a
// prepare record applies only when its global commit-ID is in the union
// (the transaction reached its commit point on some shard before the
// crash), and is discarded otherwise.  The shards' heads advance only
// after every shard has applied and synced, so a crash mid-recovery
// replays all of it.  Distinct shards never log the same page (a region
// lives on exactly one shard for the life of a run), so cross-shard
// apply order is free.  On error the returned Stats hold partial
// progress summed across shards.
func RecoverShards(logs []*wal.Log, lookup SegmentLookup, retry Retry, cfg Config) (Stats, error) {
	par := cfg.Parallelism
	if par < 1 {
		par = 1
	}
	perShard := par / len(logs)
	if perShard < 1 {
		perShard = 1
	}
	var st Stats
	tr := logs[0].Tracer()
	met := logs[0].Metrics()
	// The whole replay runs under the recovery stall gate: restart hangs
	// (a dead segment device, a wedged read) surface through the watchdog
	// like any other stalled operation.
	met.OpEnter(obs.StallRecovery)
	defer met.OpExit(obs.StallRecovery)

	scanStart := tr.Now()
	t0 := time.Now()
	analyses := make([]wal.Analysis, len(logs))
	err := runWorkers(len(logs), func(w int) error {
		an, err := logs[w].AnalyzeBackward()
		analyses[w] = an
		return err
	})
	if err != nil {
		return st, err
	}
	// The commit point of a cross-shard transaction is the first durable
	// commit mark on any shard, so the committed set is the union.
	committed := make(map[uint64]bool)
	var scanned int64
	for _, an := range analyses {
		scanned += an.Scanned
		for _, tid := range an.Committed {
			committed[tid] = true
		}
	}
	st.ScannedBytes = uint64(scanned)
	met.SetRecoveryScanBytes(scanned)
	st.CheckpointSeq = analyses[0].Stable

	// Filter each shard's refs: transaction records always replay;
	// prepares replay only with a confirming commit mark.
	shardRefs := make([][]wal.RecordRef, len(logs))
	for i, an := range analyses {
		refs := an.Refs[:0]
		for _, ref := range an.Refs {
			if ref.Type == wal.RecPrepare && !committed[ref.TID] {
				st.DiscardedPrepares++
				continue
			}
			refs = append(refs, ref)
		}
		shardRefs[i] = refs
		st.Records += len(refs)
	}

	// Replay every shard concurrently.  lookup is not safe for concurrent
	// use, so shard replays share it behind a mutex; segment writes from
	// different shards touch disjoint byte ranges by construction.
	var lookupMu sync.Mutex
	locked := func(segID uint64) (*segment.Segment, error) {
		lookupMu.Lock()
		defer lookupMu.Unlock()
		return lookup(segID)
	}
	scanDur := time.Since(t0).Nanoseconds()
	tr.Span(obs.EvRecovScan, scanStart, 0, uint64(st.Records), st.CheckpointSeq)
	met.ObserveRecoveryScan(scanDur)
	sub := make([]Stats, len(logs))
	err = runWorkers(len(logs), func(w int) error {
		return replayShard(logs[w], shardRefs[w], locked, retry, perShard, met, &sub[w])
	})
	for i := range sub {
		st.Ranges += sub[i].Ranges
		st.RecordBytes += sub[i].RecordBytes
		st.TreeBytes += sub[i].TreeBytes
		st.WritesMerged += sub[i].WritesMerged
		st.Segments += sub[i].Segments
	}
	if err != nil {
		return st, err
	}

	// All recovery actions are complete; only now mark the logs empty.
	// Records older than a shard checkpoint's stable seq were skipped
	// above precisely because they are already in the segments, so each
	// whole live region — prefix included — is safe to discard.
	for _, l := range logs {
		pos, seq := l.Tail()
		if err := retried(retry, func() error { return l.SetHead(pos, seq) }); err != nil {
			return st, err
		}
	}
	return st, nil
}

// replayShard decodes one shard's filtered refs, builds stripe-sharded
// redo trees, and applies them to the segments with par workers.
func replayShard(l *wal.Log, refs []wal.RecordRef, lookup SegmentLookup, retry Retry, par int, met *obs.Metrics, st *Stats) error {
	tr := l.Tracer()
	tb := time.Now()
	shards := make([]treeSet, par)
	readers := make([]*wal.Reader, par)
	for i := range shards {
		shards[i] = make(treeSet)
		rd, err := l.NewReader()
		if err != nil {
			return err
		}
		readers[i] = rd
	}

	// Decode and build in batches: refs are newest-first, and within a
	// shard inserts stay newest-first with KeepExisting, so the earliest
	// insert of a byte — the newest value — wins across batches too.
	var recs []wal.Record
	for lo := 0; lo < len(refs); {
		hi := lo
		var enc int64
		for hi < len(refs) && (hi == lo || enc+refs[hi].Len <= batchBytes) {
			enc += refs[hi].Len
			hi++
		}
		// Each worker decodes one contiguous run of the batch through its
		// own reader, so its device reads are sequential chunks.
		recs = slices.Grow(recs[:0], hi-lo)[:hi-lo]
		per := (hi - lo + par - 1) / par
		err := runWorkers(par, func(w int) error {
			i, j := min(w*per, len(recs)), min((w+1)*per, len(recs))
			return readers[w].ReadRecords(refs[lo+i:lo+j], recs[i:j])
		})
		if err != nil {
			return err
		}
		for i := range recs {
			st.Ranges += len(recs[i].Ranges)
			for _, r := range recs[i].Ranges {
				st.RecordBytes += uint64(len(r.Data))
			}
		}
		// Live progress: a scraper watching a long restart sees the
		// replayed-record gauge climb batch by batch.
		met.AddRecoveryReplayed(int64(hi - lo))
		err = runWorkers(par, func(w int) error {
			for i := range recs {
				for _, r := range recs[i].Ranges {
					off, data := r.Off, r.Data
					for len(data) > 0 {
						n := uint64(len(data))
						if end := (off>>stripeShift + 1) << stripeShift; off+n > end {
							n = end - off
						}
						if par == 1 || shardOf(r.Seg, off, par) == w {
							shards[w].add(wal.Range{Seg: r.Seg, Off: off, Data: data[:n]}, itree.KeepExisting)
						}
						off += n
						data = data[n:]
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		lo = hi
	}
	met.ObserveRecoveryBuild(time.Since(tb).Nanoseconds())

	applyStart := tr.Now()
	ta := time.Now()
	// Resolve every referenced segment before fanning out apply workers.
	segs := make(map[uint64]*segment.Segment)
	for _, ts := range shards {
		for id := range ts {
			if _, ok := segs[id]; ok {
				continue
			}
			seg, err := lookup(id)
			if err != nil {
				return fmt.Errorf("recovery: segment %d referenced by log: %w", id, err)
			}
			segs[id] = seg
		}
	}
	type applyTask struct {
		seg  *segment.Segment
		tree *itree.Tree
	}
	var tasks []applyTask
	for _, ts := range shards {
		for id, t := range ts {
			tasks = append(tasks, applyTask{segs[id], t})
		}
	}
	var nextTask atomic.Int64
	var treeBytes, writesMerged atomic.Uint64
	err := runWorkers(par, func(int) error {
		for {
			i := int(nextTask.Add(1)) - 1
			if i >= len(tasks) {
				return nil
			}
			task := tasks[i]
			err := task.tree.Walk(func(iv itree.Interval) error {
				if err := retried(retry, func() error {
					return task.seg.WriteAt(iv.Data, int64(iv.Off))
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
	})
	// Fold partial progress in before checking the error, so poisoning
	// reports how far redo got.
	st.WritesMerged = int(writesMerged.Load())
	st.TreeBytes = treeBytes.Load()
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if err := retried(retry, seg.Sync); err != nil {
			return err
		}
		st.Segments++
	}
	applyDur := time.Since(ta).Nanoseconds()
	tr.Span(obs.EvRecovApply, applyStart, 0, st.TreeBytes, uint64(par))
	met.ObserveRecoveryApply(applyDur)
	return nil
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
// the second rebuilds the trees inserting plain transaction records and
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
	pos, seq := tailPos, tailSeq
	if limit < seq {
		// The epoch ends early: its head lands at the first record the
		// scan delivers with Seq >= limit, discovered below.
		seq = limit
		pos = -1
	}
	e := &Epoch{trees: make(treeSet), headPos: pos, headSeq: seq, log: l}
	var committed map[uint64]bool
	prepares := false
	stop := fmt.Errorf("stop")
	err := l.ScanForward(func(rec *wal.Record) error {
		if rec.Seq >= seq {
			if e.headPos < 0 {
				// First record past the bound: the epoch's new head.
				// (Wrap records are skipped by the scan but are freed
				// with the epoch since the head lands beyond them.)
				e.headPos = rec.Pos
				e.headSeq = rec.Seq
			}
			// A record at or past the bound (or appended between the
			// Tail snapshot and the scan) belongs to the current epoch,
			// not this truncation.
			return stop
		}
		switch rec.Type {
		case wal.RecTx:
			e.stats.Records++
			for _, r := range rec.Ranges {
				e.stats.Ranges++
				e.stats.RecordBytes += uint64(len(r.Data))
				e.trees.add(r, itree.OverwriteExisting)
			}
		case wal.RecPrepare:
			prepares = true
		case wal.RecCommit:
			if committed == nil {
				committed = make(map[uint64]bool)
			}
			committed[rec.TID] = true
		}
		return nil // checkpoint records carry no segment bytes
	})
	if err != nil && err != stop {
		return nil, err
	}
	if e.headPos < 0 {
		// No live record reached the bound: the epoch is the whole
		// snapshot after all.
		e.headPos, e.headSeq = tailPos, tailSeq
	}
	if !prepares {
		return e, nil
	}
	// Second pass: cross-shard records are present, so rebuild with
	// confirmed prepares merged in at their own positions.  The epoch's
	// end is already fixed; records appended since the first pass fall
	// outside it.
	e.trees = make(treeSet)
	e.stats = Stats{}
	err = l.ScanForward(func(rec *wal.Record) error {
		if rec.Seq >= e.headSeq {
			return stop
		}
		switch rec.Type {
		case wal.RecTx:
		case wal.RecPrepare:
			if !committed[rec.TID] {
				e.stats.DiscardedPrepares++
				return nil
			}
		default:
			return nil
		}
		e.stats.Records++
		for _, r := range rec.Ranges {
			e.stats.Ranges++
			e.stats.RecordBytes += uint64(len(r.Data))
			e.trees.add(r, itree.OverwriteExisting)
		}
		return nil
	})
	if err != nil && err != stop {
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
	if err := e.trees.apply(lookup, retry, &e.stats); err != nil {
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
