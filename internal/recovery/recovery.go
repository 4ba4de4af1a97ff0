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
// already open), and the trees are built on its goroutine as it reads: each
// window's ranges are inserted oldest-first, a later value overwriting an
// earlier one, into one tree per segment.  Everything behind the head is in
// the segments already — truncation and checkpoints write pages before they
// move it — so the one scan builds everything (Restart).
//
// Epoch truncation applies the same procedure to an initial portion of the
// log while forward processing continues in the rest: the same build
// collects the records while appends are held off, they are applied to
// segments without any lock, and only then is the log head advanced.  A
// restart's trees are such an epoch too (Restart.Redo), which the engine
// applies as its first truncation (Epoch.Overlay until then).
package recovery

import (
	"fmt"
	"time"

	"github.com/rvm-go/rvm/internal/itree"
	"github.com/rvm-go/rvm/internal/obs"
	"github.com/rvm-go/rvm/internal/segment"
	"github.com/rvm-go/rvm/internal/wal"
)

// SegmentLookup resolves a segment ID found in the log to an open segment.
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

// Config is RecoverParallel's last parameter, kept for its callers.
type Config struct {
	// Parallelism is read by nothing: redo is built on the scan's goroutine
	// and applied on the caller's.  ROADMAP item 7 deletes it and Config.
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

// applyTrees writes every tree interval of ts to its segment and then syncs
// the touched segments.  Stats accumulate per interval written, not per tree,
// so a failure mid-segment still reports the work done up to it.  met, nil
// outside crash recovery, shows progress.
func applyTrees(ts treeSet, lookup SegmentLookup, retry Retry, met *obs.Metrics, st *Stats) error {
	segs := make([]*segment.Segment, 0, len(ts))
	for id, t := range ts {
		seg, err := lookup(id)
		if err != nil {
			return fmt.Errorf("recovery: segment %d referenced by log: %w", id, err)
		}
		segs = append(segs, seg)
		if err := t.Walk(func(iv itree.Interval) error {
			if err := retried(retry, func() error {
				return seg.WriteAt(iv.Data, int64(iv.Off))
			}); err != nil {
				return err
			}
			st.WritesMerged++
			st.TreeBytes += uint64(len(iv.Data))
			met.AddRecoveryApplyBytes(int64(len(iv.Data)))
			return nil
		}); err != nil {
			return err
		}
	}
	for _, seg := range segs {
		if err := retried(retry, seg.Sync); err != nil {
			return err
		}
		st.Segments++
	}
	return nil
}

// add builds the redo from the records of one window a scan reads, the next
// in log order: a later value overwrites an earlier one, so adding in log
// order is all newest-wins takes.  It is a scan's consumer, and never fails.
func (e *Epoch) add(recs []wal.Record) error {
	e.stats.Records += len(recs)
	for i := range recs {
		for _, r := range recs[i].Ranges {
			e.stats.Ranges++
			e.stats.RecordBytes += uint64(len(r.Data))
			t := e.trees[r.Seg]
			if t == nil {
				t = &itree.Tree{}
				e.trees[r.Seg] = t
			}
			t.Insert(r.Off, r.Data, itree.OverwriteExisting)
		}
	}
	return nil
}

// Restart is one crash recovery.  Open opens the log and builds the redo
// trees from what its tail scan reads, as it reads it; Redo then returns the
// trees as an epoch, whose Apply empties the log.
type Restart struct {
	tr  *obs.Tracer
	met *obs.Metrics
	log *wal.Log
	ep  *Epoch
}

// NewRestart starts a recovery that reports to tr and met (both nil-safe);
// met sees the replayed-record gauge climb while the log is scanned.
func NewRestart(tr *obs.Tracer, met *obs.Metrics) *Restart {
	return &Restart{tr: tr, met: met, ep: &Epoch{trees: make(treeSet), tr: tr, met: met}}
}

// Open opens the restart's log on dev; its scan, which builds the redo, is
// the recovery-scan phase.
func (r *Restart) Open(dev wal.Device) (_ *wal.Log, err error) {
	t0 := time.Now()
	if r.log, err = wal.OpenScan(dev, r.consume); err == nil {
		ns := time.Since(t0).Nanoseconds()
		r.tr.SpanFor(obs.EvRecovScan, t0, ns, 0, uint64(r.ep.stats.Records), 0)
		r.met.ObserveRecoveryScan(ns)
		r.met.SetRecoveryScanBytes(r.log.Used())
	}
	return r.log, err
}

// consume takes the records the log's scan reads and builds from them.
func (r *Restart) consume(recs []wal.Record) error {
	r.met.AddRecoveryReplayed(int64(len(recs)))
	return r.ep.add(recs)
}

// Redo completes the restart once the log is scanned, short of writing
// anything.  It returns the redo as an Epoch, its head at the tail the scan
// found, and Stats whose TreeBytes the epoch's Apply will write.  A segment
// lookup cannot resolve fails it.  On error the Stats are partial.  The
// phases reported are the scan, which Open ran, and the apply, which Apply
// reports whenever it runs.
func (r *Restart) Redo(lookup SegmentLookup) (ep *Epoch, st Stats, err error) {
	ep = r.ep
	ep.head = tailOf(r.log)
	ep.stats.ScannedBytes = uint64(r.log.Used())
	st = ep.stats
	for id, t := range ep.trees {
		st.TreeBytes += t.Bytes()
		if _, err := lookup(id); err != nil {
			return nil, st, fmt.Errorf("recovery: segment %d referenced by log: %w", id, err)
		}
	}
	return ep, st, nil
}

// RecoverParallel replays the live records of a log that is already open
// onto the external data segments and empties it, before any region is
// mapped: a scan from the head, Redo, then Apply, reported to no sinks.
// retry (optional) wraps each storage operation; cfg is read by nothing.  On
// error the returned Stats hold partial progress.
func RecoverParallel(l *wal.Log, lookup SegmentLookup, retry Retry, cfg Config) (Stats, error) {
	r := NewRestart(nil, nil)
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
// into redo trees, built as a restart builds them.  Records appended after
// it form the paper's "current epoch" and keep flowing while the epoch is
// applied, and Apply advances the head to the snapshotted tail afterwards
// (Figure 6).  The caller keeps appends out until it returns — the engine
// holds its pipeline lock, and a replay runs on one goroutine — so the tail
// the scan reaches is the epoch's end.
func CollectEpoch(l *wal.Log) (*Epoch, error) {
	e := &Epoch{trees: make(treeSet)}
	pos, seq := l.Head()
	if err := l.Scan(pos, seq, e.add); err != nil {
		return nil, err
	}
	e.head = tailOf(l)
	return e, nil
}

// Epoch is a truncation epoch, or a restart's redo, awaiting application:
// redo trees, and where the log's head goes once they are in the segments.
type Epoch struct {
	trees treeSet
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

// tailOf is the head move to l's tail.
func tailOf(l *wal.Log) epochHead {
	pos, seq := l.Tail()
	return epochHead{l, pos, seq}
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
	if t := e.trees[seg]; t != nil {
		t.Overlay(dst, uint64(off))
	}
}

// Apply writes the epoch's changes to the segments, syncs them, and then
// advances the log's head past the epoch.  retry (optional) wraps each
// storage operation.
func (e *Epoch) Apply(lookup SegmentLookup, retry Retry) (Stats, error) {
	h := e.head
	t0 := time.Now()
	if err := applyTrees(e.trees, lookup, retry, e.met, &e.stats); err != nil {
		return e.stats, err
	}
	ns := time.Since(t0).Nanoseconds()
	e.tr.SpanFor(obs.EvRecovApply, t0, ns, 0, e.stats.TreeBytes, 0)
	e.met.ObserveRecoveryApply(ns)
	if err := retried(retry, func() error { return h.log.SetHead(h.pos, h.seq) }); err != nil {
		return e.stats, err
	}
	return e.stats, nil
}
