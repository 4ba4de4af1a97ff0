// Package core implements the RVM transaction engine: segment and region
// management, the transaction lifecycle with intra- and inter-transaction
// optimizations, the commit path, crash recovery at startup, and log
// truncation: the page cleaner, reverting to an epoch when it is blocked.
//
// An engine owns exactly one write-ahead log, as the paper's RVM does
// (DESIGN.md §15).  Several logs on several devices are several engines,
// and atomicity across engines is a library layered on them (package
// rvmdist, the paper's §8).
//
// There is one commit path, (*Tx).commit in tx.go, as the paper's
// end_transaction is one procedure with a commit_mode flag: under the
// region locks the transaction's ranges go through the log pipeline in one
// section — spooled for a lazy (no-flush) commit the spool can take, else
// appended as one record behind the spool's, the drain — and then the log
// is forced holding no lock.  A failed append — a full log or a transient
// fault — is retried in one place for commits and spool flushes alike, once
// the locks are released (retryAppend).  There is one force protocol too:
// a flush commit, Flush and an epoch truncation all force through one ticket
// (waitForced in groupcommit.go), the page cleaner's write-ahead force alone
// takes none, and both run the one force helper (force), which times it.
//
// The public github.com/rvm-go/rvm package is a thin facade over this
// engine; the split keeps the paper's machinery in one place while the
// facade carries the documented, stable API.
//
// # Lock hierarchy
//
// The engine scales across CPUs by never taking a global lock on the
// transaction hot path.  Three lock levels exist, acquired strictly in
// this order (DESIGN.md §12):
//
//		e.mu (Engine)  >  r.mu (Region, ascending index)  >  e.pipe.mu (log pipeline)
//
//	  - e.mu is the truncation claim's lock: it is held only to take the
//	    claim, give it back, or wait for it (claimTruncation,
//	    releaseTruncation, Close).  The claim's holder — a truncation,
//	    Map, Unmap or Close — owns the segment table (segs and the
//	    dictionary), the regions slice and the pending redo with no lock
//	    held.  Begin/SetRange/Commit/Abort, Query and Snapshot never touch
//	    e.mu.
//	  - r.mu is per-region: it guards r.data stability, r.nTx, r.mapped,
//	    and the uncommitted reference counts (r.refs), so a count checked
//	    under it gates the page copy made under it.  Transactions on
//	    disjoint regions share no lock.
//	  - e.pipe.mu is the log pipeline: it serializes buildRanges-to-append
//	    ordering, the spool, and the truncation queue.  It is the innermost
//	    engine lock; holding it while acquiring a region lock is a
//	    lock-order inversion (flagged by the rvmcheck lockorder analyzer).
//
// groupCommit's mutex and wal.Log's are leaves below all three.  Every
// engine lock is a plain sync.Mutex.  What a commit waits for them is
// timed by its phases (lock_wait, pipe_wait, gc_follower; DESIGN.md §14);
// any lock's contention, with its call stack, is in Go's mutex profile.
// The engine is the only emitter, outside every lock: the log observes
// nothing.  No fsync runs under any engine lock (locksync).  Engine-wide
// counters, the active-transaction count, the transaction-ID source, the
// poisoned/closed flags and the last truncation failure are atomics.
package core

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rvm-go/rvm/internal/mapping"
	"github.com/rvm-go/rvm/internal/obs"
	"github.com/rvm-go/rvm/internal/pagevec"
	"github.com/rvm-go/rvm/internal/recovery"
	"github.com/rvm-go/rvm/internal/segment"
	"github.com/rvm-go/rvm/internal/wal"
)

// Errors returned by the engine.
var (
	ErrClosed         = errors.New("rvm: engine is closed")
	ErrTxDone         = errors.New("rvm: transaction already committed or aborted")
	ErrRegionUnmapped = errors.New("rvm: region is not mapped") // or is another engine's
	ErrUncommitted    = errors.New("rvm: region has uncommitted transactions outstanding")
	ErrNoRestoreAbort = errors.New("rvm: cannot abort a no-restore transaction")
	ErrBounds         = errors.New("rvm: range outside region")
	ErrOverlap        = errors.New("rvm: mapping overlaps an existing region of the segment")
	ErrBadAlignment   = errors.New("rvm: region offset and length must be page multiples")
	ErrActiveTx       = errors.New("rvm: transactions still active")
)

// Options configures an Engine.
type Options struct {
	// LogPath is the write-ahead log file.  Required unless LogDevice is
	// set, in which case LogPath only names the segment dictionary.
	LogPath string
	// LogDevice overrides the log storage.  Tests inject fault devices;
	// harnesses that count log bytes or time phases run the log on an
	// iofault.Mem, whose Sync is free, for every force syncs its device.
	LogDevice wal.Device
	// SegmentDevice wraps the storage behind each segment the engine
	// opens, mirroring LogDevice for the segment side of the seam; tests
	// inject fault devices.  nil uses the bare file.
	SegmentDevice segment.DeviceWrap
	// Backend selects region memory: the Go heap, anonymous mmap, or a
	// copy-on-write mapping of the segment file (mapping.DemandPaging).
	Backend mapping.Backend
	// TruncateThreshold is the fraction of log capacity that triggers a
	// background truncation after a commit (paper §4.2 set_options knob).
	// Zero or negative disables automatic truncation.
	TruncateThreshold float64
	// Incremental and GroupCommit are read by nothing: background
	// truncation always stops at half the threshold (paper §5.1.2), and a
	// flush commit that leads a log force always waits out the join window
	// (joinWindow).  They stay only for the benchmark harness, which still
	// sets them; ROADMAP item 7 deletes them.
	Incremental bool
	GroupCommit bool
	// Tracer records typed engine events (commits, forces, truncation
	// phases, recovery, faults) into a fixed-size ring.  nil disables
	// tracing at zero cost.
	Tracer *obs.Tracer
	// Metrics aggregates latency/size histograms and live gauges.  nil
	// disables metrics at zero cost.
	Metrics *obs.Metrics
}

// statsOf is the one declaration of the engine's cumulative counters
// (obs/declare.go explains the tags): Statistics is it on plain uint64s,
// the engine's live counters are it on atomics, so the two cannot drift
// and Stats() is a positional load.
type statsOf[T any] struct {
	Begins             T `json:"begins" prom:"rvm_tx_begins_total" help:"Transactions begun."`
	FlushCommits       T `json:"flush_commits" prom:"rvm_tx_flush_commits_total" help:"Commits in flush mode."`
	NoFlushCommits     T `json:"noflush_commits" prom:"rvm_tx_noflush_commits_total" help:"Commits in no-flush (lazy) mode."`
	Aborts             T `json:"aborts" prom:"rvm_tx_aborts_total" help:"Explicit aborts."`
	SetRanges          T `json:"set_ranges" prom:"rvm_tx_set_ranges_total" help:"Set-range calls."`
	EmptyCommits       T `json:"empty_commits" prom:"rvm_tx_empty_commits_total" help:"Commits that logged nothing."`
	LogBytes           T `json:"log_bytes" prom:"rvm_log_appended_bytes_total" help:"Record bytes appended to the log."`
	LogForces          T `json:"log_forces" prom:"rvm_log_forces_total" help:"Log fsyncs on the commit/flush path."`
	IntraSavedBytes    T `json:"intra_saved_bytes" prom:"rvm_log_intra_saved_bytes_total" help:"Log bytes avoided by intra-transaction optimization."`
	InterSavedBytes    T `json:"inter_saved_bytes" prom:"rvm_log_inter_saved_bytes_total" help:"Log bytes avoided by inter-transaction optimization."`
	DrainSavedBytes    T `json:"drain_saved_bytes" prom:"rvm_log_drain_saved_bytes_total" help:"Log bytes avoided by logging each spooled byte once per drain."`
	DiffSavedBytes     T `json:"diff_saved_bytes" prom:"rvm_log_diff_saved_bytes_total" help:"Log bytes avoided by leaving out the declared words a restore transaction did not change."`
	Flushes            T `json:"flushes" prom:"rvm_spool_flushes_total" help:"Explicit or implicit spool flushes."`
	EpochTruncs        T `json:"epoch_truncs" prom:"rvm_truncation_epochs_total" help:"Epoch truncations completed."`
	EpochTruncsLogFull T `json:"epoch_truncs_log_full" prom:"rvm_truncation_epochs_log_full_total" help:"Epoch truncations run because an append found the log full (the rest ran for a blocked page cleaner)."`
	IncrSteps          T `json:"incr_steps" prom:"rvm_truncation_incr_steps_total" help:"Incremental truncation page write-outs."`
	PagesWritten       T `json:"pages_written" prom:"rvm_pages_written_total" help:"Pages written to segments by truncation and unmap."`
	Recoveries         T `json:"recoveries" prom:"rvm_recoveries_total" help:"Recoveries performed at open."`
	RecoveredBytes     T `json:"recovered_bytes" prom:"rvm_recovery_applied_bytes_total" help:"Bytes applied to segments during recovery."`
	RecoveryScanned    T `json:"recovery_scanned" prom:"rvm_recovery_scanned_bytes_total" help:"Log bytes recovery had to consider (head to tail)."`
	Retries            T `json:"retries" prom:"rvm_io_retries_total" help:"Transient storage faults retried."`
	TruncFailures      T `json:"trunc_failures" prom:"rvm_truncation_failures_total" help:"Background truncations that failed."`
	ForcesSaved        T `json:"forces_saved" prom:"rvm_group_commit_forces_saved_total" help:"Flush commits acknowledged by another committer's force."`
	GroupCommitSize    T `json:"group_commit_size" prom:"rvm_group_commit_max_batch" help:"Largest number of flush commits covered by one force."`
	JoinExpired        T `json:"join_expired" prom:"rvm_group_commit_join_expired_total" help:"Force-leader join waits that ran out before the predicted committers arrived."`
}

// Statistics are cumulative counters since Open, in the spirit of the real
// RVM's rvm_statistics call.
type Statistics statsOf[uint64]

// String renders the counters as a compact multi-line summary, so tools
// stop hand-formatting the struct.
func (s Statistics) String() string {
	var b strings.Builder
	_ = obs.WriteText(&b, s) // a Builder cannot fail, and the declaration is checked by tests
	return strings.TrimSuffix(b.String(), "\n")
}

// counters are the engine's cumulative statistics as atomics, so the
// transaction hot path and background truncation bump them without any
// lock.  The four Stats() derives from the log and the group-commit state
// (LogBytes, LogForces, ForcesSaved, GroupCommitSize) stay zero here.
type counters = statsOf[atomic.Uint64]

// pipeline is the log-pipeline stage: the serialization point every
// commit passes through.  Its mutex orders record appends (and with them
// the truncation-queue pushes and spool drains that must keep log order),
// and guards the spool and the incremental-truncation queue.  It is the
// innermost engine lock: code holding pipe.mu must not acquire e.mu or any
// Region lock, and must never fsync.
type pipeline struct {
	mu sync.Mutex
	// The spool (spool.go): committed no-flush transactions not yet in the
	// log, in commit order, every one of them until a drain empties it.
	spool       []*spooled
	spoolBytes  int64    // log cost of the entries
	mem         spoolMem // what entries are cut from
	drain       drainScratch
	queue       pagevec.Queue
	epochEndSeq uint64 // while an epoch truncation is in flight: its EndSeq
}

// Engine is an open RVM instance: one log plus any number of mapped
// regions.  All methods are safe for concurrent use.
type Engine struct {
	opts       Options // immutable after Open (runtime knobs below are atomics)
	spoolLimit int64   // spoolLimit, capped at Open (spool.go)

	// The log and the commit machinery in front of it: the pipeline lock
	// and spool, and the group-commit ticket state.
	log  *wal.Log
	pipe pipeline
	gc   groupCommit // group-commit ticket state (own mutex; see groupcommit.go)

	// Books that finished transactions handed back, for Begin to take
	// (tx.go).  Each slot is taken with a Swap, so two Begins never share
	// one; a finish that finds every slot full drops its books.
	books [4]atomic.Pointer[txBooks]

	// The truncation claim (claimTruncation), and its lock: mu guards only
	// the claim.
	mu         sync.Mutex
	cond       *sync.Cond  // signalled when the claim is released
	truncating atomic.Bool // the claim; written under mu

	// State of the truncation claim: its holder reads and writes these
	// with no lock.  The regions slice is read by the pipeline too, so it
	// also changes under pipe.mu, and pipe.mu alone suffices to read it.
	segs    map[uint64]*segment.Segment // open segments by ID
	paths   map[uint64]string           // the segment dictionary (dict.go) as it is on disk
	regions []*Region                   // index = region handle; nil after unmap
	// pending is the redo of the restart that opened the engine, not yet in
	// the segments (applyPending).
	pending *recovery.Epoch
	page    []byte // the cleaner's copy of the page it writes (clean)

	nextTID  atomic.Uint64
	active   atomic.Int64 // transactions begun and not yet resolved
	closed   atomic.Bool
	poisoned atomic.Pointer[boxedErr] // non-nil after an unrecoverable I/O error
	truncErr atomic.Pointer[boxedErr] // most recent background-truncation failure

	// The runtime-adjustable truncation threshold (SetOptions), read
	// lock-free on the commit path.
	truncThreshold atomic.Uint64 // math.Float64bits

	// The stall watchdog (stall.go), never started when disabled.
	stallLoop bgLoop

	// Observability sinks (nil-safe) from Options.  Emission runs under no
	// mutex: call sites emit what they captured after unlocking (obsleak).
	tr  *obs.Tracer
	met *obs.Metrics

	stats counters
}

// bgLoop is a background goroutine that calls a function on every tick
// until stop is called.  The zero value is a loop that was never started.
type bgLoop struct {
	quit chan struct{}
	done chan struct{}
	once sync.Once
}

func (l *bgLoop) start(tick time.Duration, fn func()) {
	l.quit = make(chan struct{})
	l.done = make(chan struct{})
	go func() {
		defer close(l.done)
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-l.quit:
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

// stop ends the loop and waits for it to exit.  Idempotent; a no-op when
// the loop was never started.
func (l *bgLoop) stop() {
	if l.quit == nil {
		return
	}
	l.once.Do(func() {
		close(l.quit)
		<-l.done
	})
}

// boxedErr wraps an error for atomic publication.
type boxedErr struct{ err error }

// Region is a mapped region of an external data segment.  Its memory is
// exposed via Data; applications read and write it directly, bracketing
// writes with SetRange inside a transaction.
//
// The region's own mutex is level 2 of the lock hierarchy: transactions
// touching only this region contend on it and on the pipeline lock,
// never on a global lock.  When a transaction spans several regions,
// their locks are taken in ascending index order.
type Region struct {
	eng    *Engine
	idx    int
	seg    *segment.Segment
	segOff int64 // region start within the segment's data space
	length int64
	// spoolRefs counts, per page, the spool entries referencing it:
	// bytes committed but not yet logged, which keep the page out of its
	// segment.  Guarded by eng.pipe.mu.
	spoolRefs []int32

	mu     sync.Mutex // guards data/buf stability, refs, nTx, mapped
	buf    *mapping.Buffer
	data   []byte
	nTx    int // active transactions with ranges in this region
	mapped bool
	// refs counts, per page, the open transactions with ranges on it (the
	// uncommitted reference count of the paper's Figure 7): a page with any
	// must not reach its segment.
	refs []int32
	// ends counts the transactions that committed or aborted over the
	// region.  A restore transaction leaves its unchanged words out of the
	// log (Tx.buildRanges) while ends is what it was at its first touch.
	ends uint64
}

// Open opens (or re-opens) an RVM instance on an existing log, performing
// crash recovery before returning: it builds the redo, which the first
// truncation writes to the segments, and Map presents until then.  The log
// must have been created with CreateLog.
func Open(opts Options) (*Engine, error) {
	// The dictionary comes first: a store it does not describe is refused
	// before the log is opened or anything is written.
	paths, err := loadDict(dictPath(opts.LogPath))
	if err != nil {
		return nil, err
	}
	redo := recovery.NewRestart(opts.Tracer, opts.Metrics)
	dev := opts.LogDevice
	if dev == nil {
		f, err := os.OpenFile(opts.LogPath, os.O_RDWR, 0)
		if err != nil {
			return nil, fmt.Errorf("rvm: open log: %w", err)
		}
		dev = f
	}
	lg, err := redo.Open(dev)
	if err != nil {
		if opts.LogDevice == nil {
			dev.Close()
		}
		return nil, err
	}
	e := &Engine{
		opts:       opts,
		spoolLimit: min(spoolLimit, lg.AreaSize()/4-wal.EncodedLen(nil)),
		log:        lg,
		segs:       make(map[uint64]*segment.Segment),
		paths:      paths,
		page:       make([]byte, mapping.PageSize),
		tr:         opts.Tracer,
		met:        opts.Metrics,
	}
	e.nextTID.Store(1)
	e.truncThreshold.Store(math.Float64bits(opts.TruncateThreshold))
	e.cond = sync.NewCond(&e.mu)
	e.gc.cond = sync.NewCond(&e.gc.mu)
	if lg.Used() > 0 {
		ep, st, err := redo.Redo(e.lookupSegment)
		if err != nil {
			e.closeFiles()
			return nil, fmt.Errorf("rvm: recovery: %w", err)
		}
		e.stats.Recoveries.Store(1)
		e.stats.RecoveredBytes.Store(st.TreeBytes)
		e.stats.RecoveryScanned.Store(st.ScannedBytes)
		// The redo is the run's first truncation epoch (DESIGN.md §13).
		e.pending = ep
	}
	if e.met != nil && stallBudget >= 0 {
		e.startStallWatchdog(stallBudget)
	}
	return e, nil
}

// CreateLog creates a new write-ahead log of the given record-area size.
func CreateLog(path string, size int64) error { return wal.Create(path, size) }

// CreateSegment creates a new external data segment file.
func CreateSegment(path string, id uint64, length int64) error {
	s, err := segment.Create(path, id, length)
	if err != nil {
		return err
	}
	return s.Close()
}

func dictPath(logPath string) string { return logPath + ".segs" }

// lookupSegment resolves a segment ID via the dictionary, opening and
// caching the segment.  Used by recovery and truncation.  Caller holds the
// truncation claim (or is the only goroutine, at Open).
func (e *Engine) lookupSegment(id uint64) (*segment.Segment, error) {
	if s, ok := e.segs[id]; ok {
		return s, nil
	}
	path, ok := e.paths[id]
	if !ok {
		return nil, fmt.Errorf("rvm: segment %d not in dictionary", id)
	}
	s, err := segment.OpenWith(path, e.opts.SegmentDevice)
	if err != nil {
		return nil, err
	}
	if s.ID() != id {
		s.Close()
		return nil, fmt.Errorf("rvm: %s holds segment %d, dictionary says %d", path, s.ID(), id)
	}
	e.segs[id] = s
	return s, nil
}

// Map maps the region [segOff, segOff+length) of the external data segment
// at segPath into memory.  The offset and length must be page multiples,
// the range must lie inside the segment, and it must not overlap any
// currently mapped region of the same segment (paper §4.1 restrictions).
// The returned region's memory holds the committed image of the range.
//
// Map runs under the truncation claim and holds no lock otherwise: the
// claim serializes it against truncation, Unmap, Close and other Maps, and
// owns the segment table and the regions slice, so the durable and bulk
// work — persisting the segment dictionary (which fsyncs) and copying the
// committed image in — never stalls a Begin or Commit, which do not take
// the claim.
func (e *Engine) Map(segPath string, segOff, length int64) (*Region, error) {
	if err := e.claimTruncation(); err != nil {
		return nil, err
	}
	defer e.releaseTruncation()

	if !mapping.IsAligned(segOff) || !mapping.IsAligned(length) || length <= 0 {
		return nil, fmt.Errorf("%w: off=%d len=%d", ErrBadAlignment, segOff, length)
	}
	abs, err := filepath.Abs(segPath)
	if err != nil {
		return nil, fmt.Errorf("rvm: resolve %s: %w", segPath, err)
	}
	var seg *segment.Segment
	for _, s := range e.segs {
		if s.Path() == abs {
			seg = s
		}
	}
	if seg == nil {
		seg, err = segment.OpenWith(abs, e.opts.SegmentDevice)
		if err != nil {
			return nil, err
		}
		if other, ok := e.segs[seg.ID()]; ok {
			seg.Close()
			return nil, fmt.Errorf("rvm: segment id %d already open from %s", other.ID(), other.Path())
		}
		e.segs[seg.ID()] = seg
	}
	if segOff+length > seg.Length() {
		return nil, fmt.Errorf("%w: [%d,+%d) exceeds segment length %d", ErrBounds, segOff, length, seg.Length())
	}
	if r := e.overlap(seg.ID(), segOff, length); r != nil {
		return nil, fmt.Errorf("%w: [%d,+%d) vs existing [%d,+%d)", ErrOverlap, segOff, length, r.segOff, r.length)
	}

	// Persist the dictionary entry before any log record can reference
	// this segment, that is, before the region exists.  The new version is
	// published only once it is durable.  A failure here poisons the
	// engine: the in-memory dictionary and its durable copy could otherwise
	// diverge, leaving future log records referencing a segment recovery
	// cannot find.
	if cur, ok := e.paths[seg.ID()]; !ok || cur != abs {
		paths := maps.Clone(e.paths)
		paths[seg.ID()] = abs
		if err := persistEntries(dictPath(e.opts.LogPath), paths); err != nil {
			return nil, e.maybePoison(err)
		}
		e.paths = paths
	}
	var buf *mapping.Buffer
	switch e.opts.Backend {
	case mapping.DemandPaging:
		// Copy-on-write file mapping: the committed image pages in on
		// demand.  Sound because truncation only ever writes file pages
		// the application has already written, or a pending redo laid
		// over them below (hence already copied privately).
		buf, err = seg.MapPrivate(segOff, length)
		if err != nil {
			return nil, err
		}
	default:
		buf, err = mapping.New(length, e.opts.Backend)
		if err != nil {
			return nil, err
		}
		// Mapping copies the committed image from the external data
		// segment into memory (paper §4.1: copying occurs when a region
		// is mapped).  Transient read faults are retried; a persistent
		// failure aborts the Map but does not poison — no durable state
		// has been touched.
		if err := e.retryIO(func() error { return seg.ReadAt(buf.Data(), segOff) }); err != nil {
			buf.Free()
			return nil, err
		}
	}
	if e.pending != nil {
		// The restart's redo is not in the segment yet: it goes over the
		// image, not dirty, since applying the redo writes those bytes.
		e.pending.Overlay(seg.ID(), segOff, buf.Data())
	}

	// Publish the region.  A commit can poison the engine while Map runs,
	// so poisoning is rechecked.
	if err := e.check(); err != nil {
		buf.Free()
		return nil, err
	}
	r := &Region{
		eng:       e,
		idx:       len(e.regions),
		seg:       seg,
		segOff:    segOff,
		length:    length,
		buf:       buf,
		data:      buf.Data(),
		spoolRefs: make([]int32, length/int64(mapping.PageSize)),
		refs:      make([]int32, length/int64(mapping.PageSize)),
		mapped:    true,
	}
	e.pipe.mu.Lock()
	e.regions = append(e.regions, r)
	e.pipe.mu.Unlock()
	return r, nil
}

// overlap returns a mapped region of segment id overlapping
// [off, off+length), or nil.  Caller holds the truncation claim.
func (e *Engine) overlap(id uint64, off, length int64) *Region {
	for _, r := range e.regions {
		if r != nil && r.seg.ID() == id &&
			off < r.segOff+r.length && r.segOff < off+length {
			return r
		}
	}
	return nil
}

// Unmap unmaps a quiescent region: no uncommitted transaction may have
// ranges in it.  Committed no-flush changes are flushed to the log and the
// region's queued pages are written to its segment before the memory is
// released, so a subsequent Map sees the committed image.
func (e *Engine) Unmap(r *Region) error {
	if err := e.check(); err != nil {
		return err
	}
	// Claim the truncation slot: unmapping mutates the same page/queue
	// state a truncation walks, and the claim keeps the regions slice
	// stable for the claim holder.
	if err := e.claimTruncation(); err != nil {
		return err
	}
	r.mu.Lock()
	if !r.mapped || r.eng != e {
		r.mu.Unlock()
		e.releaseTruncation()
		return ErrRegionUnmapped
	}
	if n := r.nTx; n > 0 {
		r.mu.Unlock()
		e.releaseTruncation()
		return fmt.Errorf("%w: %d active", ErrUncommitted, n)
	}
	// Seal the region: new SetRanges fail, so nTx cannot grow while the
	// flush and page write-out below run without the region lock held.
	r.mapped = false
	r.mu.Unlock()
	fail := func(err error) error {
		r.mu.Lock()
		r.mapped = true
		r.mu.Unlock()
		e.releaseTruncation()
		return e.maybePoison(err)
	}
	// Spooled commits may reference this region's memory state; make them
	// durable first so the page write-out below cannot expose committed-
	// but-unlogged bytes (no-undo/redo invariant).
	if err := e.flushSpool(true); err != nil {
		return fail(err)
	}
	// With the spool flushed, the region's dirty pages are its queued ones.
	// The region is sealed and the truncation slot claimed, so they and the
	// region's memory are stable: no transaction is open on it or can
	// begin, and no cleaner runs.  Each is written straight from memory and
	// synced with no lock held.
	var dirty []int64
	e.pipe.mu.Lock()
	e.pipe.queue.Walk(func(d pagevec.Descriptor) {
		if d.ID.Region == r.idx {
			dirty = append(dirty, d.ID.Page)
		}
	})
	e.pipe.mu.Unlock()
	if len(dirty) > 0 {
		if err := e.applyPending(); err != nil {
			return fail(err)
		}
		for _, pg := range dirty {
			if err := e.writePage(r, pg, r.pageBytes(pg)); err != nil {
				return fail(err)
			}
		}
		if err := e.retryIO(r.seg.Sync); err != nil {
			return fail(err)
		}
	}
	e.pipe.mu.Lock()
	e.pipe.queue.RemoveRegion(r.idx)
	e.regions[r.idx] = nil
	e.pipe.mu.Unlock()
	r.mu.Lock()
	r.data = nil
	buf := r.buf
	r.buf = nil
	r.mu.Unlock()
	err := buf.Free()
	e.releaseTruncation()
	return err
}

// claimTruncation blocks until it owns the truncation slot.  The slot
// serializes truncations, Map, Unmap, and Close against each other, and
// its holder owns the segment table, the regions slice and the pending
// redo, and has stable reads of region mapped-state.  The commit path
// never takes it.
func (e *Engine) claimTruncation() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.truncating.Load() {
		e.cond.Wait()
	}
	if err := e.check(); err != nil {
		return err
	}
	e.truncating.Store(true)
	return nil
}

// releaseTruncation gives the slot back and wakes waiters.
func (e *Engine) releaseTruncation() {
	e.mu.Lock()
	e.truncating.Store(false)
	e.cond.Broadcast()
	e.mu.Unlock()
}

// Data returns the region's mapped memory.  Reads need no RVM
// intervention; writes must be covered by a SetRange of an active
// transaction to be recoverable.
func (r *Region) Data() []byte { return r.data }

// pageBytes returns page pg of the region's memory.
func (r *Region) pageBytes(pg int64) []byte {
	ps := int64(mapping.PageSize)
	return r.data[pg*ps : (pg+1)*ps]
}

// Length returns the region length in bytes.
func (r *Region) Length() int64 { return r.length }

// SegmentID returns the ID of the backing external data segment.
func (r *Region) SegmentID() uint64 { return r.seg.ID() }

// SegmentOffset returns the region's start offset within the segment.
func (r *Region) SegmentOffset() int64 { return r.segOff }

// QueryInfo describes the state of a region or of the engine.
type QueryInfo struct {
	UncommittedTxs int    // transactions with unresolved ranges in the region
	DirtyPages     int    // pages with committed changes not yet in the segment
	QueuedPages    int    // pages in the incremental-truncation queue
	LogUsed        int64  // live log bytes
	LogSize        int64  // log record-area capacity
	SpoolBytes     int64  // committed no-flush bytes not yet in the log
	ActiveTxs      int    // engine-wide unresolved transactions
	Poisoned       bool   // engine is fail-stopped on an unrecoverable I/O error
	TruncFailures  uint64 // background truncations that failed
	LastFault      error  // poisoning root cause, or last background-truncation failure
}

// Query reports engine state; if r is non-nil the region fields are filled
// in for it (paper §4.2 query primitive).
func (e *Engine) Query(r *Region) (QueryInfo, error) {
	if e.closed.Load() {
		return QueryInfo{}, ErrClosed
	}
	qi := QueryInfo{
		ActiveTxs:     int(e.active.Load()),
		Poisoned:      e.poisonCause() != nil,
		TruncFailures: e.stats.TruncFailures.Load(),
		LogUsed:       e.log.Used(),
		LogSize:       e.log.AreaSize(),
		LastFault:     e.lastFault(),
	}
	p := &e.pipe
	p.mu.Lock()
	qi.SpoolBytes = p.spoolBytes
	if r != nil && r.eng == e {
		qi.QueuedPages, qi.DirtyPages = e.pagesPipeLocked(r)
	}
	p.mu.Unlock()
	if r != nil {
		r.mu.Lock()
		if !r.mapped || r.eng != e {
			r.mu.Unlock()
			return QueryInfo{}, ErrRegionUnmapped
		}
		qi.UncommittedTxs = r.nTx
		r.mu.Unlock()
	}
	return qi, nil
}

// pagesPipeLocked counts r's queued pages and its dirty ones: those with
// committed bytes not yet in the segment, which are exactly the pages queued
// at the record that first references them or referenced by a spool entry
// (DESIGN.md §12).  Caller holds e.pipe.mu.
func (e *Engine) pagesPipeLocked(r *Region) (queued, dirty int) {
	for pg, n := range r.spoolRefs {
		q := e.pipe.queue.Has(pagevec.PageID{Region: r.idx, Page: int64(pg)})
		if q {
			queued++
		}
		if q || n > 0 {
			dirty++
		}
	}
	return queued, dirty
}

// SetOptions adjusts tunables at runtime (paper §4.2 set_options).  Only
// the truncation threshold may change after Open.
func (e *Engine) SetOptions(truncateThreshold float64) {
	e.truncThreshold.Store(math.Float64bits(truncateThreshold))
}

// Stats returns a snapshot of the cumulative counters.  The counters are
// independent atomics, so a concurrent snapshot is not a single instant;
// resolution counters (commits, aborts) are loaded before begins so the
// "resolved ≤ begun" identity holds in every snapshot (a transaction
// bumps begins strictly before it can bump a resolution counter).
func (e *Engine) Stats() Statistics {
	var st Statistics
	obs.Load(&st, &e.stats) // last field first: Begins is declared first
	ls := e.log.Stats()
	st.LogBytes, st.LogForces = ls.BytesAppended, ls.Forces
	e.gc.mu.Lock()
	st.ForcesSaved, st.GroupCommitSize = e.gc.saved, e.gc.maxBatch
	e.gc.mu.Unlock()
	return st
}

// Snapshot is the engine's full observable state at one moment: the
// cumulative counters, histogram summaries and gauges (when metrics are
// enabled), and the live levels every deployment needs to watch.  It is
// JSON-marshalable; rvmstat renders it and the debug HTTP handler serves
// it.
type Snapshot struct {
	Stats       Statistics           `json:"stats"`
	Metrics     *obs.MetricsSnapshot `json:"metrics,omitempty"`
	LogUsed     int64                `json:"log_used" prom:"rvm_log_used_bytes" help:"Live bytes in the log area."`
	LogSize     int64                `json:"log_size" prom:"rvm_log_size_bytes" help:"Size of the log area."`
	SpoolBytes  int64                `json:"spool_bytes" prom:"rvm_spool_bytes" help:"Committed no-flush bytes awaiting the log."`
	ActiveTxs   int                  `json:"active_txs" prom:"rvm_active_txs" help:"Transactions currently active."`
	DirtyPages  int                  `json:"dirty_pages" prom:"rvm_dirty_pages" help:"Mapped pages with unreflected changes."`
	TraceEvents uint64               `json:"trace_events,omitempty" prom:"rvm_trace_events_total" help:"Trace events ever recorded."`
	Truncating  bool                 `json:"truncating" prom:"rvm_truncating" help:"1 while a truncation holds the slot."`
	Poisoned    bool                 `json:"poisoned" prom:"rvm_poisoned" help:"1 after a fail-stop storage fault."`
}

// Snapshot assembles the counters, metric summaries, and live levels.
// The levels are computed here, each from its one source — the log, the
// pipeline's spool and queue, the active count — and kept nowhere else, so
// a snapshot is the moment they are read.
func (e *Engine) Snapshot() (Snapshot, error) {
	if e.closed.Load() {
		return Snapshot{}, ErrClosed
	}
	sn := Snapshot{
		ActiveTxs:  int(e.active.Load()),
		Truncating: e.truncating.Load(),
		Poisoned:   e.poisonCause() != nil,
		LogUsed:    e.log.Used(),
		LogSize:    e.log.AreaSize(),
	}
	e.pipe.mu.Lock()
	sn.SpoolBytes = e.pipe.spoolBytes
	for _, r := range e.regions {
		if r != nil {
			_, dirty := e.pagesPipeLocked(r)
			sn.DirtyPages += dirty
		}
	}
	e.pipe.mu.Unlock()
	sn.Stats = e.Stats()
	sn.Metrics = e.met.Snapshot()
	sn.TraceEvents = e.tr.Recorded()
	return sn, nil
}

// Tracer returns the tracer supplied at Open (nil when tracing is off).
func (e *Engine) Tracer() *obs.Tracer { return e.tr }

// Close flushes committed work, truncates the log, and releases all files.
// It fails if transactions are still active.  Mapped regions are released
// implicitly.  A poisoned engine still releases every resource but skips
// the flush and truncation (fail-stop: no further storage writes) and
// reports the poisoned state.
func (e *Engine) Close() error {
	e.mu.Lock()
	for e.truncating.Load() {
		e.cond.Wait()
	}
	if e.closed.Load() {
		e.mu.Unlock()
		return nil
	}
	// Publish closed before reading active: Begin increments active
	// before checking closed, so either the Begin sees the close or we
	// see its active count — never a transaction slipping into a closing
	// engine.
	e.closed.Store(true)
	if n := e.active.Load(); n > 0 {
		e.closed.Store(false)
		e.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrActiveTx, n)
	}
	// Hold the truncation slot across the close so no background
	// truncation interleaves with the teardown.
	e.truncating.Store(true)
	e.mu.Unlock()
	var first error
	if cause := e.poisonCause(); cause != nil {
		first = fmt.Errorf("%w: %w", ErrPoisoned, cause)
	} else if _, err := e.truncateClaimed(cleanEverything, true); err != nil {
		// Nothing is released yet: the engine goes on running.
		e.closed.Store(false)
		e.releaseTruncation()
		return err
	}
	// From here on the close completes whatever fails: a failed release is
	// remembered, and the rest is released all the same.
	for _, r := range e.regions {
		if r == nil {
			continue
		}
		r.mu.Lock()
		if r.mapped {
			r.mapped = false
			r.data = nil
			if err := r.buf.Free(); err != nil && first == nil {
				first = err
			}
			r.buf = nil
		}
		r.mu.Unlock()
	}
	e.releaseTruncation()
	// The stall watchdog stops only now that the close can no longer be
	// refused: an engine whose Close failed goes on running, watched.  It
	// reads atomics alone, so it never waits on the teardown; it just must
	// not outlive the files.
	e.stallLoop.stop()
	if err := e.closeFiles(); err != nil && first == nil {
		first = err
	}
	return first
}

func (e *Engine) closeFiles() error {
	first := e.log.Close()
	for _, s := range e.segs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
