// Package core implements the RVM transaction engine: segment and region
// management, the transaction lifecycle with intra- and inter-transaction
// optimizations, the commit path, crash recovery at startup, and both epoch
// and incremental log truncation.
//
// An engine owns exactly one write-ahead log, as the paper's RVM does
// (DESIGN.md §15).  Several logs on several devices are several engines,
// and atomicity across engines is a library layered on them (package
// rvmdist, the paper's §8).
//
// There is one commit path, (*Tx).commit in tx.go, as the paper's
// end_transaction is one procedure with a commit_mode flag: under the
// region locks the transaction's ranges go through the log pipeline in one
// section — spooled for a lazy (no-flush) commit, else appended as one
// record — and then the log is forced holding no lock.  A full log is
// handled in one place for commits and spool flushes alike (retryLogFull).
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
//	  - e.mu is structural: Map/Unmap/Close/Query/Snapshot, the segment and
//	    dictionary tables, the regions slice, and the truncation claim
//	    (truncating + cond).  Begin/SetRange/Commit/Abort never touch it.
//	  - r.mu is per-region: it guards r.data stability, r.nTx, r.mapped,
//	    and orders pvec reference-count checks against the page writes they
//	    gate.  Transactions on disjoint regions share no lock.
//	  - e.pipe.mu is the log pipeline: it serializes buildRanges-to-append
//	    ordering, the spool, and the truncation queue.  It is the innermost
//	    engine lock; holding it while acquiring a region lock is a
//	    lock-order inversion (flagged by the rvmcheck locksync analyzer).
//
// wal.Log's and groupCommit's mutexes are leaves below all three.  Those
// two, r.mu and e.pipe.mu are obs.Mutex: the lock
// carries its obs.LockClass and the metrics registry, bound where the lock
// is created, so every mu.Lock() feeds the class's contention counters and
// stays a literal Lock call the rvmcheck walkers can follow.  No fsync
// runs under any engine lock (locksync Rule A/B).  Engine-wide counters,
// the active-transaction count, the transaction-ID source, and the
// poisoned/closed flags are atomics.
package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rvm-go/rvm/internal/iofault"
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
	ErrRegionUnmapped = errors.New("rvm: region is not mapped")
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
	// LogDevice overrides the log storage (tests inject fault devices).
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
	// Incremental enables incremental truncation (paper §5.1.2); when
	// disabled every truncation is an epoch truncation.
	Incremental bool
	// NoSync disables physical fsyncs, forfeiting permanence.  For
	// benchmark harnesses that measure log traffic, not durability.
	NoSync bool
	// GroupCommit batches the log forces of concurrent flush-mode
	// commits.  A committer appends its record under the log-pipeline
	// lock, releases it, and waits on a group-commit ticket: one
	// leader-elected committer issues a single fsync covering every
	// record appended since the last force and wakes all waiters with
	// the shared outcome.  N concurrent committers then pay ~1 fsync per
	// batch instead of N back-to-back fsyncs.  A failed group force
	// poisons the engine and fails every ticket holder (fail-stop, same
	// model as a failed serialized force).
	GroupCommit bool
	// MaxForceDelay extends the force leader's batching window with a
	// timed wait.  A leader always yields the processor while new commit
	// records keep arriving and forces once arrivals pause (see
	// joinWindow); a nonzero MaxForceDelay makes it linger that much
	// longer, trading commit latency for bigger batches when committers
	// are slow to arrive.  Only meaningful with GroupCommit.
	MaxForceDelay time.Duration
	// CheckpointInterval enables background fuzzy checkpoints: every
	// interval the engine writes queued dirty pages to their segments
	// without stalling committers and records the stable LSN in the log,
	// bounding the suffix a future recovery must scan.  Zero disables.
	CheckpointInterval time.Duration
	// SpoolLimit bounds the bytes of committed no-flush transactions held
	// in memory awaiting a flush; crossing it triggers an implicit flush
	// (the real RVM's log buffers were finite too).
	// Zero means the 1 MiB default; negative means unlimited.
	SpoolLimit int64
	// Tracer records typed engine events (commits, forces, truncation
	// phases, recovery, faults) into a fixed-size ring.  nil disables
	// tracing at zero cost.
	Tracer *obs.Tracer
	// Metrics aggregates latency/size histograms and live gauges.  nil
	// disables metrics at zero cost.
	Metrics *obs.Metrics
	// StallBudget is how long a watched operation (force, group-commit
	// wait, truncation, checkpoint, recovery) may stay in flight before
	// the stall watchdog counts it as a stall, records an EvStall trace
	// event, and updates LastStall in the metrics snapshot.  Zero
	// selects a 1s default; negative disables the watchdog.  Only
	// meaningful with Metrics set (the gates live in the registry).
	StallBudget time.Duration
}

// statsOf is the one declaration of the engine's cumulative counters
// (obs/declare.go explains the tags): Statistics is it on plain uint64s,
// the engine's live counters are it on atomics, so the two cannot drift
// and Stats() is a positional load.
type statsOf[T any] struct {
	Begins          T `json:"begins" prom:"rvm_tx_begins_total" help:"Transactions begun."`
	FlushCommits    T `json:"flush_commits" prom:"rvm_tx_flush_commits_total" help:"Commits in flush mode."`
	NoFlushCommits  T `json:"noflush_commits" prom:"rvm_tx_noflush_commits_total" help:"Commits in no-flush (lazy) mode."`
	Aborts          T `json:"aborts" prom:"rvm_tx_aborts_total" help:"Explicit aborts."`
	SetRanges       T `json:"set_ranges" prom:"rvm_tx_set_ranges_total" help:"Set-range calls."`
	EmptyCommits    T `json:"empty_commits" prom:"rvm_tx_empty_commits_total" help:"Commits that logged nothing."`
	LogBytes        T `json:"log_bytes" prom:"rvm_log_appended_bytes_total" help:"Record bytes appended to the log."`
	LogForces       T `json:"log_forces" prom:"rvm_log_forces_total" help:"Log fsyncs on the commit/flush path."`
	IntraSavedBytes T `json:"intra_saved_bytes" prom:"rvm_log_intra_saved_bytes_total" help:"Log bytes avoided by intra-transaction optimization."`
	InterSavedBytes T `json:"inter_saved_bytes" prom:"rvm_log_inter_saved_bytes_total" help:"Log bytes avoided by inter-transaction optimization."`
	Flushes         T `json:"flushes" prom:"rvm_spool_flushes_total" help:"Explicit or implicit spool flushes."`
	EpochTruncs     T `json:"epoch_truncs" prom:"rvm_truncation_epochs_total" help:"Epoch truncations completed."`
	IncrSteps       T `json:"incr_steps" prom:"rvm_truncation_incr_steps_total" help:"Incremental truncation page write-outs."`
	PagesWritten    T `json:"pages_written" prom:"rvm_pages_written_total" help:"Pages written to segments by truncation and unmap."`
	Recoveries      T `json:"recoveries" prom:"rvm_recoveries_total" help:"Recoveries performed at open."`
	RecoveredBytes  T `json:"recovered_bytes" prom:"rvm_recovery_applied_bytes_total" help:"Bytes applied to segments during recovery."`
	RecoveryScanned T `json:"recovery_scanned" prom:"rvm_recovery_scanned_bytes_total" help:"Log bytes recovery had to consider (stable LSN to tail)."`
	Retries         T `json:"retries" prom:"rvm_io_retries_total" help:"Transient storage faults retried."`
	TruncFailures   T `json:"trunc_failures" prom:"rvm_truncation_failures_total" help:"Background truncations that failed."`
	ForcesSaved     T `json:"forces_saved" prom:"rvm_group_commit_forces_saved_total" help:"Flush commits acknowledged by another committer's force."`
	GroupCommitSize T `json:"group_commit_size" prom:"rvm_group_commit_max_batch" help:"Largest number of flush commits covered by one force."`
	Checkpoints     T `json:"checkpoints" prom:"rvm_checkpoints_total" help:"Fuzzy checkpoints completed."`
	CheckpointPages T `json:"checkpoint_pages" prom:"rvm_checkpoint_pages_total" help:"Pages written to segments by checkpoints."`
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
	mu obs.Mutex // obs.LockPipeline, bound at Open
	// The spool (spool.go): committed no-flush transactions not yet in the
	// log, in commit order.  Entries a later commit subsumed stay in the
	// slice, dead, until a drain passes them.
	spool       []*spooled
	spoolBytes  int64                  // log cost of the live entries
	spoolIdx    map[uint64]spoolBucket // live entries by witness bucket
	spoolChecks uint64                 // full subsumption checks run; tests pin the cost of a commit with it
	batch       []wal.Entry            // drain scratch, kept for its capacity
	queue       pagevec.Queue
	epochEndSeq uint64 // while an epoch truncation is in flight: its EndSeq
}

// Engine is an open RVM instance: one log plus any number of mapped
// regions.  All methods are safe for concurrent use.
type Engine struct {
	opts Options // immutable after Open (runtime knobs below are atomics)

	// The log and the commit machinery in front of it: the pipeline lock
	// and spool, and the group-commit ticket state.
	log  *wal.Log
	pipe pipeline
	gc   groupCommit // group-commit ticket state (own mutex; see groupcommit.go)

	// Fuzzy-checkpoint cursor, touched only under the truncation claim.
	lastCkptStable uint64 // stable seq the newest checkpoint record carries
	lastCkptSeq    uint64 // seq of that checkpoint record itself

	// Structural state, guarded by mu.  The regions slice is additionally
	// mutated only while also holding pipe.mu, so either lock suffices to
	// read it; the truncation claim (truncating) gives claim holders
	// stable reads of the slice with neither.
	mu         sync.Mutex
	cond       *sync.Cond // signalled when a truncation finishes
	dict       *dict
	segs       map[uint64]*segment.Segment // open segments by ID
	byPath     map[string]uint64           // canonical path -> segment ID
	regions    []*Region                   // index = region handle; nil after unmap
	truncating atomic.Bool                 // truncation claim; written under mu
	truncErr   error                       // most recent background-truncation failure
	// pending is the redo of the restart that opened the engine, not yet in
	// the segments (applyPending).  Only truncation-claim holders touch it.
	pending *recovery.Epoch

	nextTID  atomic.Uint64
	active   atomic.Int64 // transactions begun and not yet resolved
	closed   atomic.Bool
	poisoned atomic.Pointer[poisonCause] // non-nil after an unrecoverable I/O error

	// Runtime-adjustable truncation knobs (SetOptions); read lock-free on
	// the commit path.
	truncThreshold atomic.Uint64 // math.Float64bits
	incremental    atomic.Bool

	// Background loops, never started when disabled: the fuzzy checkpointer
	// (checkpoint.go) and the stall watchdog (stall.go).
	ckptLoop  bgLoop
	stallLoop bgLoop

	// Observability sinks, copied from Options at Open.  Both are
	// nil-safe.  Emission never runs under a mutex: call sites capture
	// values under their lock and emit after unlocking (rvmcheck obsleak).
	tr  *obs.Tracer
	met *obs.Metrics

	stats counters
}

// bgLoop is a background goroutine that calls a function on every tick
// until the function asks to stop or stop is called.  The zero value is a
// loop that was never started.
type bgLoop struct {
	quit chan struct{}
	done chan struct{}
	once sync.Once
}

func (l *bgLoop) start(tick time.Duration, fn func() (stop bool)) {
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
				if fn() {
					return
				}
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

// poisonCause wraps the fail-stop root cause for atomic publication.
type poisonCause struct{ err error }

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
	pvec   *pagevec.Vector // entries are atomics; mu orders refs-check vs page write
	// spoolRefs counts, per page, the live spool entries referencing it:
	// bytes committed but not yet logged, which keep the page out of its
	// segment and its dirty bit set.  Guarded by eng.pipe.mu.
	spoolRefs []int32

	mu     obs.Mutex // obs.LockRegion, bound at Map; guards data/buf stability, nTx, mapped
	buf    *mapping.Buffer
	data   []byte
	nTx    int // active transactions with ranges in this region
	mapped bool
}

// Open opens (or re-opens) an RVM instance on an existing log, performing
// crash recovery before returning: it builds the redo, which the first
// truncation writes to the segments, and Map presents until then.  The log
// must have been created with CreateLog.
func Open(opts Options) (*Engine, error) {
	// The dictionary comes first: a store it does not describe is refused
	// before the log is opened or anything is written.
	d, err := loadDict(dictPath(opts.LogPath))
	if err != nil {
		return nil, err
	}
	if opts.SpoolLimit == 0 {
		opts.SpoolLimit = 1 << 20
	}
	// Recovery is as wide as the process: GOMAXPROCS workers replay the redo
	// trees, and one fewer build them, the log scan being one itself.
	redo := recovery.NewRestart(recovery.Config{Parallelism: runtime.GOMAXPROCS(0)}, opts.Metrics)
	defer redo.Abort()
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
		opts:   opts,
		log:    lg,
		dict:   d,
		segs:   make(map[uint64]*segment.Segment),
		byPath: make(map[string]uint64),
		tr:     opts.Tracer,
		met:    opts.Metrics,
	}
	e.nextTID.Store(1)
	e.truncThreshold.Store(math.Float64bits(opts.TruncateThreshold))
	e.incremental.Store(opts.Incremental)
	e.cond = sync.NewCond(&e.mu)
	e.pipe.mu.Bind(obs.LockPipeline, e.met)
	e.gc.mu.Bind(obs.LockGroupCommit, e.met)
	e.gc.cond = sync.NewCond(&e.gc.mu)
	lg.SetObs(e.tr, e.met)
	if opts.NoSync {
		lg.SetNoSync(true)
	}
	if inj, ok := dev.(*iofault.Injector); ok {
		inj.SetTracer(e.tr)
	}
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
	if opts.CheckpointInterval > 0 {
		e.startCheckpointer(opts.CheckpointInterval)
	}
	if e.met != nil && opts.StallBudget >= 0 {
		e.startStallWatchdog(opts.StallBudget)
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
// caching the segment.  Used by recovery and truncation.  Caller holds
// e.mu (or is the only goroutine, at Open).
func (e *Engine) lookupSegment(id uint64) (*segment.Segment, error) {
	if s, ok := e.segs[id]; ok {
		return s, nil
	}
	path, ok := e.dict.lookup(id)
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
	e.byPath[path] = id
	return s, nil
}

// Map maps the region [segOff, segOff+length) of the external data segment
// at segPath into memory.  The offset and length must be page multiples,
// the range must lie inside the segment, and it must not overlap any
// currently mapped region of the same segment (paper §4.1 restrictions).
// The returned region's memory holds the committed image of the range.
//
// The durable and bulk work — persisting the segment dictionary (which
// fsyncs) and copying the committed image in — runs with e.mu released,
// so a Map of a large region does not stall every Begin/Commit behind a
// disk flush.  Holding the truncation slot across the whole operation
// keeps the unlocked window sound: truncation, Unmap, Close, and other
// Maps are serialized against it (none of them can touch the segment
// range being copied), while the commit path never takes the slot and
// runs unimpeded.
func (e *Engine) Map(segPath string, segOff, length int64) (*Region, error) {
	if err := e.claimTruncation(); err != nil {
		return nil, err
	}
	defer e.releaseTruncation()

	e.mu.Lock()
	if !mapping.IsAligned(segOff) || !mapping.IsAligned(length) || length <= 0 {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: off=%d len=%d", ErrBadAlignment, segOff, length)
	}
	abs, err := filepath.Abs(segPath)
	if err != nil {
		e.mu.Unlock()
		return nil, fmt.Errorf("rvm: resolve %s: %w", segPath, err)
	}
	var seg *segment.Segment
	if id, ok := e.byPath[abs]; ok {
		seg = e.segs[id]
	} else {
		seg, err = segment.OpenWith(abs, e.opts.SegmentDevice)
		if err != nil {
			e.mu.Unlock()
			return nil, err
		}
		if other, ok := e.segs[seg.ID()]; ok && other != seg {
			e.mu.Unlock()
			seg.Close()
			return nil, fmt.Errorf("rvm: segment id %d already open from %s", other.ID(), other.Path())
		}
		e.segs[seg.ID()] = seg
		e.byPath[abs] = seg.ID()
	}
	if segOff+length > seg.Length() {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: [%d,+%d) exceeds segment length %d", ErrBounds, segOff, length, seg.Length())
	}
	if r := e.overlapLocked(seg.ID(), segOff, length); r != nil {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: [%d,+%d) vs existing [%d,+%d)", ErrOverlap, segOff, length, r.segOff, r.length)
	}
	e.mu.Unlock()

	// Persist the dictionary entry before any log record can reference
	// this segment — that is, before the region exists, not before the
	// engine lock drops.  A failure here poisons the engine: the
	// in-memory dictionary and its durable copy could otherwise diverge,
	// leaving future log records referencing a segment recovery cannot
	// find.
	if err := e.dict.set(seg.ID(), abs); err != nil {
		return nil, e.maybePoison(err)
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

	// Publish the region.  The truncation slot excludes Unmap, Close,
	// and other Maps, so the regions slice cannot have changed; a commit
	// can still poison the engine mid-window, so poisoning is rechecked.
	e.mu.Lock()
	if err := e.check(); err != nil {
		e.mu.Unlock()
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
		pvec:      pagevec.New(int(length / int64(mapping.PageSize))),
		spoolRefs: make([]int32, length/int64(mapping.PageSize)),
		mapped:    true,
	}
	r.mu.Bind(obs.LockRegion, e.met)
	// The regions slice is read under pipe.mu by the spool drain and epoch
	// completion, so mutations hold the pipeline lock too.
	e.pipe.mu.Lock()
	e.regions = append(e.regions, r)
	e.pipe.mu.Unlock()
	e.mu.Unlock()
	return r, nil
}

// overlapLocked returns a mapped region of segment id overlapping
// [off, off+length), or nil.  Caller holds e.mu.
func (e *Engine) overlapLocked(id uint64, off, length int64) *Region {
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
// region's dirty pages are written to its segment before the memory is
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
	if !r.mapped {
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
	// The region is sealed and the truncation slot claimed, so its dirty
	// set is stable: write every dirty page and sync with no lock held.
	if r.pvec.DirtyCount() > 0 {
		if err := e.applyPending(); err != nil {
			return fail(err)
		}
		r.mu.Lock()
		var err error
		for pg := 0; pg < r.pvec.NumPages() && err == nil; pg++ {
			if r.pvec.IsDirty(pg) {
				err = e.writePageLocked(r, int64(pg))
			}
		}
		r.mu.Unlock()
		if err == nil {
			err = e.retryIO(r.seg.Sync)
		}
		if err != nil {
			return fail(err)
		}
	}
	e.mu.Lock()
	e.pipe.mu.Lock()
	e.pipe.queue.RemoveRegion(r.idx)
	e.regions[r.idx] = nil
	e.pipe.mu.Unlock()
	e.mu.Unlock()
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
// gives its holder stable reads of the regions slice and region
// mapped-state.  The commit path never takes it.
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

// waitTruncationLocked blocks until no truncation is in flight.  Callers
// hold e.mu; the condition variable releases it while waiting.
func (e *Engine) waitTruncationLocked() {
	for e.truncating.Load() {
		e.cond.Wait()
	}
}

// Data returns the region's mapped memory.  Reads need no RVM
// intervention; writes must be covered by a SetRange of an active
// transaction to be recoverable.
func (r *Region) Data() []byte { return r.data }

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
	}
	e.mu.Lock()
	qi.LastFault = e.lastFaultLocked()
	e.mu.Unlock()
	p := &e.pipe
	p.mu.Lock()
	qi.SpoolBytes = p.spoolBytes
	if r != nil {
		p.queue.Walk(func(d pagevec.Descriptor) {
			if d.ID.Region == r.idx {
				qi.QueuedPages++
			}
		})
	}
	p.mu.Unlock()
	if r != nil {
		r.mu.Lock()
		if !r.mapped {
			r.mu.Unlock()
			return QueryInfo{}, ErrRegionUnmapped
		}
		qi.UncommittedTxs = r.nTx
		r.mu.Unlock()
		qi.DirtyPages = r.pvec.DirtyCount()
	}
	return qi, nil
}

// SetOptions adjusts tunables at runtime (paper §4.2 set_options).  Only
// the truncation knobs may change after Open.
func (e *Engine) SetOptions(truncateThreshold float64, incremental bool) {
	e.truncThreshold.Store(math.Float64bits(truncateThreshold))
	e.incremental.Store(incremental)
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
// The levels are computed here, each from its one source — the log and
// the pipeline, the active count, the page vectors — and kept nowhere
// else, so a snapshot is the moment they are read.
func (e *Engine) Snapshot() (Snapshot, error) {
	if e.closed.Load() {
		return Snapshot{}, ErrClosed
	}
	dirty := 0
	e.mu.Lock()
	for _, r := range e.regions {
		if r != nil {
			dirty += r.pvec.DirtyCount()
		}
	}
	e.mu.Unlock()
	sn := Snapshot{
		ActiveTxs:  int(e.active.Load()),
		DirtyPages: dirty,
		Truncating: e.truncating.Load(),
		Poisoned:   e.poisonCause() != nil,
		LogUsed:    e.log.Used(),
		LogSize:    e.log.AreaSize(),
	}
	e.pipe.mu.Lock()
	sn.SpoolBytes = e.pipe.spoolBytes
	e.pipe.mu.Unlock()
	sn.Stats = e.Stats()
	sn.Metrics = e.met.Snapshot()
	sn.TraceEvents = e.tr.Recorded()
	return sn, nil
}

// Tracer returns the tracer supplied at Open (nil when tracing is off).
func (e *Engine) Tracer() *obs.Tracer { return e.tr }

// Metrics returns the metrics registry supplied at Open (nil when off).
func (e *Engine) Metrics() *obs.Metrics { return e.met }

// Close flushes committed work, truncates the log, and releases all files.
// It fails if transactions are still active.  Mapped regions are released
// implicitly.  A poisoned engine still releases every resource but skips
// the flush and truncation (fail-stop: no further storage writes) and
// reports the poisoned state.
func (e *Engine) Close() error {
	// Stop the background checkpointer first: it claims the truncation
	// slot, and no claim is held here yet, so waiting for it cannot
	// deadlock.  It stays stopped even if this Close fails (active
	// transactions); only explicit Checkpoint calls run after that.
	// The stall watchdog goes too — it only reads atomics, but letting
	// it outlive the engine's files would be sloppy.
	e.stallLoop.stop()
	e.ckptLoop.stop()
	e.mu.Lock()
	e.waitTruncationLocked()
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
	fail := func(err error) error {
		err = e.maybePoison(err)
		e.mu.Lock()
		e.closed.Store(false)
		e.truncating.Store(false)
		e.cond.Broadcast()
		e.mu.Unlock()
		return err
	}
	var poisonErr error
	if cause := e.poisonCause(); cause != nil {
		poisonErr = fmt.Errorf("%w: %w", ErrPoisoned, cause)
	} else {
		if err := e.epochAllClaimed(); err != nil {
			return fail(err)
		}
	}
	e.mu.Lock()
	for _, r := range e.regions {
		if r == nil {
			continue
		}
		r.mu.Lock()
		if r.mapped {
			r.mapped = false
			r.data = nil
			if err := r.buf.Free(); err != nil {
				r.mu.Unlock()
				e.mu.Unlock()
				return err
			}
			r.buf = nil
		}
		r.mu.Unlock()
	}
	e.truncating.Store(false)
	e.cond.Broadcast()
	e.mu.Unlock()
	if err := e.closeFiles(); err != nil && poisonErr == nil {
		return err
	}
	return poisonErr
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
