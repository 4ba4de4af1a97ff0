// Package rvm is a Go implementation of Recoverable Virtual Memory, after
// Satyanarayanan, Mashburn, Kumar, Steere & Kistler, "Lightweight
// Recoverable Virtual Memory" (SOSP 1993).
//
// RVM offers transactional guarantees — atomicity and process-failure
// permanence — on regions of memory backed by external data segments.  It
// is a user-level library with no special operating-system support: a
// write-ahead log plus ordinary files and fsync.  Serializability and
// media resilience are intentionally not provided; layer them above
// (package rvmlock) and below (mirrored storage) as needed.
//
// # Model
//
// A segment is a disk file created with CreateSegment.  Applications Map
// page-aligned regions of segments into memory and read the mapped bytes
// directly.  To change recoverable memory, bracket the writes in a
// transaction:
//
//	db, _ := rvm.Open(rvm.Options{LogPath: "a.log"})
//	reg, _ := db.Map("accounts.seg", 0, 1<<20)
//	tx, _ := db.Begin(rvm.Restore)
//	tx.SetRange(reg, 128, 8)              // declare the bytes to change
//	copy(reg.Data()[128:136], newValue)   // mutate mapped memory
//	tx.Commit(rvm.Flush)                  // force to the write-ahead log
//
// After a crash, Open replays the log so that newly mapped regions always
// present the committed image.
//
// # Transaction flavours
//
// Begin(NoRestore) declares that the transaction will never Abort, letting
// RVM skip old-value copies.  Commit(NoFlush) spools the commit instead of
// forcing it ("lazy" transactions with bounded persistence); an explicit
// Flush makes all spooled commits durable at once, and so does a commit
// that takes the spool past 1 MiB of log bytes (a quarter of a smaller
// log).  Atomicity holds in every
// combination; only permanence is weakened by NoFlush.
//
// Duplicate, overlapping and adjacent SetRange calls within a transaction
// are coalesced (intra-transaction optimization).  A flush writes the
// spool as one log record holding each spooled byte once, with its newest
// value, however the spooled commits overlap, so a no-flush commit that a
// later one subsumes never reaches the log (inter-transaction
// optimization); both are §5.2 of the paper.  A Restore transaction logs
// of each declared range only the part from the first to the last 8-byte
// word it changed: the words still equal to the old values SetRange copied
// are left out at either end, unless another transaction committed over
// the region meanwhile.  Stats reports the log bytes each of the four
// saved.
//
// # Log forces and log space
//
// Concurrent flush commits share log forces: the committer that issues a
// force first yields briefly so that commits still arriving join it, and
// a lone committer forces at once.  When the log fills past
// Options.TruncateThreshold, a background truncation writes the oldest
// committed pages to their segments until the live log is down to half
// the threshold (incremental truncation, §5.1.2).  Neither is an option.
package rvm

import (
	"io"

	"github.com/rvm-go/rvm/internal/core"
	"github.com/rvm-go/rvm/internal/mapping"
	"github.com/rvm-go/rvm/internal/obs"
)

// Region is a mapped region of an external data segment.  Read its memory
// via Data; write it only under a transaction's SetRange.
type Region = core.Region

// Tx is an active transaction.  Use one goroutine per Tx; separate
// transactions may run concurrently (RVM does not serialize them — see
// package rvmlock for that).
type Tx = core.Tx

// Statistics are cumulative counters since Open.
type Statistics = core.Statistics

// Snapshot is the engine's full observable state at one moment:
// cumulative counters, histogram quantiles and gauges (when metrics are
// enabled), and live levels.  It marshals to stable JSON; rvmstat and
// the debug handler both serve exactly this.
type Snapshot = core.Snapshot

// MetricsSnapshot summarizes the metric registry: one HistStat per
// histogram, the recovery-progress gauges, and the stall table.
type MetricsSnapshot = obs.MetricsSnapshot

// HistStat is a histogram summary: count, sum, mean, and quantile
// estimates from quarter-octave buckets (accurate to within a quarter).
type HistStat = obs.HistStat

// TraceEvent is one decoded entry of the event trace.
type TraceEvent = obs.Event

// Trace export formats accepted by WriteTrace.
const (
	// TraceFormatJSON writes a JSON array of TraceEvent objects.
	TraceFormatJSON = obs.FormatJSON
	// TraceFormatChrome writes Chrome trace_event format, loadable in
	// chrome://tracing or https://ui.perfetto.dev.
	TraceFormatChrome = obs.FormatChrome
)

// QueryInfo describes engine and region state.
type QueryInfo = core.QueryInfo

// UndoRecord is an old-value record returned by Tx.CommitUndo — the §8
// extension for layering distributed transactions (see package rvmdist).
type UndoRecord = core.UndoRecord

// TxMode selects abortability at Begin.
type TxMode = core.TxMode

// CommitMode selects the permanence guarantee at Commit.
type CommitMode = core.CommitMode

const (
	// Restore transactions may Abort; RVM keeps old-value copies, and
	// with them a commit logs of each declared range only the part from
	// the first to the last 8-byte word the transaction changed.
	Restore = core.Restore
	// NoRestore transactions promise never to Abort and skip the copies.
	NoRestore = core.NoRestore

	// Flush forces the commit to the log before returning.
	Flush = core.Flush
	// NoFlush spools the commit for a later Flush, or for the implicit one
	// at 1 MiB of spooled log bytes, a quarter of a smaller log (bounded
	// persistence).  The flush logs the spool as one record, which a crash
	// keeps whole or not at all, holding each spooled byte once, with the
	// value of the newest commit that wrote it.
	NoFlush = core.NoFlush
)

// Errors returned by the library.
var (
	ErrClosed         = core.ErrClosed
	ErrTxDone         = core.ErrTxDone
	ErrRegionUnmapped = core.ErrRegionUnmapped
	ErrUncommitted    = core.ErrUncommitted
	ErrNoRestoreAbort = core.ErrNoRestoreAbort
	ErrBounds         = core.ErrBounds
	ErrOverlap        = core.ErrOverlap
	ErrBadAlignment   = core.ErrBadAlignment
	ErrActiveTx       = core.ErrActiveTx
	// ErrPoisoned marks an engine that hit a non-recoverable storage fault
	// (a transient one is first retried three times, backing off 1, 2 and
	// 4 ms) and fail-stopped: mutating calls are rejected, nothing more is
	// written, and a fresh Open on healthy storage recovers every
	// acknowledged flush-mode commit.  Query reports the state.
	ErrPoisoned = core.ErrPoisoned
)

// PageSize is the granularity of region mapping: offsets and lengths
// passed to Map must be multiples of it.
var PageSize = mapping.PageSize

// Backend selects the memory behind mapped regions (Options.Backend).
type Backend = mapping.Backend

const (
	// Heap, the default, and Mmap fill a region from its segment at Map
	// time, into the Go heap or into anonymous mmap memory.  Both are
	// correct; mmap keeps large regions out of the GC's working set.
	Heap = mapping.Heap
	Mmap = mapping.Mmap
	// DemandPaging maps regions copy-on-write over the segment file: pages
	// are read on first touch instead of en masse at Map time (the
	// external-pager option the paper lists as future work).  Writes stay
	// private; the segment file is only ever updated by truncation.
	DemandPaging = mapping.DemandPaging
)

// Options configures Open.  None of them weakens permanence: a flush
// commit always syncs the log.
type Options struct {
	// LogPath names the write-ahead log created earlier with CreateLog.
	LogPath string
	// Backend is the memory behind mapped regions: Heap, Mmap or DemandPaging.
	Backend Backend
	// TruncateThreshold is the fraction of log capacity that triggers
	// background truncation (default 0.5; set negative to disable).  The
	// truncation is incremental (paper §5.1.2): it writes the oldest pages
	// out until the live log is down to half the threshold, and falls back
	// to an epoch truncation only when an uncommitted transaction keeps the
	// oldest page pinned.
	TruncateThreshold float64
	// TraceEvents enables event tracing, retaining the most recent
	// TraceEvents events in a lock-free ring (rounded up to a power of
	// two, minimum 64).  Zero disables tracing entirely; recording is
	// wait-free and allocation-free, so leaving it on in production costs
	// a few atomic stores per event.  Read the trace with WriteTrace.
	TraceEvents int
	// Metrics enables the latency/size histograms and live gauges
	// reported by Snapshot.  Observation is a handful of atomic adds per
	// operation; false disables the registry entirely.  With it, a stall
	// watchdog counts a log force, group-commit wait or truncation (a
	// checkpoint's included) in flight for over a second as stalled
	// (Snapshot's stalls/last_stall, trace "stall" events; the classes are
	// force, group_wait and truncation).
	Metrics bool
}

// RVM is an open recoverable-virtual-memory instance: one write-ahead log
// and any number of mapped regions.  All methods are safe for concurrent
// use.  Logs on several devices are several instances; package rvmdist
// makes a transaction atomic across them (the paper's §8).
type RVM struct {
	eng *core.Engine
}

// CreateLog creates a new write-ahead log at path with a record area of at
// least size bytes (rounded up to whole pages).  Equivalent to the paper's
// create_log primitive.
func CreateLog(path string, size int64) error { return core.CreateLog(path, size) }

// CreateSegment creates a new external data segment of the given length
// (rounded up to whole pages).  The id must be unique among segments used
// with the same log; it is how log records name the segment.
func CreateSegment(path string, id uint64, length int64) error {
	return core.CreateSegment(path, id, length)
}

// Open initializes RVM on an existing log, performing crash recovery in the
// one scan that finds the log's tail, before returning (the paper's
// initialize primitive).
// Recovery writes nothing: Map presents the redo over the segment image,
// and the first truncation writes it to the segments.
func Open(o Options) (*RVM, error) {
	eng, err := core.Open(o.engine())
	if err != nil {
		return nil, err
	}
	return &RVM{eng: eng}, nil
}

// truncateThreshold applies Options.TruncateThreshold's default, at Open and
// at SetOptions alike.
func truncateThreshold(thr float64) float64 {
	if thr == 0 {
		return 0.5
	}
	return thr
}

// engine is the one place Options is forwarded to the engine's; a field
// added to Options and not here fails TestOptionsForwarded.
func (o Options) engine() core.Options {
	var tracer *obs.Tracer
	if o.TraceEvents > 0 {
		tracer = obs.NewTracer(o.TraceEvents)
	}
	var metrics *obs.Metrics
	if o.Metrics {
		metrics = obs.NewMetrics()
	}
	return core.Options{
		LogPath:           o.LogPath,
		Backend:           o.Backend,
		TruncateThreshold: truncateThreshold(o.TruncateThreshold),
		Tracer:            tracer,
		Metrics:           metrics,
	}
}

// Close flushes committed work, truncates the log so the next Open is
// fast, and releases all files (the paper's terminate).  It fails with
// ErrActiveTx if transactions are still unresolved.
func (r *RVM) Close() error { return r.eng.Close() }

// Map maps [segOff, segOff+length) of the segment at segPath into memory
// and returns the region, whose memory holds the committed image.  Offsets
// and lengths must be multiples of PageSize, and the range must not
// overlap a currently mapped region of the same segment.
func (r *RVM) Map(segPath string, segOff, length int64) (*Region, error) {
	return r.eng.Map(segPath, segOff, length)
}

// Unmap releases a quiescent region (no uncommitted transactions), first
// making its committed changes visible to future Maps.
func (r *RVM) Unmap(reg *Region) error { return r.eng.Unmap(reg) }

// Begin starts a transaction.
func (r *RVM) Begin(mode TxMode) (*Tx, error) { return r.eng.Begin(mode) }

// Flush blocks until every committed no-flush transaction is forced to the
// log, bounding the persistence window.
func (r *RVM) Flush() error { return r.eng.Flush() }

// Truncate blocks until all committed changes in the log are reflected to
// the external data segments and the log is empty, reverting to epoch
// truncation only if an open transaction keeps a page pinned.  RVM also
// truncates in the background, incrementally (Options.TruncateThreshold);
// this hands the timing to the application (paper §4.2, §5.1.2).
func (r *RVM) Truncate() error { return r.eng.Truncate() }

// TruncateIncremental is Truncate stopped once the live log is down to
// targetFraction of capacity (paper §5.1.2).
func (r *RVM) TruncateIncremental(targetFraction float64) error {
	return r.eng.TruncateIncremental(targetFraction)
}

// Checkpoint writes committed dirty pages to their segments without
// stalling committers and moves the log's head past the records they
// cover: an incremental truncation down to an empty log that never falls
// back to log replay.  A post-crash Open then replays only the records
// written since, bounding restart time.  A page an open transaction still
// holds keeps its records, and the head stops at the first of them.
func (r *RVM) Checkpoint() error { return r.eng.Checkpoint() }

// Query reports engine state, plus region state when reg is non-nil.
func (r *RVM) Query(reg *Region) (QueryInfo, error) { return r.eng.Query(reg) }

// SetOptions adjusts the truncation threshold at runtime; it reads as
// Options.TruncateThreshold does (zero selects the default).
func (r *RVM) SetOptions(threshold float64) {
	r.eng.SetOptions(truncateThreshold(threshold))
}

// Stats returns a snapshot of cumulative counters, in the spirit of the
// real RVM's rvm_statistics.
func (r *RVM) Stats() Statistics { return r.eng.Stats() }

// Snapshot returns the engine's full observable state: the Stats
// counters, histogram quantiles and gauges (when Options.Metrics is on),
// and live levels such as log usage and active transactions.
func (r *RVM) Snapshot() (Snapshot, error) { return r.eng.Snapshot() }

// WriteTrace writes the retained event trace to w in the given format
// (TraceFormatJSON or TraceFormatChrome).  With tracing disabled it
// writes an empty trace.
func (r *RVM) WriteTrace(w io.Writer, format string) error {
	return r.eng.Tracer().WriteTrace(w, format)
}

// TraceEvents returns a snapshot of the retained trace, oldest first
// (nil when tracing is disabled).
func (r *RVM) TraceEvents() []TraceEvent { return r.eng.Tracer().Events() }
