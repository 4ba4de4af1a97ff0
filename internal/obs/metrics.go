package obs

import "sync/atomic"

// Gauge is a live level: an atomically updated int64.  The zero Gauge is
// ready to use.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge's current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the gauge's current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Metrics is the engine's metric registry: log2-bucketed histograms for
// the latencies and sizes the paper's evaluation measures, plus live
// gauges.  It is a fixed struct rather than a name-keyed map so the hot
// path pays one atomic increment, never a lookup or an allocation.
//
// All methods are nil-safe: a nil *Metrics discards every observation,
// so instrumented code needs no enabled-checks.
type Metrics struct {
	// Histograms (latencies in nanoseconds unless noted).
	CommitFlush   Hist // flush-mode commit latency (includes the force wait)
	CommitNoFlush Hist // no-flush commit latency (spool only, no force)
	ForceLatency  Hist // device fsync duration on the log force path
	ForceBatch    Hist // records made durable per completed force (group-commit batch size)
	TruncPause    Hist // time truncation held the engine lock against forward processing
	SpoolFlush    Hist // spool drain + force latency (explicit or implicit Flush)
	Checkpoint    Hist // fuzzy checkpoint duration (page write-out + record force)
	OpenScan      Hist // one log's scan at Open: finds the tail and feeds recovery's builders as it reads
	RecoveryScan  Hist // what the Open scans left for second scans (next to nothing when nothing was), or the scan of a log already open
	RecoveryBuild Hist // waiting for the redo-tree builders once the scans are done; most building overlaps a scan
	RecoveryApply Hist // recovery segment replay duration (per shard)

	// Commit-phase histograms: where one flush-mode commit's latency
	// went (DESIGN.md §14).  The first five partition the commit
	// critical path, so their per-commit values sum to roughly the
	// CommitFlush observation; GCLeader/GCFollower split PhaseForceWait
	// by role under group commit, and PhaseFsync isolates the device
	// sync inside a led (or direct) force.
	PhaseLockWait   Hist // waiting for the transaction's region locks
	PhaseEncode     Hist // building the WAL record (range copy + header)
	PhasePipeWait   Hist // waiting for the log-pipeline lock
	PhaseAppend     Hist // wal.Append: encode-to-device staging under the WAL lock
	PhaseForceWait  Hist // waiting for durability (own force or a leader's)
	PhaseGCLeader   Hist // PhaseForceWait of commits that led a group force
	PhaseGCFollower Hist // PhaseForceWait of commits covered by someone else's force
	PhaseFsync      Hist // device sync duration inside a force this commit ran

	// Gauges (live levels, updated by the engine and WAL).
	LogLiveBytes Gauge // live bytes in the log record area
	SpoolBytes   Gauge // committed no-flush bytes awaiting a flush
	ActiveTx     Gauge // transactions begun and not yet resolved
	DirtyPages   Gauge // pages with committed changes not yet in their segments

	// Recovery-progress gauges: live levels while a restart replays the
	// log, so a multi-GB recovery is observable as it runs.
	RecoveryScanBytes  Gauge // log bytes redo has to consider: from the stable LSN to the tail
	RecoveryApplyBytes Gauge // modification bytes applied to segments so far
	RecoveryReplayed   Gauge // log records replayed so far

	// Per-lock-class contention counters (lock.go) and stall-watchdog
	// state (stall.go).
	locks  [NumLockClasses]lockCounters
	gates  [NumStallClasses]opGate
	stalls [NumStallClasses]Counter

	lastStallClass atomic.Int64 // StallClass+1 of the last stall; 0 = never
	lastStallDur   atomic.Int64
	lastStallAt    atomic.Int64 // wall ns (UnixNano) when it was detected
}

// Counter is a monotonically increasing atomic tally.  The zero Counter
// is ready to use.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by one.
func (c *Counter) Add(d uint64) { c.v.Add(d) }

// Load returns the counter's current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// ObserveCommitFlush records one flush-mode commit latency.
func (m *Metrics) ObserveCommitFlush(ns int64) {
	if m != nil {
		m.CommitFlush.Observe(ns)
	}
}

// ObserveCommitNoFlush records one no-flush commit latency.
func (m *Metrics) ObserveCommitNoFlush(ns int64) {
	if m != nil {
		m.CommitNoFlush.Observe(ns)
	}
}

// ObserveForce records one log-force fsync duration and the number of
// records the force made durable.
func (m *Metrics) ObserveForce(ns int64, batch uint64) {
	if m != nil {
		m.ForceLatency.Observe(ns)
		m.ForceBatch.Observe(int64(batch))
	}
}

// ObserveTruncPause records time truncation held the engine lock.
func (m *Metrics) ObserveTruncPause(ns int64) {
	if m != nil {
		m.TruncPause.Observe(ns)
	}
}

// ObserveSpoolFlush records one spool-flush latency.
func (m *Metrics) ObserveSpoolFlush(ns int64) {
	if m != nil {
		m.SpoolFlush.Observe(ns)
	}
}

// ObserveCheckpoint records one fuzzy-checkpoint duration.
func (m *Metrics) ObserveCheckpoint(ns int64) {
	if m != nil {
		m.Checkpoint.Observe(ns)
	}
}

// ObserveOpenScan records one log's scan at Open.
func (m *Metrics) ObserveOpenScan(ns int64) {
	if m != nil {
		m.OpenScan.Observe(ns)
	}
}

// ObserveRecoveryScan records one recovery's scanning after Open's.
func (m *Metrics) ObserveRecoveryScan(ns int64) {
	if m != nil {
		m.RecoveryScan.Observe(ns)
	}
}

// ObserveRecoveryBuild records one recovery's wait for its tree builders.
func (m *Metrics) ObserveRecoveryBuild(ns int64) {
	if m != nil {
		m.RecoveryBuild.Observe(ns)
	}
}

// ObserveRecoveryApply records one recovery replay duration.
func (m *Metrics) ObserveRecoveryApply(ns int64) {
	if m != nil {
		m.RecoveryApply.Observe(ns)
	}
}

// ObserveCommitFront records the front-end phases every commit passes
// through, lazy ones included (DESIGN.md §14): region-lock wait, range
// build, pipeline-lock wait, and the pipeline section (spool or append).
func (m *Metrics) ObserveCommitFront(lockNs, encodeNs, pipeNs, appendNs int64) {
	if m == nil {
		return
	}
	m.PhaseLockWait.Observe(lockNs)
	m.PhaseEncode.Observe(encodeNs)
	m.PhasePipeWait.Observe(pipeNs)
	m.PhaseAppend.Observe(appendNs)
}

// ObserveCommitPhases records the phase breakdown of a commit that forced
// the log.  lockNs, encodeNs, pipeNs, appendNs, and forceNs partition the
// commit's critical path; group says whether the force wait went through
// the group-commit window, and led whether this commit ran the force
// itself.  fsyncNs is the device-sync portion of a force this commit ran
// (0 when it was covered by someone else's).
func (m *Metrics) ObserveCommitPhases(lockNs, encodeNs, pipeNs, appendNs, forceNs, fsyncNs int64, group, led bool) {
	if m == nil {
		return
	}
	m.ObserveCommitFront(lockNs, encodeNs, pipeNs, appendNs)
	m.PhaseForceWait.Observe(forceNs)
	if group {
		if led {
			m.PhaseGCLeader.Observe(forceNs)
		} else {
			m.PhaseGCFollower.Observe(forceNs)
		}
	}
	if fsyncNs > 0 {
		m.PhaseFsync.Observe(fsyncNs)
	}
}

// SetRecoveryScanBytes updates the recovery scanned-bytes gauge.
func (m *Metrics) SetRecoveryScanBytes(v int64) {
	if m != nil {
		m.RecoveryScanBytes.Set(v)
	}
}

// AddRecoveryApplyBytes adjusts the recovery applied-bytes gauge.
func (m *Metrics) AddRecoveryApplyBytes(d int64) {
	if m != nil {
		m.RecoveryApplyBytes.Add(d)
	}
}

// AddRecoveryReplayed adjusts the recovery replayed-records gauge.
func (m *Metrics) AddRecoveryReplayed(d int64) {
	if m != nil {
		m.RecoveryReplayed.Add(d)
	}
}

// SetLogLiveBytes updates the live-log gauge.
func (m *Metrics) SetLogLiveBytes(v int64) {
	if m != nil {
		m.LogLiveBytes.Set(v)
	}
}

// SetSpoolBytes updates the spool gauge.
func (m *Metrics) SetSpoolBytes(v int64) {
	if m != nil {
		m.SpoolBytes.Set(v)
	}
}

// AddActiveTx adjusts the active-transaction gauge.
func (m *Metrics) AddActiveTx(d int64) {
	if m != nil {
		m.ActiveTx.Add(d)
	}
}

// SetDirtyPages updates the dirty-page gauge.
func (m *Metrics) SetDirtyPages(v int64) {
	if m != nil {
		m.DirtyPages.Set(v)
	}
}

// MetricsSnapshot is the JSON-marshalable summary of a registry.
type MetricsSnapshot struct {
	CommitFlushNs   HistStat `json:"commit_flush_ns"`
	CommitNoFlushNs HistStat `json:"commit_noflush_ns"`
	ForceLatencyNs  HistStat `json:"force_latency_ns"`
	ForceBatch      HistStat `json:"force_batch"`
	TruncPauseNs    HistStat `json:"trunc_pause_ns"`
	SpoolFlushNs    HistStat `json:"spool_flush_ns"`
	CheckpointNs    HistStat `json:"checkpoint_ns"`
	OpenScanNs      HistStat `json:"open_scan_ns"`
	RecoveryScanNs  HistStat `json:"recovery_scan_ns"`
	RecoveryBuildNs HistStat `json:"recovery_build_ns"`
	RecoveryApplyNs HistStat `json:"recovery_apply_ns"`

	PhaseLockWaitNs   HistStat `json:"phase_lock_wait_ns"`
	PhaseEncodeNs     HistStat `json:"phase_encode_ns"`
	PhasePipeWaitNs   HistStat `json:"phase_pipe_wait_ns"`
	PhaseAppendNs     HistStat `json:"phase_append_ns"`
	PhaseForceWaitNs  HistStat `json:"phase_force_wait_ns"`
	PhaseGCLeaderNs   HistStat `json:"phase_gc_leader_ns"`
	PhaseGCFollowerNs HistStat `json:"phase_gc_follower_ns"`
	PhaseFsyncNs      HistStat `json:"phase_fsync_ns"`

	LogLiveBytes int64 `json:"log_live_bytes"`
	SpoolBytes   int64 `json:"spool_bytes"`
	ActiveTx     int64 `json:"active_tx"`
	DirtyPages   int64 `json:"dirty_pages"`

	RecoveryScanBytes  int64 `json:"recovery_scan_bytes"`
	RecoveryApplyBytes int64 `json:"recovery_apply_bytes"`
	RecoveryReplayed   int64 `json:"recovery_replayed"`

	Locks     []LockStat  `json:"locks,omitempty"`
	Stalls    []StallStat `json:"stalls,omitempty"`
	LastStall *LastStall  `json:"last_stall,omitempty"`
}

// Snapshot summarizes every histogram and gauge.  A nil registry
// returns nil.
func (m *Metrics) Snapshot() *MetricsSnapshot {
	if m == nil {
		return nil
	}
	return &MetricsSnapshot{
		CommitFlushNs:   m.CommitFlush.Snapshot(),
		CommitNoFlushNs: m.CommitNoFlush.Snapshot(),
		ForceLatencyNs:  m.ForceLatency.Snapshot(),
		ForceBatch:      m.ForceBatch.Snapshot(),
		TruncPauseNs:    m.TruncPause.Snapshot(),
		SpoolFlushNs:    m.SpoolFlush.Snapshot(),
		CheckpointNs:    m.Checkpoint.Snapshot(),
		OpenScanNs:      m.OpenScan.Snapshot(),
		RecoveryScanNs:  m.RecoveryScan.Snapshot(),
		RecoveryBuildNs: m.RecoveryBuild.Snapshot(),
		RecoveryApplyNs: m.RecoveryApply.Snapshot(),

		PhaseLockWaitNs:   m.PhaseLockWait.Snapshot(),
		PhaseEncodeNs:     m.PhaseEncode.Snapshot(),
		PhasePipeWaitNs:   m.PhasePipeWait.Snapshot(),
		PhaseAppendNs:     m.PhaseAppend.Snapshot(),
		PhaseForceWaitNs:  m.PhaseForceWait.Snapshot(),
		PhaseGCLeaderNs:   m.PhaseGCLeader.Snapshot(),
		PhaseGCFollowerNs: m.PhaseGCFollower.Snapshot(),
		PhaseFsyncNs:      m.PhaseFsync.Snapshot(),

		LogLiveBytes: m.LogLiveBytes.Load(),
		SpoolBytes:   m.SpoolBytes.Load(),
		ActiveTx:     m.ActiveTx.Load(),
		DirtyPages:   m.DirtyPages.Load(),

		RecoveryScanBytes:  m.RecoveryScanBytes.Load(),
		RecoveryApplyBytes: m.RecoveryApplyBytes.Load(),
		RecoveryReplayed:   m.RecoveryReplayed.Load(),

		Locks:     m.lockStats(),
		Stalls:    m.stallStats(),
		LastStall: m.lastStall(),
	}
}
