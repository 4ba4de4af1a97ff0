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

// metricsOf is the one declaration of the engine's histograms and
// recovery-progress gauges (declare.go explains the tags).  The live
// registry instantiates it on Hist and Gauge, the snapshot on HistStat
// and int64, so the two cannot drift: a histogram added here is in
// Snapshot JSON, /metrics, rvmstat and the README table once its
// Observe method below has a caller.  Latencies are nanoseconds.
type metricsOf[H, G any] struct {
	CommitFlushNs   H `json:"commit_flush_ns" prom:"rvm_commit_flush_ns" help:"Flush-mode commit latency."`
	CommitNoFlushNs H `json:"commit_noflush_ns" prom:"rvm_commit_noflush_ns" help:"No-flush commit latency."`
	ForceLatencyNs  H `json:"force_latency_ns" prom:"rvm_force_latency_ns" help:"Log force (fsync) latency."`
	ForceBatch      H `json:"force_batch" prom:"rvm_force_batch" help:"Records covered per force."`
	TruncPauseNs    H `json:"trunc_pause_ns" prom:"rvm_trunc_pause_ns" help:"Forward-processing pause per truncation."`
	SpoolFlushNs    H `json:"spool_flush_ns" prom:"rvm_spool_flush_ns" help:"Spool flush latency."`
	RecoveryScanNs  H `json:"recovery_scan_ns" prom:"rvm_recovery_scan_ns" help:"Restart's scan of the log at Open: finds the tail and builds the redo trees."`
	RecoveryApplyNs H `json:"recovery_apply_ns" prom:"rvm_recovery_apply_ns" help:"Recovery apply phase duration."`

	// Where one commit's latency went (DESIGN.md §14).  The first five
	// partition the commit critical path, so their per-commit values sum
	// to roughly the commit's latency; GCLeader/GCFollower split the
	// force wait by the commit's role at its force ticket, and Fsync
	// isolates the device sync inside a led force.
	PhaseLockWaitNs   H `json:"phase_lock_wait_ns" prom:"rvm_commit_phase_ns,phase=lock_wait" help:"Flush-commit critical-path phase latency."`
	PhaseEncodeNs     H `json:"phase_encode_ns" prom:",phase=encode"`
	PhasePipeWaitNs   H `json:"phase_pipe_wait_ns" prom:",phase=pipe_wait"`
	PhaseAppendNs     H `json:"phase_append_ns" prom:",phase=append"`
	PhaseForceWaitNs  H `json:"phase_force_wait_ns" prom:",phase=force_wait"`
	PhaseGCLeaderNs   H `json:"phase_gc_leader_ns" prom:",phase=gc_leader"`
	PhaseGCFollowerNs H `json:"phase_gc_follower_ns" prom:",phase=gc_follower"`
	PhaseFsyncNs      H `json:"phase_fsync_ns" prom:",phase=fsync"`

	// Live levels while a restart replays the log, so a multi-GB
	// recovery is observable as it runs.
	RecoveryScanBytes  G `json:"recovery_scan_bytes" prom:"rvm_recovery_scan_bytes" help:"Log bytes recovery has to consider (head to tail)."`
	RecoveryApplyBytes G `json:"recovery_apply_bytes" prom:"rvm_recovery_apply_bytes" help:"Modification bytes applied by recovery so far."`
	RecoveryReplayed   G `json:"recovery_replayed" prom:"rvm_recovery_replayed_records" help:"Log records replayed by recovery so far."`
}

// Metrics is the engine's live metric store.  It is a fixed struct rather
// than a name-keyed map so the hot path pays one atomic increment, never
// a lookup or an allocation.
//
// All methods are nil-safe: a nil *Metrics discards every observation,
// so instrumented code needs no enabled-checks.
type Metrics struct {
	metricsOf[Hist, Gauge]

	// Stall-watchdog state (stall.go).
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
		m.CommitFlushNs.Observe(ns)
	}
}

// ObserveCommitNoFlush records one no-flush commit latency.
func (m *Metrics) ObserveCommitNoFlush(ns int64) {
	if m != nil {
		m.CommitNoFlushNs.Observe(ns)
	}
}

// ObserveForce records one log-force fsync duration and the number of
// records the force made durable.
func (m *Metrics) ObserveForce(ns int64, batch uint64) {
	if m != nil {
		m.ForceLatencyNs.Observe(ns)
		m.ForceBatch.Observe(int64(batch))
	}
}

// ObserveTruncPause records time truncation held the engine lock.
func (m *Metrics) ObserveTruncPause(ns int64) {
	if m != nil {
		m.TruncPauseNs.Observe(ns)
	}
}

// ObserveSpoolFlush records one spool-flush latency.
func (m *Metrics) ObserveSpoolFlush(ns int64) {
	if m != nil {
		m.SpoolFlushNs.Observe(ns)
	}
}

// ObserveRecoveryScan records one restart's scan of its log.
func (m *Metrics) ObserveRecoveryScan(ns int64) {
	if m != nil {
		m.RecoveryScanNs.Observe(ns)
	}
}

// ObserveRecoveryApply records one recovery replay duration.
func (m *Metrics) ObserveRecoveryApply(ns int64) {
	if m != nil {
		m.RecoveryApplyNs.Observe(ns)
	}
}

// ObserveCommitFront records the front-end phases every commit passes
// through, lazy ones included (DESIGN.md §14): region-lock wait, range
// build, pipeline-lock wait, and the pipeline section (spool or append).
func (m *Metrics) ObserveCommitFront(lockNs, encodeNs, pipeNs, appendNs int64) {
	if m == nil {
		return
	}
	m.PhaseLockWaitNs.Observe(lockNs)
	m.PhaseEncodeNs.Observe(encodeNs)
	m.PhasePipeWaitNs.Observe(pipeNs)
	m.PhaseAppendNs.Observe(appendNs)
}

// ObserveCommitPhases records the phase breakdown of a commit that forced
// the log.  lockNs, encodeNs, pipeNs, appendNs, and forceNs partition the
// commit's critical path; led says whether this commit ran the force
// itself (every flush commit takes a force ticket, so it is a leader or a
// follower).  fsyncNs is the device-sync portion of a force this commit
// ran (0 when it was covered by someone else's).
func (m *Metrics) ObserveCommitPhases(lockNs, encodeNs, pipeNs, appendNs, forceNs, fsyncNs int64, led bool) {
	if m == nil {
		return
	}
	m.ObserveCommitFront(lockNs, encodeNs, pipeNs, appendNs)
	m.PhaseForceWaitNs.Observe(forceNs)
	if led {
		m.PhaseGCLeaderNs.Observe(forceNs)
	} else {
		m.PhaseGCFollowerNs.Observe(forceNs)
	}
	if fsyncNs > 0 {
		m.PhaseFsyncNs.Observe(fsyncNs)
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

// MetricsSnapshot is the JSON-marshalable summary of a registry: the
// declaration above with every histogram summarized and every gauge
// loaded, plus the label-keyed stall table.
type MetricsSnapshot struct {
	metricsOf[HistStat, int64]

	Stalls    []StallStat `json:"stalls,omitempty"`
	LastStall *LastStall  `json:"last_stall,omitempty"`
}

// Snapshot summarizes every histogram and gauge.  A nil registry
// returns nil.
func (m *Metrics) Snapshot() *MetricsSnapshot {
	if m == nil {
		return nil
	}
	sn := &MetricsSnapshot{Stalls: m.stallStats(), LastStall: m.lastStall()}
	Load(&sn.metricsOf, &m.metricsOf)
	return sn
}
