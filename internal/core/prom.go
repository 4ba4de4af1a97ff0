package core

import (
	"fmt"
	"io"

	"github.com/rvm-go/rvm/internal/obs"
)

// Prometheus text exposition (format version 0.0.4), hand-rolled on the
// stdlib: the repo takes no dependencies, and the format is a dozen lines
// of fmt.  Naming follows the upstream conventions (DESIGN.md §14): every
// metric carries the rvm_ prefix, monotonic counters end in _total, unit
// suffixes are spelled out (_bytes, _ns), and histogram summaries expose
// quantile-labelled samples plus _sum and _count.  Label values here are
// all fixed lowercase identifiers from the obs name tables, so no escaping
// is required.

// PromContentType is the Content-Type a handler serving WritePrometheus
// output should set.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promW accumulates exposition lines and remembers the first write error,
// so the metric-emitting code reads as data, not error plumbing.
type promW struct {
	w   io.Writer
	err error
}

func (p *promW) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// header emits the HELP/TYPE preamble for one metric family.
func (p *promW) header(name, typ, help string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// counter emits a single-sample counter family.
func (p *promW) counter(name, help string, v uint64) {
	p.header(name, "counter", help)
	p.printf("%s %d\n", name, v)
}

// gauge emits a single-sample gauge family.
func (p *promW) gauge(name, help string, v int64) {
	p.header(name, "gauge", help)
	p.printf("%s %d\n", name, v)
}

// summary emits one HistStat as a summary family; with a non-empty label
// the quantile samples carry `label="labelv"` and _sum/_count are emitted
// per label value (the caller writes the header once and calls
// summarySamples per value).
func (p *promW) summary(name, help string, st obs.HistStat) {
	p.header(name, "summary", help)
	p.summarySamples(name, "", "", st)
}

func (p *promW) summarySamples(name, label, labelv string, st obs.HistStat) {
	if label == "" {
		p.printf("%s{quantile=\"0.5\"} %d\n", name, st.P50)
		p.printf("%s{quantile=\"0.9\"} %d\n", name, st.P90)
		p.printf("%s{quantile=\"0.99\"} %d\n", name, st.P99)
		p.printf("%s_sum %d\n", name, st.Sum)
		p.printf("%s_count %d\n", name, st.Count)
		return
	}
	lp := label + `="` + labelv + `"`
	p.printf("%s{%s,quantile=\"0.5\"} %d\n", name, lp, st.P50)
	p.printf("%s{%s,quantile=\"0.9\"} %d\n", name, lp, st.P90)
	p.printf("%s{%s,quantile=\"0.99\"} %d\n", name, lp, st.P99)
	p.printf("%s_sum{%s} %d\n", name, lp, st.Sum)
	p.printf("%s_count{%s} %d\n", name, lp, st.Count)
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format.  Serve it with Content-Type PromContentType; the debug handler's
// /metrics route does exactly that.
func (sn Snapshot) WritePrometheus(w io.Writer) error {
	p := &promW{w: w}
	s := sn.Stats

	// Cumulative counters.
	p.counter("rvm_tx_begins_total", "Transactions begun.", s.Begins)
	p.counter("rvm_tx_flush_commits_total", "Commits in flush mode.", s.FlushCommits)
	p.counter("rvm_tx_noflush_commits_total", "Commits in no-flush (lazy) mode.", s.NoFlushCommits)
	p.counter("rvm_tx_aborts_total", "Explicit aborts.", s.Aborts)
	p.counter("rvm_tx_set_ranges_total", "Set-range calls.", s.SetRanges)
	p.counter("rvm_tx_empty_commits_total", "Commits that logged nothing.", s.EmptyCommits)
	p.counter("rvm_tx_cross_shard_commits_total", "Commits that spanned WAL shards (two-phase).", s.CrossShardCommits)
	p.counter("rvm_log_appended_bytes_total", "Record bytes appended to the log.", s.LogBytes)
	p.counter("rvm_log_forces_total", "Log fsyncs on the commit/flush path.", s.LogForces)
	p.counter("rvm_log_intra_saved_bytes_total", "Log bytes avoided by intra-transaction optimization.", s.IntraSavedBytes)
	p.counter("rvm_log_inter_saved_bytes_total", "Log bytes avoided by inter-transaction optimization.", s.InterSavedBytes)
	p.counter("rvm_spool_flushes_total", "Explicit or implicit spool flushes.", s.Flushes)
	p.counter("rvm_truncation_epochs_total", "Epoch truncations completed.", s.EpochTruncs)
	p.counter("rvm_truncation_incr_steps_total", "Incremental truncation page write-outs.", s.IncrSteps)
	p.counter("rvm_truncation_failures_total", "Background truncations that failed.", s.TruncFailures)
	p.counter("rvm_pages_written_total", "Pages written to segments by truncation and unmap.", s.PagesWritten)
	p.counter("rvm_recoveries_total", "Recoveries performed at open.", s.Recoveries)
	p.counter("rvm_recovery_applied_bytes_total", "Bytes applied to segments during recovery.", s.RecoveredBytes)
	p.counter("rvm_recovery_scanned_bytes_total", "Log bytes recovery had to consider (stable LSN to tail).", s.RecoveryScanned)
	p.counter("rvm_recovery_discarded_prepares_total", "Orphaned cross-shard prepares discarded by recovery.", s.DiscardedPrepares)
	p.counter("rvm_io_retries_total", "Transient storage faults retried.", s.Retries)
	p.counter("rvm_checkpoints_total", "Fuzzy checkpoints completed.", s.Checkpoints)
	p.counter("rvm_checkpoint_pages_total", "Pages written to segments by checkpoints.", s.CheckpointPages)
	p.counter("rvm_group_commit_forces_saved_total", "Flush commits acknowledged by another committer's force.", s.ForcesSaved)
	p.counter("rvm_trace_events_total", "Trace events ever recorded.", sn.TraceEvents)

	// Live levels.
	p.gauge("rvm_group_commit_max_batch", "Largest number of flush commits covered by one force.", int64(s.GroupCommitSize))
	p.gauge("rvm_log_used_bytes", "Live bytes in the log area.", sn.LogUsed)
	p.gauge("rvm_log_size_bytes", "Size of the log area.", sn.LogSize)
	p.gauge("rvm_spool_bytes", "Committed no-flush bytes awaiting the log.", sn.SpoolBytes)
	p.gauge("rvm_active_txs", "Transactions currently active.", int64(sn.ActiveTxs))
	p.gauge("rvm_dirty_pages", "Mapped pages with unreflected changes.", int64(sn.DirtyPages))
	p.gauge("rvm_truncating", "1 while a truncation holds the slot.", b2i(sn.Truncating))
	p.gauge("rvm_poisoned", "1 after a fail-stop storage fault.", b2i(sn.Poisoned))

	// Per-shard WAL families, labelled by shard index.  A single-shard
	// engine exposes them with one shard="0" sample, so dashboards keyed
	// on the label work unchanged at any shard count.
	if len(sn.Shards) > 0 {
		p.header("rvm_shard_commits_total", "counter", "Commits logged through each WAL shard.")
		for _, sh := range sn.Shards {
			p.printf("rvm_shard_commits_total{shard=\"%d\"} %d\n", sh.Shard, sh.Commits)
		}
		p.header("rvm_shard_log_bytes", "gauge", "Live log bytes per WAL shard.")
		for _, sh := range sn.Shards {
			p.printf("rvm_shard_log_bytes{shard=\"%d\"} %d\n", sh.Shard, sh.LogUsed)
		}
		p.header("rvm_shard_log_forces_total", "counter", "Log fsyncs per WAL shard.")
		for _, sh := range sn.Shards {
			p.printf("rvm_shard_log_forces_total{shard=\"%d\"} %d\n", sh.Shard, sh.LogForces)
		}
	}

	m := sn.Metrics
	if m == nil {
		return p.err
	}

	// Operation latency summaries.
	p.summary("rvm_commit_flush_ns", "Flush-mode commit latency.", m.CommitFlushNs)
	p.summary("rvm_commit_noflush_ns", "No-flush commit latency.", m.CommitNoFlushNs)
	p.summary("rvm_force_latency_ns", "Log force (fsync) latency.", m.ForceLatencyNs)
	p.summary("rvm_force_batch", "Records covered per force.", m.ForceBatch)
	p.summary("rvm_trunc_pause_ns", "Forward-processing pause per truncation.", m.TruncPauseNs)
	p.summary("rvm_spool_flush_ns", "Spool flush latency.", m.SpoolFlushNs)
	p.summary("rvm_checkpoint_ns", "Fuzzy checkpoint latency.", m.CheckpointNs)
	p.summary("rvm_open_scan_ns", "Scan of one log at Open: finds the tail and feeds the redo builders.", m.OpenScanNs)
	p.summary("rvm_recovery_scan_ns", "Recovery scanning after Open (second scans from a prepare or a checkpoint).", m.RecoveryScanNs)
	p.summary("rvm_recovery_build_ns", "Recovery wait for the redo-tree builders after the scans.", m.RecoveryBuildNs)
	p.summary("rvm_recovery_apply_ns", "Recovery apply phase duration.", m.RecoveryApplyNs)

	// Commit critical-path phases: one family, labelled by phase, so a
	// dashboard stacks them into a where-did-my-commit-go breakdown.
	p.header("rvm_commit_phase_ns", "summary", "Flush-commit critical-path phase latency.")
	for _, ph := range []struct {
		name string
		st   obs.HistStat
	}{
		{"lock_wait", m.PhaseLockWaitNs},
		{"encode", m.PhaseEncodeNs},
		{"pipe_wait", m.PhasePipeWaitNs},
		{"append", m.PhaseAppendNs},
		{"force_wait", m.PhaseForceWaitNs},
		{"gc_leader", m.PhaseGCLeaderNs},
		{"gc_follower", m.PhaseGCFollowerNs},
		{"fsync", m.PhaseFsyncNs},
	} {
		p.summarySamples("rvm_commit_phase_ns", "phase", ph.name, ph.st)
	}

	// Recovery progress gauges (climb while a restart replays the log).
	p.gauge("rvm_recovery_scan_bytes", "Log bytes recovery has to consider (stable LSN to tail).", m.RecoveryScanBytes)
	p.gauge("rvm_recovery_apply_bytes", "Modification bytes applied by recovery so far.", m.RecoveryApplyBytes)
	p.gauge("rvm_recovery_replayed_records", "Log records replayed by recovery so far.", m.RecoveryReplayed)

	// Lock-class contention, labelled by the lock hierarchy's classes.
	if len(m.Locks) > 0 {
		p.header("rvm_lock_acquires_total", "counter", "Lock acquisitions by class.")
		for _, l := range m.Locks {
			p.printf("rvm_lock_acquires_total{class=\"%s\"} %d\n", l.Class, l.Acquires)
		}
		p.header("rvm_lock_slow_total", "counter", "Lock acquisitions that waited.")
		for _, l := range m.Locks {
			p.printf("rvm_lock_slow_total{class=\"%s\"} %d\n", l.Class, l.Slow)
		}
		p.header("rvm_lock_wait_ns_total", "counter", "Nanoseconds spent waiting for locks.")
		for _, l := range m.Locks {
			p.printf("rvm_lock_wait_ns_total{class=\"%s\"} %d\n", l.Class, l.WaitNs)
		}
	}

	// Stalls flagged by the watchdog.
	if len(m.Stalls) > 0 {
		p.header("rvm_stalls_total", "counter", "Operations the watchdog saw exceed the stall budget.")
		for _, st := range m.Stalls {
			p.printf("rvm_stalls_total{class=\"%s\"} %d\n", st.Class, st.Count)
		}
	}
	if ls := m.LastStall; ls != nil {
		p.header("rvm_last_stall_duration_ns", "gauge", "In-flight time of the most recent stall when detected.")
		p.printf("rvm_last_stall_duration_ns{class=\"%s\"} %d\n", ls.Class, ls.DurNs)
		p.header("rvm_last_stall_age_ns", "gauge", "Nanoseconds since the most recent stall was detected.")
		p.printf("rvm_last_stall_age_ns{class=\"%s\"} %d\n", ls.Class, ls.AgoNs)
	}
	return p.err
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
