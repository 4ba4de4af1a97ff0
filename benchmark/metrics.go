package main

import (
	"fmt"
	"io"
	"runtime"
	"syscall"

	"github.com/rvm-go/rvm/internal/obs"
)

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// stallNs is the latency above which a client operation counts as stalled
// behind truncation: the model Sync is 1 ms, so nothing else takes 20.
const stallNs = 20e6

// quantile is the nearest-rank q-quantile of sorted, 0 when it is empty.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// seconds sums sorted latencies in ns, and apart those over stallNs.
func seconds(sorted []int64) (total, stalled float64) {
	for _, ns := range sorted {
		total += float64(ns) / 1e9
		if float64(ns) > stallNs {
			stalled += float64(ns) / 1e9
		}
	}
	return total, stalled
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (m *measurement) txPerSecond() float64 { return ratio(float64(m.txs), m.wallS) }

// endToEnd are the numbers a user of the library sees, measured with
// tracing and the engine's metrics off.  Every workload reports every one.
func endToEnd(m *measurement) []metric {
	return []metric{
		{"setup_s", "s", median(m.setupS)},
		{"tx_per_s", "1/s", m.txPerSecond()},
		{"log_bytes_per_user_byte", "B/B", ratio(float64(m.stats.LogBytes), float64(m.userBytes))},
		{"restart_s", "s", m.restartS[len(m.restartS)/2]},
	}
}

// hostInfo relates the model device to the machine the run was on.
type hostInfo struct {
	modelSyncUs float64
	fsyncP50Us  float64
}

// perLayer are the numbers of single layers from a traced run t, with u
// the untraced run of the same work made just before it.
func perLayer(sp spec, u, t *measurement, lt layerTimes, host hostInfo) []metric {
	// The window of the restart workload runs on the volatile device, which
	// is not instrumented; its device numbers are those of the restarts.
	dev := t.window
	if sp.crash {
		dev = t.restarts
	}
	txs := float64(t.txs)
	d := t.stats
	naive := float64(d.LogBytes + d.IntraSavedBytes + d.InterSavedBytes)
	var met, recMet obs.MetricsSnapshot
	if t.met != nil {
		met = *t.met
	}
	if t.recMet != nil {
		recMet = *t.recMet
	}
	phases := float64(met.PhaseLockWaitNs.P50 + met.PhaseEncodeNs.P50 + met.PhasePipeWaitNs.P50 +
		met.PhaseAppendNs.P50 + met.PhaseForceWaitNs.P50)
	_, commitStallS := seconds(t.commitNs)
	_, flushStallS := seconds(t.flushNs)
	stallS := commitStallS + flushStallS
	maxNs := max(quantile(t.commitNs, 1), quantile(t.flushNs, 1))
	// The registry also saw set-up's Truncate; a window without truncation
	// has no pause of its own.
	pauseP50 := float64(met.TruncPauseNs.P50)
	if d.EpochTruncs+d.IncrSteps == 0 {
		pauseP50 = 0
	}
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)

	return []metric{
		{"logdev.syncs", "count", float64(dev.count[spLogSync])},
		{"logdev.sync_busy_s", "s", float64(dev.ns[spLogSync]) / 1e9},
		{"logdev.writes", "count", float64(dev.count[spLogWrite])},
		{"logdev.write_bytes", "B", float64(dev.bytes[spLogWrite])},
		{"logdev.reads", "count", float64(dev.count[spLogRead])},
		{"logdev.read_bytes", "B", float64(dev.bytes[spLogRead])},
		{"segdev.syncs", "count", float64(dev.count[spSegSync])},
		{"segdev.sync_busy_s", "s", float64(dev.ns[spSegSync]) / 1e9},
		{"segdev.writes", "count", float64(dev.count[spSegWrite])},
		{"segdev.write_bytes", "B", float64(dev.bytes[spSegWrite])},
		{"segdev.bytes_per_user_byte", "B/B", ratio(float64(dev.bytes[spSegWrite]), float64(t.userBytes))},

		{"wal.append_ns_per_rec", "ns", lt.walAppendNsPerRec},
		{"wal.append_bytes_per_rec", "B", lt.walAppendBytesPerRec},
		{"wal.force_ns", "ns", lt.walForceNs},
		{"wal.scan_ns_per_mb", "ns", lt.walScanNsPerMB},
		{"wal.sethead_ns", "ns", lt.walSetHeadNs},
		{"itree.insert_overwrite_ns_per_range", "ns", lt.itreeOverwriteNsPerRange},
		{"itree.insert_keep_ns_per_range", "ns", lt.itreeKeepNsPerRange},
		{"itree.walk_ns_per_interval", "ns", lt.itreeWalkNsPerInterval},
		{"itree.intervals", "count", lt.itreeIntervals},
		{"recovery.collect_epoch_ns_per_mb", "ns", lt.collectEpochNsPerMB},
		{"recovery.apply_ns_per_mb", "ns", lt.applyNsPerMB},
		{"recovery.recover_ns_per_mb", "ns", lt.recoverNsPerMB},
		{"pagevec.queue_push_pop_ns", "ns", lt.queuePushPopNs},
		{"segment.write_ns_per_page", "ns", lt.segmentWriteNsPerPage},

		{"core.begin_ns_per_tx", "ns", float64(t.window.ns[spBegin]) / txs},
		{"core.setrange_ns_per_tx", "ns", float64(t.window.ns[spSetRange]) / txs},
		{"core.commit_ns_per_tx", "ns", float64(t.window.ns[spCommit]) / txs},
		{"core.flush_ns_per_call", "ns", t.window.perCall(spFlush)},
		{"core.flush_p50_us", "us", quantile(t.flushNs, 0.50) / 1e3},
		{"core.commit_p50_us", "us", quantile(t.commitNs, 0.50) / 1e3},
		{"core.commit_p95_us", "us", quantile(t.commitNs, 0.95) / 1e3},
		{"core.commit_p99_us", "us", quantile(t.commitNs, 0.99) / 1e3},
		{"core.commit_p999_us", "us", quantile(t.commitNs, 0.999) / 1e3},
		{"core.commit_max_ms", "ms", quantile(t.commitNs, 1) / 1e6},
		{"core.close_s", "s", t.closeS},
		{"core.final_truncate_s", "s", t.truncateS},
		{"core.restart_min_s", "s", t.restartS[0]},
		{"core.restart_max_s", "s", t.restartS[len(t.restartS)-1]},
		{"core.retries", "count", float64(d.Retries)},

		{"core.phase.lock_wait_p50_ns", "ns", float64(met.PhaseLockWaitNs.P50)},
		{"core.phase.encode_p50_ns", "ns", float64(met.PhaseEncodeNs.P50)},
		{"core.phase.pipe_wait_p50_ns", "ns", float64(met.PhasePipeWaitNs.P50)},
		{"core.phase.append_p50_ns", "ns", float64(met.PhaseAppendNs.P50)},
		{"core.phase.force_wait_p50_ns", "ns", float64(met.PhaseForceWaitNs.P50)},
		{"core.phase.fsync_p50_ns", "ns", float64(met.PhaseFsyncNs.P50)},
		{"core.phase.gc_leader_p50_ns", "ns", float64(met.PhaseGCLeaderNs.P50)},
		{"core.phase.gc_follower_p50_ns", "ns", float64(met.PhaseGCFollowerNs.P50)},
		{"core.phase.attributed_frac", "frac", ratio(phases, quantile(t.commitNs, 0.50))},

		{"core.groupcommit.forces_per_commit", "ratio", float64(d.LogForces) / txs},
		{"core.groupcommit.max_batch", "count", float64(d.GroupCommitSize)},
		{"core.opt.intra_saved_frac", "frac", ratio(float64(d.IntraSavedBytes), naive)},
		{"core.opt.inter_saved_frac", "frac", ratio(float64(d.InterSavedBytes), naive)},

		{"core.trunc.epochs", "count", float64(d.EpochTruncs)},
		{"core.trunc.incr_steps", "count", float64(d.IncrSteps)},
		{"core.trunc.pages_written", "count", float64(d.PagesWritten)},
		{"core.trunc.pause_p50_ns", "ns", pauseP50},
		{"core.trunc.stall_s", "s", stallS},
		{"core.trunc.stall_max_ms", "ms", maxNs / 1e6},

		{"recovery.scan_ns", "ns", float64(recMet.RecoveryScanNs.Sum)},
		{"recovery.apply_ns", "ns", float64(recMet.RecoveryApplyNs.Sum)},
		{"recovery.scanned_bytes", "B", float64(t.recovered.RecoveryScanned)},
		{"recovery.recovered_bytes", "B", float64(t.recovered.RecoveredBytes)},

		{"check.failed_frac", "frac", ratio(float64(t.failed+u.failed), float64(t.attempted+u.attempted))},
		{"obs.overhead_frac", "frac", 1 - ratio(t.txPerSecond(), u.txPerSecond())},
		{"proc.cpu_us_per_tx", "us", ratio(t.cpuS*1e6, txs)},
		{"proc.peak_rss_mb", "MB", float64(ru.Maxrss) / 1024},
		{"host.model_sync_us", "us", host.modelSyncUs},
		{"host.fsync_p50_us", "us", host.fsyncP50Us},
		{"host.nproc", "count", float64(runtime.NumCPU())},
	}
}

// stageSums prints where the traced window's time went, so a reader can
// see that the stages add up to the end-to-end number.
func stageSums(w io.Writer, sp spec, t *measurement) {
	commitS, commitStallS := seconds(t.commitNs)
	flushS, flushStallS := seconds(t.flushNs)
	fmt.Fprintf(w, "# stage sums %s: wall %.3f s x %d client(s) = transactions %.3f s + flushes %.3f s + loop %.3f s; %.3f s of it in operations over 20 ms\n",
		sp.name, t.wallS, sp.clients, commitS, flushS, t.wallS*float64(sp.clients)-commitS-flushS, commitStallS+flushStallS)
	// The engine's histograms cannot be reset: on the restart workload
	// they hold the 42 000 load commits, whose Sync was free, not the window.
	if t.met == nil || t.met.PhaseForceWaitNs.Count == 0 || sp.crash {
		return
	}
	p := t.met
	fmt.Fprintf(w, "# stage sums %s: commit p50 %.0f ns; phase p50s lock %d + encode %d + pipe %d + append %d + force %d = %d ns\n",
		sp.name, quantile(t.commitNs, 0.5), p.PhaseLockWaitNs.P50, p.PhaseEncodeNs.P50, p.PhasePipeWaitNs.P50,
		p.PhaseAppendNs.P50, p.PhaseForceWaitNs.P50,
		p.PhaseLockWaitNs.P50+p.PhaseEncodeNs.P50+p.PhasePipeWaitNs.P50+p.PhaseAppendNs.P50+p.PhaseForceWaitNs.P50)
}
