package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	rvm "github.com/rvm-go/rvm"
)

// The concurrent experiment measures what the paper could not: flush-mode
// commit throughput under goroutine concurrency, serialized force vs.
// group commit.  Unlike the simulation experiments these are real
// measurements — real fsyncs on the host filesystem — so the absolute
// numbers vary by machine.  The fsyncs/commit ratio, however, is a
// property of the commit protocol, which is why the CI regression gate is
// on that ratio and not on throughput.
//
// Group cells run with a small MaxForceDelay so the batch size (and hence
// the gated ratio) is deterministic across hosts: every committer that
// arrives within the window joins the leader's force.
const (
	concCommitsPerWorker = 16
	concForceDelay       = time.Millisecond
	concPayload          = 128
	concSlot             = 256
)

var concWorkers = []int{1, 2, 4, 8, 16, 32, 64}

// concCell is one (mode, workers) measurement, serialized to BENCH_ci.json.
// The latency quantiles come from the engine's log2 histogram layer
// (Options.Metrics), so every cell reports a distribution, not just a
// mean derived from elapsed/commits.
type concCell struct {
	Workers         int     `json:"workers"`
	GroupCommit     bool    `json:"group_commit"`
	Commits         uint64  `json:"commits"`
	ElapsedNs       int64   `json:"elapsed_ns"`
	CommitsPerSec   float64 `json:"commits_per_sec"`
	FsyncsPerCommit float64 `json:"fsyncs_per_commit"`
	MaxBatch        uint64  `json:"max_batch"`
	ForcesSaved     uint64  `json:"forces_saved"`
	CommitP50Ns     int64   `json:"commit_p50_ns"`
	CommitP99Ns     int64   `json:"commit_p99_ns"`
	ForceP99Ns      int64   `json:"force_p99_ns"`
}

type concReport struct {
	Benchmark string     `json:"benchmark"`
	GOOS      string     `json:"goos"`
	GOARCH    string     `json:"goarch"`
	NumCPU    int        `json:"num_cpu"`
	Timestamp string     `json:"timestamp"`
	Cells     []concCell `json:"cells"`
}

// concThresholds is the checked-in regression gate (bench_thresholds.json).
type concThresholds struct {
	ConcurrentCommit struct {
		Workers                 int     `json:"workers"`
		GroupMaxFsyncsPerCommit float64 `json:"group_max_fsyncs_per_commit"`
		GroupMaxCommitP99Ns     int64   `json:"group_max_commit_p99_ns"`
	} `json:"concurrent_commit"`
	ObsOverhead struct {
		Workers        int     `json:"workers"`
		MaxOverheadPct float64 `json:"max_overhead_pct"`
	} `json:"obs_overhead"`
	Scaling struct {
		Workers    int     `json:"workers"`
		MinSpeedup float64 `json:"min_speedup"`
	} `json:"scaling"`
	Recovery struct {
		Parallelism      int    `json:"parallelism"`
		SerialMaxNsPerMB int64  `json:"serial_max_ns_per_mb"`
		MaxNsPerMB       int64  `json:"max_ns_per_mb"`
		MaxCkptScanBytes uint64 `json:"max_ckpt_scan_bytes"`
	} `json:"recovery"`
}

// concurrent runs the sweep, prints a table, optionally writes jsonPath,
// and enforces thresholdsPath (non-nil error on regression).
func concurrent(jsonPath, thresholdsPath string) error {
	report := concReport{
		Benchmark: "concurrent-commit",
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	fmt.Println("Concurrent flush-mode commit: serialized force vs. group commit")
	fmt.Printf("%8s %6s %9s %12s %14s %9s %12s %12s\n",
		"mode", "goros", "commits", "commits/s", "fsyncs/commit", "max-batch", "p50(ms)", "p99(ms)")
	for _, group := range []bool{false, true} {
		for _, workers := range concWorkers {
			cell, err := concRun(group, workers, concCommitsPerWorker, true)
			if err != nil {
				return err
			}
			report.Cells = append(report.Cells, cell)
			mode := "serial"
			if group {
				mode = "group"
			}
			fmt.Printf("%8s %6d %9d %12.0f %14.4f %9d %12.3f %12.3f\n",
				mode, workers, cell.Commits, cell.CommitsPerSec,
				cell.FsyncsPerCommit, cell.MaxBatch,
				float64(cell.CommitP50Ns)/1e6, float64(cell.CommitP99Ns)/1e6)
		}
	}
	if jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	if thresholdsPath != "" {
		return concGate(report, thresholdsPath)
	}
	return nil
}

// concRun measures one cell on a fresh store.  With obs, the engine runs
// with the metrics registry (the histogram layer behind the latency
// quantiles) and the event tracer enabled; without, both are off — the
// configuration the obs experiment uses as its baseline.
func concRun(group bool, workers, commitsPerWorker int, obs bool) (concCell, error) {
	dir, err := os.MkdirTemp("", "rvmbench-conc-*")
	if err != nil {
		return concCell{}, err
	}
	defer os.RemoveAll(dir)
	logPath := filepath.Join(dir, "c.log")
	segPath := filepath.Join(dir, "c.seg")
	if err := rvm.CreateLog(logPath, 64<<20); err != nil {
		return concCell{}, err
	}
	if err := rvm.CreateSegment(segPath, 1, 1<<20); err != nil {
		return concCell{}, err
	}
	opts := rvm.Options{LogPath: logPath, TruncateThreshold: -1}
	if group {
		opts.GroupCommit = true
		opts.MaxForceDelay = concForceDelay
	}
	if obs {
		opts.Metrics = true
		opts.TraceEvents = 4096
	}
	db, err := rvm.Open(opts)
	if err != nil {
		return concCell{}, err
	}
	defer db.Close()
	reg, err := db.Map(segPath, 0, 1<<20)
	if err != nil {
		return concCell{}, err
	}

	payload := make([]byte, concPayload)
	for i := range payload {
		payload[i] = byte(i)
	}
	errs := make([]error, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w) * concSlot
			for j := 0; j < commitsPerWorker; j++ {
				tx, err := db.Begin(rvm.NoRestore)
				if err != nil {
					errs[w] = err
					return
				}
				if err := tx.Modify(reg, base, payload); err != nil {
					errs[w] = err
					return
				}
				if err := tx.Commit(rvm.Flush); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return concCell{}, err
		}
	}
	st := db.Stats()
	cell := concCell{
		Workers:     workers,
		GroupCommit: group,
		Commits:     st.FlushCommits,
		ElapsedNs:   elapsed.Nanoseconds(),
		MaxBatch:    st.GroupCommitSize,
		ForcesSaved: st.ForcesSaved,
	}
	if st.FlushCommits > 0 {
		cell.CommitsPerSec = float64(st.FlushCommits) / elapsed.Seconds()
		cell.FsyncsPerCommit = float64(st.LogForces) / float64(st.FlushCommits)
	}
	if obs {
		sn, err := db.Snapshot()
		if err != nil {
			return concCell{}, err
		}
		if sn.Metrics != nil {
			cell.CommitP50Ns = sn.Metrics.CommitFlushNs.P50
			cell.CommitP99Ns = sn.Metrics.CommitFlushNs.P99
			cell.ForceP99Ns = sn.Metrics.ForceLatencyNs.P99
		}
	}
	return cell, nil
}

// concGate fails if the gated cell regresses past the checked-in threshold.
func concGate(report concReport, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var thr concThresholds
	if err := json.Unmarshal(data, &thr); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	g := thr.ConcurrentCommit
	if g.Workers == 0 {
		return fmt.Errorf("%s: missing concurrent_commit gate", path)
	}
	for _, c := range report.Cells {
		if c.GroupCommit && c.Workers == g.Workers {
			if c.FsyncsPerCommit > g.GroupMaxFsyncsPerCommit {
				return fmt.Errorf(
					"bench gate FAILED: group commit at %d workers ran %.4f fsyncs/commit (threshold %.4f)",
					g.Workers, c.FsyncsPerCommit, g.GroupMaxFsyncsPerCommit)
			}
			if g.GroupMaxCommitP99Ns > 0 && c.CommitP99Ns > g.GroupMaxCommitP99Ns {
				return fmt.Errorf(
					"bench gate FAILED: group commit at %d workers hit p99 %.3f ms (threshold %.3f ms)",
					g.Workers, float64(c.CommitP99Ns)/1e6, float64(g.GroupMaxCommitP99Ns)/1e6)
			}
			fmt.Printf("bench gate ok: group commit at %d workers ran %.4f fsyncs/commit (threshold %.4f), p99 %.3f ms (threshold %.3f ms)\n",
				g.Workers, c.FsyncsPerCommit, g.GroupMaxFsyncsPerCommit,
				float64(c.CommitP99Ns)/1e6, float64(g.GroupMaxCommitP99Ns)/1e6)
			return nil
		}
	}
	return fmt.Errorf("bench gate: no group-commit cell with %d workers", g.Workers)
}

// Obs-overhead experiment: the acceptance bar for the observability layer
// is that the 16-committer group-commit cell with tracing and metrics
// enabled stays within a few percent of the same cell with both disabled.
// Each mode runs several trials and the comparison uses the best trial —
// the least-noise estimator on a shared CI box, where a single slow fsync
// can distort a mean but never improves a maximum.
const (
	obsTrials  = 7
	obsWorkers = 16
	obsCommits = 64 // commits per worker: longer trials than the sweep, to cut scheduler noise
)

func obsOverhead(thresholdsPath string) error {
	best := func(obs bool) (float64, concCell, error) {
		var top concCell
		for i := 0; i < obsTrials; i++ {
			cell, err := concRun(true, obsWorkers, obsCommits, obs)
			if err != nil {
				return 0, concCell{}, err
			}
			if cell.CommitsPerSec > top.CommitsPerSec {
				top = cell
			}
		}
		return top.CommitsPerSec, top, nil
	}
	fmt.Printf("Observability overhead: group commit, %d goroutines x %d commits, best of %d trials\n",
		obsWorkers, obsCommits, obsTrials)
	offTPS, _, err := best(false)
	if err != nil {
		return err
	}
	onTPS, onCell, err := best(true)
	if err != nil {
		return err
	}
	overhead := (offTPS - onTPS) / offTPS * 100
	fmt.Printf("%12s %12s %12s %12s %12s\n", "off tx/s", "on tx/s", "overhead", "p50(ms)", "p99(ms)")
	fmt.Printf("%12.0f %12.0f %11.2f%% %12.3f %12.3f\n", offTPS, onTPS, overhead,
		float64(onCell.CommitP50Ns)/1e6, float64(onCell.CommitP99Ns)/1e6)
	if thresholdsPath == "" {
		return nil
	}
	data, err := os.ReadFile(thresholdsPath)
	if err != nil {
		return err
	}
	var thr concThresholds
	if err := json.Unmarshal(data, &thr); err != nil {
		return fmt.Errorf("parse %s: %w", thresholdsPath, err)
	}
	o := thr.ObsOverhead
	if o.MaxOverheadPct == 0 {
		return fmt.Errorf("%s: missing obs_overhead gate", thresholdsPath)
	}
	if overhead > o.MaxOverheadPct {
		return fmt.Errorf(
			"obs gate FAILED: tracing+metrics cost %.2f%% throughput at %d workers (threshold %.2f%%)",
			overhead, obsWorkers, o.MaxOverheadPct)
	}
	fmt.Printf("obs gate ok: tracing+metrics cost %.2f%% throughput at %d workers (threshold %.2f%%)\n",
		overhead, obsWorkers, o.MaxOverheadPct)
	return nil
}
