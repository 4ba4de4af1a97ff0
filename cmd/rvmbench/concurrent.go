package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/rvm-go/rvm/internal/core"
	"github.com/rvm-go/rvm/internal/iofault"
	"github.com/rvm-go/rvm/internal/obs"
)

// The concurrent experiment measures what the paper could not: flush-mode
// commit throughput under goroutine concurrency, without and with the
// join window (Options.GroupCommit).  Every flush commit forces through
// one ticket, so concurrent committers share a force either way; the
// window only lets a leader wait for committers still arriving.
//
// The log's Sync costs a fixed modelSync, one call at a time, as one disk
// arm would (openModelled): the host's own fsync ranges from microseconds
// on tmpfs to milliseconds on a disk, and on so cheap a force the gated
// ratios would measure the scheduler, not the commit protocol.  The
// fsyncs/commit ratio is a property of that protocol, which is why the CI
// regression gate is on that ratio and not on throughput.
const (
	concCommitsPerWorker = 16
	concPayload          = 128
	concSlot             = 256
	modelSync            = time.Millisecond
)

// openModelled opens an engine on the log created at logPath, its image
// held in memory behind an Injector whose hook makes every log Sync sleep
// modelSync, one sleep at a time: the sleep is the whole cost of a force,
// with none of the host's own fsync in it.  The segments stay files.
func openModelled(logPath string, opts core.Options) (*core.Engine, error) {
	mem, err := iofault.ReadMem(logPath)
	if err != nil {
		return nil, err
	}
	var arm sync.Mutex
	inj := iofault.NewInjector(mem, 1)
	inj.SetHook(func(op iofault.Op, _ int64, _ int) {
		if op == iofault.OpSync {
			arm.Lock()
			time.Sleep(modelSync)
			arm.Unlock()
		}
	})
	opts.LogPath, opts.LogDevice = logPath, inj
	return core.Open(opts)
}

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
	fmt.Printf("Concurrent flush-mode commit on a %v log sync: without and with the join window\n", modelSync)
	fmt.Printf("%8s %6s %9s %12s %14s %9s %12s %12s\n",
		"mode", "goros", "commits", "commits/s", "fsyncs/commit", "max-batch", "p50(ms)", "p99(ms)")
	for _, group := range []bool{false, true} {
		for _, workers := range concWorkers {
			cell, err := concRun(group, workers, concCommitsPerWorker, true)
			if err != nil {
				return err
			}
			report.Cells = append(report.Cells, cell)
			mode := "nowindow"
			if group {
				mode = "window"
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

// concRun measures one cell on a fresh store.  With observe, the engine runs
// with the metrics registry (the histogram layer behind the latency
// quantiles) and the event tracer enabled; without, both are off — the
// configuration the obs experiment uses as its baseline.
func concRun(group bool, workers, commitsPerWorker int, observe bool) (concCell, error) {
	dir, err := os.MkdirTemp("", "rvmbench-conc-*")
	if err != nil {
		return concCell{}, err
	}
	defer os.RemoveAll(dir)
	logPath := filepath.Join(dir, "c.log")
	segPath := filepath.Join(dir, "c.seg")
	if err := core.CreateLog(logPath, 4<<20); err != nil {
		return concCell{}, err
	}
	if err := core.CreateSegment(segPath, 1, 1<<20); err != nil {
		return concCell{}, err
	}
	opts := core.Options{TruncateThreshold: -1, GroupCommit: group}
	if observe {
		opts.Metrics = obs.NewMetrics()
		opts.Tracer = obs.NewTracer(4096)
	}
	db, err := openModelled(logPath, opts)
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
				tx, err := db.Begin(core.NoRestore)
				if err != nil {
					errs[w] = err
					return
				}
				if err := tx.Modify(reg, base, payload); err != nil {
					errs[w] = err
					return
				}
				if err := tx.Commit(core.Flush); err != nil {
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
	if observe {
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
// The cells run in off/on pairs, alternating which side goes first so
// that a drift of the host over the run weighs on both; each pair gives
// one ratio, and the gate is on the median overhead, the quartiles
// printed beside it to show the spread.
const (
	obsPairs   = 31
	obsWorkers = 16
	obsCommits = 128 // commits per worker: longer trials than the sweep, to cut scheduler noise
)

func obsOverhead(thresholdsPath string) error {
	fmt.Printf("Observability overhead: group commit on a %v log sync, %d goroutines x %d commits, %d off/on pairs\n",
		modelSync, obsWorkers, obsCommits, obsPairs)
	overhead := make([]float64, obsPairs)
	for i := range overhead {
		var tps [2]float64 // off, on
		for k := range 2 {
			on := (i + k) % 2 // even pairs run off first, odd pairs on first
			cell, err := concRun(true, obsWorkers, obsCommits, on == 1)
			if err != nil {
				return err
			}
			tps[on] = cell.CommitsPerSec
		}
		overhead[i] = (tps[0] - tps[1]) / tps[0] * 100
	}
	slices.Sort(overhead)
	q := func(f float64) float64 { return overhead[int(f*float64(len(overhead)-1)+0.5)] }
	median := q(0.5)
	fmt.Printf("%12s %12s %12s\n", "q1", "median", "q3")
	fmt.Printf("%11.2f%% %11.2f%% %11.2f%%\n", q(0.25), median, q(0.75))
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
	if median > o.MaxOverheadPct {
		return fmt.Errorf(
			"obs gate FAILED: tracing+metrics cost a median %.2f%% throughput at %d workers (threshold %.2f%%)",
			median, obsWorkers, o.MaxOverheadPct)
	}
	fmt.Printf("obs gate ok: tracing+metrics cost a median %.2f%% throughput at %d workers (threshold %.2f%%)\n",
		median, obsWorkers, o.MaxOverheadPct)
	return nil
}
