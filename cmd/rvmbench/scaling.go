package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/rvm-go/rvm/internal/core"
)

// The scaling experiment is the regression gate for the decomposed engine
// lock: flush-mode commit throughput on disjoint regions must grow with
// worker count.  Every worker owns a private region, so after the lock
// split the only shared state on the commit path is the log pipeline and
// the group-commit window.  The speedup at 16 workers therefore measures
// fsync amortization plus hot-path concurrency, and collapses back toward
// 1x if a global lock ever reappears around commit — which is exactly the
// regression the gate exists to catch.  Like the concurrent experiment it
// runs on a log whose Sync costs a fixed modelSync (openModelled), and each
// cell keeps the best of several trials (a slow CI fsync or a descheduled
// committer can only hurt a trial, never help one).
const (
	scalTotalCommits = 128
	scalTrials       = 5
	scalRegionLen    = int64(1) << 14 // 4 pages per worker
	scalPayload      = 128
)

// scalCell is one worker-count measurement, merged into BENCH_ci.json.
type scalCell struct {
	Workers       int     `json:"workers"`
	Commits       uint64  `json:"commits"`
	ElapsedNs     int64   `json:"elapsed_ns"`
	CommitsPerSec float64 `json:"commits_per_sec"`
}

type scalReport struct {
	GOOS      string     `json:"goos"`
	GOARCH    string     `json:"goarch"`
	NumCPU    int        `json:"num_cpu"`
	Timestamp string     `json:"timestamp"`
	Cells     []scalCell `json:"cells"`
	Speedup   float64    `json:"speedup"`
}

// scaling measures 1 vs N workers, prints the cells, merges a "scaling"
// key into jsonPath, and enforces the thresholds gate.
func scaling(jsonPath, thresholdsPath string) error {
	workers := 16
	var thr *concThresholds
	if thresholdsPath != "" {
		data, err := os.ReadFile(thresholdsPath)
		if err != nil {
			return err
		}
		thr = &concThresholds{}
		if err := json.Unmarshal(data, thr); err != nil {
			return fmt.Errorf("parse %s: %w", thresholdsPath, err)
		}
		if thr.Scaling.Workers == 0 {
			return fmt.Errorf("%s: missing scaling gate", thresholdsPath)
		}
		workers = thr.Scaling.Workers
	}
	report := scalReport{
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	fmt.Printf("Commit scaling: group commit on a %v log sync, disjoint regions, best of %d trials\n", modelSync, scalTrials)
	fmt.Printf("%8s %9s %12s\n", "goros", "commits", "commits/s")
	for _, n := range []int{1, workers} {
		var top scalCell
		for i := 0; i < scalTrials; i++ {
			cell, err := scalRun(n)
			if err != nil {
				return err
			}
			if cell.CommitsPerSec > top.CommitsPerSec {
				top = cell
			}
		}
		report.Cells = append(report.Cells, top)
		fmt.Printf("%8d %9d %12.0f\n", top.Workers, top.Commits, top.CommitsPerSec)
	}
	if base := report.Cells[0].CommitsPerSec; base > 0 {
		report.Speedup = report.Cells[1].CommitsPerSec / base
	}
	fmt.Printf("speedup at %d workers: %.2fx\n", workers, report.Speedup)
	if jsonPath != "" {
		if err := mergeJSONKey(jsonPath, "scaling", report); err != nil {
			return err
		}
		fmt.Printf("merged scaling results into %s\n", jsonPath)
	}
	if thr != nil {
		if report.Speedup < thr.Scaling.MinSpeedup {
			return fmt.Errorf(
				"scaling gate FAILED: %d workers ran %.2fx the single-worker throughput (threshold %.2fx)",
				workers, report.Speedup, thr.Scaling.MinSpeedup)
		}
		fmt.Printf("scaling gate ok: %d workers ran %.2fx the single-worker throughput (threshold %.2fx)\n",
			workers, report.Speedup, thr.Scaling.MinSpeedup)
	}
	return nil
}

// scalRun measures one worker count on a fresh store: flush commits on the
// modelled log sync under group commit, each worker on its own region, total
// work held constant so ops/sec is comparable across counts.
func scalRun(workers int) (scalCell, error) {
	dir, err := os.MkdirTemp("", "rvmbench-scal-*")
	if err != nil {
		return scalCell{}, err
	}
	defer os.RemoveAll(dir)
	logPath := filepath.Join(dir, "s.log")
	segPath := filepath.Join(dir, "s.seg")
	if err := core.CreateLog(logPath, 4<<20); err != nil {
		return scalCell{}, err
	}
	if err := core.CreateSegment(segPath, 1, int64(workers)*scalRegionLen); err != nil {
		return scalCell{}, err
	}
	db, err := openModelled(logPath, core.Options{TruncateThreshold: -1, GroupCommit: true})
	if err != nil {
		return scalCell{}, err
	}
	defer db.Close()
	regions := make([]*core.Region, workers)
	for w := range regions {
		if regions[w], err = db.Map(segPath, int64(w)*scalRegionLen, scalRegionLen); err != nil {
			return scalCell{}, err
		}
	}
	payload := make([]byte, scalPayload)
	for i := range payload {
		payload[i] = byte(i)
	}
	perWorker := scalTotalCommits / workers
	errs := make([]error, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				tx, err := db.Begin(core.NoRestore)
				if err != nil {
					errs[w] = err
					return
				}
				if err := tx.Modify(regions[w], int64(j%32)*256, payload); err != nil {
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
			return scalCell{}, err
		}
	}
	st := db.Stats()
	cell := scalCell{
		Workers:   workers,
		Commits:   st.FlushCommits,
		ElapsedNs: elapsed.Nanoseconds(),
	}
	if st.FlushCommits > 0 {
		cell.CommitsPerSec = float64(st.FlushCommits) / elapsed.Seconds()
	}
	return cell, nil
}

// mergeJSONKey sets key = value in the JSON object at path, preserving
// whatever the concurrent experiment (or anything else) already wrote
// there.  A missing or empty file starts a fresh object.
func mergeJSONKey(path, key string, value any) error {
	doc := map[string]json.RawMessage{}
	if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("merge into %s: %w", path, err)
		}
	} else if err != nil && !os.IsNotExist(err) {
		return err
	}
	raw, err := json.Marshal(value)
	if err != nil {
		return err
	}
	doc[key] = raw
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
