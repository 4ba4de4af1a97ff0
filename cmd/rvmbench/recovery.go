package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	rvm "github.com/rvm-go/rvm"
)

// The recovery experiment is the regression gate for bounded restart:
// time-to-recover per MB of log must stay under a ceiling both serially
// and on N processors — redo is linear in log bytes, so a per-MB
// figure on the largest log catches any return of a superlinear term —
// and with periodic checkpoints, each of which moves the log's head, the
// log bytes a restart scans must be bounded by the checkpoint interval,
// independent of the log written in all.
//
// Each measured cell opens a fresh byte-for-byte copy of a crashed store,
// because recovery consumes its input: a successful replay empties the
// log, so the original crash image is only good for one Open.  Like the
// other real-engine experiments, every cell keeps the best of several
// trials (a slow CI disk can only hurt a trial, never help one).
const (
	recovPayload  = 8 << 10 // bytes modified per committed transaction
	recovTrials   = 3
	recovCkptMB   = 4 // checkpoint every this many MB of build traffic
	recovFlushTxs = 64
)

// recovCell is one (log size, parallelism) restart measurement.
type recovCell struct {
	LogMB       int     `json:"log_mb"`
	Parallelism int     `json:"parallelism"`
	RecoverNs   int64   `json:"recover_ns"`
	RecoveredMB float64 `json:"recovered_mb"`
	MBPerSec    float64 `json:"mb_per_sec"`
	NsPerMB     int64   `json:"ns_per_mb"`
}

// recovCkptCell is one checkpointed-store restart measurement.
type recovCkptCell struct {
	LogMB        int    `json:"log_mb"`
	WrittenBytes uint64 `json:"written_bytes"` // log bytes the build appended
	ScannedBytes uint64 `json:"scanned_bytes"`
	RecoverNs    int64  `json:"recover_ns"`
}

type recovReport struct {
	GOOS       string          `json:"goos"`
	GOARCH     string          `json:"goarch"`
	NumCPU     int             `json:"num_cpu"`
	Timestamp  string          `json:"timestamp"`
	Cells      []recovCell     `json:"cells"`
	Checkpoint []recovCkptCell `json:"checkpoint"`
	Speedup    float64         `json:"speedup"` // parallel vs serial, largest log
}

// recoveryBench builds crashed stores at several log sizes, measures
// time-to-recover at GOMAXPROCS 1 vs N, repeats on checkpointed stores,
// prints the cells, merges a "recovery" key into jsonPath, and enforces
// the thresholds gate.
func recoveryBench(jsonPath, thresholdsPath string, quick bool) error {
	par := 4
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
		if thr.Recovery.Parallelism == 0 {
			return fmt.Errorf("%s: missing recovery gate", thresholdsPath)
		}
		par = thr.Recovery.Parallelism
	}
	sizes := []int{16, 64}
	ckptSizes := []int{16, 64}
	if quick {
		sizes = []int{8}
		ckptSizes = []int{4, 8}
	}
	report := recovReport{
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}

	fmt.Printf("Recovery: redo on the scan's goroutine, best of %d trials\n", recovTrials)
	fmt.Printf("%7s %12s %12s %10s %10s\n", "log", "parallelism", "recover", "MB/s", "ns/MB")
	for _, mb := range sizes {
		dir, err := os.MkdirTemp("", "rvmbench-recov-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if _, err := recovBuild(dir, mb, 0); err != nil {
			return err
		}
		for _, p := range []int{1, par} {
			cell, err := recovMeasure(dir, mb, p)
			if err != nil {
				return err
			}
			report.Cells = append(report.Cells, cell)
			fmt.Printf("%5dMB %12d %12s %10.1f %10d\n", cell.LogMB, cell.Parallelism,
				time.Duration(cell.RecoverNs), cell.MBPerSec, cell.NsPerMB)
		}
		n := len(report.Cells)
		if serial := report.Cells[n-2].RecoverNs; serial > 0 && report.Cells[n-1].RecoverNs > 0 {
			report.Speedup = float64(serial) / float64(report.Cells[n-1].RecoverNs)
		}
	}
	fmt.Printf("speedup at parallelism %d (largest log): %.2fx\n", par, report.Speedup)

	fmt.Printf("\nCheckpointed restart: a checkpoint (a head move) every %dMB of commits\n", recovCkptMB)
	fmt.Printf("%7s %14s %14s %12s\n", "log", "written bytes", "scanned bytes", "recover")
	for _, mb := range ckptSizes {
		dir, err := os.MkdirTemp("", "rvmbench-ckpt-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		written, err := recovBuild(dir, mb, recovCkptMB)
		if err != nil {
			return err
		}
		cell, err := recovMeasureCkpt(dir, mb, par)
		if err != nil {
			return err
		}
		cell.WrittenBytes = written
		report.Checkpoint = append(report.Checkpoint, cell)
		fmt.Printf("%5dMB %14d %14d %12s\n", cell.LogMB, cell.WrittenBytes,
			cell.ScannedBytes, time.Duration(cell.RecoverNs))
	}

	if jsonPath != "" {
		if err := mergeJSONKey(jsonPath, "recovery", report); err != nil {
			return err
		}
		fmt.Printf("merged recovery results into %s\n", jsonPath)
	}
	if thr == nil {
		return nil
	}
	r := thr.Recovery
	// The largest log's cells: serial, then parallel.
	n := len(report.Cells)
	for i, limit := range []int64{r.SerialMaxNsPerMB, r.MaxNsPerMB} {
		cell := report.Cells[n-2+i]
		if limit > 0 && cell.NsPerMB > limit {
			return fmt.Errorf(
				"recovery gate FAILED: %d ns/MB to recover the %dMB log at parallelism %d (threshold %d)",
				cell.NsPerMB, cell.LogMB, cell.Parallelism, limit)
		}
		fmt.Printf("recovery gate ok: %d ns/MB to recover the %dMB log at parallelism %d (threshold %d)\n",
			cell.NsPerMB, cell.LogMB, cell.Parallelism, limit)
	}
	big := report.Checkpoint[len(report.Checkpoint)-1]
	if r.MaxCkptScanBytes > 0 && big.ScannedBytes > r.MaxCkptScanBytes {
		return fmt.Errorf(
			"recovery gate FAILED: checkpointed %dMB restart scanned %d log bytes (threshold %d)",
			big.LogMB, big.ScannedBytes, r.MaxCkptScanBytes)
	}
	fmt.Printf("recovery gate ok: checkpointed %dMB restart scanned %d log bytes (threshold %d)\n",
		big.LogMB, big.ScannedBytes, r.MaxCkptScanBytes)
	return nil
}

// recovBuild creates a store in dir, commits about mb MB of modifications,
// and abandons it without Close — a crash image whose live log holds the
// full workload (truncation is disabled).  ckptEveryMB > 0 runs a
// checkpoint every that many MB, so the crash image's live log is only what
// was written after the last one.  It returns the log bytes appended.
func recovBuild(dir string, mb, ckptEveryMB int) (uint64, error) {
	logPath := filepath.Join(dir, "r.log")
	segPath := filepath.Join(dir, "r.seg")
	segLen := int64(mb) << 20
	// Headers and wraps ride along with the payload; double capacity keeps
	// the build clear of log-full truncation stalls.
	if err := rvm.CreateLog(logPath, 2*segLen+(1<<20)); err != nil {
		return 0, err
	}
	if err := rvm.CreateSegment(segPath, 1, segLen); err != nil {
		return 0, err
	}
	db, err := rvm.Open(rvm.Options{
		LogPath:           logPath,
		TruncateThreshold: -1,
	})
	if err != nil {
		return 0, err
	}
	reg, err := db.Map(segPath, 0, segLen)
	if err != nil {
		return 0, err
	}
	payload := bytes.Repeat([]byte{0xAB}, recovPayload)
	commits := int(segLen) / recovPayload
	ckptEvery := 0
	if ckptEveryMB > 0 {
		ckptEvery = (ckptEveryMB << 20) / recovPayload
	}
	for i := 0; i < commits; i++ {
		tx, err := db.Begin(rvm.NoRestore)
		if err != nil {
			return 0, err
		}
		payload[0], payload[1] = byte(i), byte(i>>8) // distinct per commit
		if err := tx.Modify(reg, int64(i)*recovPayload, payload); err != nil {
			return 0, err
		}
		if err := tx.Commit(rvm.NoFlush); err != nil {
			return 0, err
		}
		if (i+1)%recovFlushTxs == 0 {
			if err := db.Flush(); err != nil {
				return 0, err
			}
		}
		// Offset the cadence by half an interval so a tail of commits
		// always follows the last checkpoint: the measured restart then
		// scans a realistic half-interval suffix rather than hitting a
		// checkpoint that landed exactly at the crash point.
		if ckptEvery > 0 && (i+1)%ckptEvery == ckptEvery/2 {
			if err := db.Checkpoint(); err != nil {
				return 0, err
			}
		}
	}
	// Force the tail durable, then abandon the handles: no Close means no
	// final truncation, so the next Open replays the log like a restart
	// after a power failure.
	err = db.Flush()
	return db.Stats().LogBytes, err
}

// recovCopy clones the crash image into a fresh directory, rewriting the
// segment dictionary's paths (recovery must replay into the clone's
// segments, not the original's).
func recovCopy(srcDir string) (string, error) {
	dstDir, err := os.MkdirTemp("", "rvmbench-recov-run-*")
	if err != nil {
		return "", err
	}
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		return "", err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(srcDir, e.Name()))
		if err != nil {
			return "", err
		}
		if strings.HasSuffix(e.Name(), ".segs") {
			data = []byte(strings.ReplaceAll(string(data), srcDir, dstDir))
		}
		if err := os.WriteFile(filepath.Join(dstDir, e.Name()), data, 0o644); err != nil {
			return "", err
		}
	}
	return dstDir, nil
}

// recovOpen clones dir and times a recovering Open at the given
// parallelism, which brackets the timed Open as GOMAXPROCS: redo runs on
// one goroutine, so the width is what the runtime (its collector) gets
// beside it.  It returns the wall time and the engine's
// post-recovery statistics.
func recovOpen(dir string, parallelism int) (int64, rvm.Statistics, error) {
	run, err := recovCopy(dir)
	if err != nil {
		return 0, rvm.Statistics{}, err
	}
	defer os.RemoveAll(run)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(parallelism, 1)))
	start := time.Now()
	db, err := rvm.Open(rvm.Options{
		LogPath:           filepath.Join(run, "r.log"),
		TruncateThreshold: -1,
	})
	if err != nil {
		return 0, rvm.Statistics{}, err
	}
	ns := time.Since(start).Nanoseconds()
	st := db.Stats()
	err = db.Close()
	return ns, st, err
}

// recovMeasure is the best-of-trials restart time at one parallelism.
func recovMeasure(dir string, mb, parallelism int) (recovCell, error) {
	cell := recovCell{LogMB: mb, Parallelism: parallelism}
	for i := 0; i < recovTrials; i++ {
		ns, st, err := recovOpen(dir, parallelism)
		if err != nil {
			return cell, err
		}
		if st.RecoveredBytes == 0 {
			return cell, fmt.Errorf("recovery at parallelism %d replayed nothing", parallelism)
		}
		if cell.RecoverNs == 0 || ns < cell.RecoverNs {
			cell.RecoverNs = ns
			cell.RecoveredMB = float64(st.RecoveredBytes) / (1 << 20)
		}
	}
	secs := float64(cell.RecoverNs) / 1e9
	if secs > 0 {
		cell.MBPerSec = cell.RecoveredMB / secs
	}
	if cell.RecoveredMB > 0 {
		cell.NsPerMB = int64(float64(cell.RecoverNs) / cell.RecoveredMB)
	}
	return cell, nil
}

// recovMeasureCkpt measures one checkpointed crash image: what matters is
// how much log the restart had to scan, which the checkpoint bounds.
func recovMeasureCkpt(dir string, mb, parallelism int) (recovCkptCell, error) {
	cell := recovCkptCell{LogMB: mb}
	for i := 0; i < recovTrials; i++ {
		ns, st, err := recovOpen(dir, parallelism)
		if err != nil {
			return cell, err
		}
		if cell.RecoverNs == 0 || ns < cell.RecoverNs {
			cell.RecoverNs = ns
			cell.ScannedBytes = st.RecoveryScanned
		}
	}
	return cell, nil
}
