// Benchmarks regenerating the paper's evaluation (§7) plus ablations of
// the design choices DESIGN.md calls out.
//
//	go test -bench=Table1 .        # Table 1 / Figure 8 throughput cells
//	go test -bench=Fig9 .          # Figure 9 CPU cost cells
//	go test -bench=Table2 .        # Table 2 optimization savings
//	go test -bench=Ablate .        # design-choice ablations (real library)
//
// Table 1 / Figure 8 / Figure 9 cells charge a calibrated virtual clock
// (see internal/tpca); the reported custom metrics — vtx/s and
// vcpu-ms/tx — are virtual-time results and deterministic on any host.
// Table 2 and the ablations run the real engine; their custom metrics are
// real measurements.
package rvm_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	rvm "github.com/rvm-go/rvm"
	"github.com/rvm-go/rvm/birrell"
	"github.com/rvm-go/rvm/internal/camelot"
	"github.com/rvm-go/rvm/internal/codasim"
	"github.com/rvm-go/rvm/internal/core"
	"github.com/rvm-go/rvm/internal/iofault"
	"github.com/rvm-go/rvm/internal/obs"
	"github.com/rvm-go/rvm/internal/tpca"
)

// benchRatios samples Table 1's Rmem/Pmem axis: low, knee, and maximum.
var benchRatios = []int{32768, 262144, 458752}

var benchPatterns = []tpca.Pattern{tpca.Sequential, tpca.Random, tpca.Localized}

// simCell runs one simulation cell under the benchmark loop.
func simCell(b *testing.B, system string, acct int, pat tpca.Pattern, metric string) {
	b.Helper()
	p := tpca.DefaultParams()
	var last tpca.Result
	for i := 0; i < b.N; i++ {
		cfg := tpca.Config{Accounts: acct, Pattern: pat, Seed: 42, WarmupTx: 15000, MeasureTx: 15000}
		if system == "rvm" {
			last = tpca.Run(cfg, tpca.NewRVM(p, tpca.RmemBytes(acct)))
		} else {
			last = tpca.Run(cfg, camelot.New(p, tpca.RmemBytes(acct)))
		}
	}
	switch metric {
	case "tps":
		b.ReportMetric(last.TPS, "vtx/s")
	case "cpu":
		b.ReportMetric(last.CPUMsPerT, "vcpu-ms/tx")
	}
}

// BenchmarkTable1 regenerates Table 1 (and thereby Figure 8): virtual
// throughput for both systems across patterns and memory ratios.
func BenchmarkTable1(b *testing.B) {
	p := tpca.DefaultParams()
	for _, system := range []string{"rvm", "camelot"} {
		for _, pat := range benchPatterns {
			for _, acct := range benchRatios {
				ratio := float64(tpca.RmemBytes(acct)) / float64(p.PmemBytes) * 100
				name := fmt.Sprintf("%s/%s/Rmem=%.0f%%", system, pat, ratio)
				b.Run(name, func(b *testing.B) { simCell(b, system, acct, pat, "tps") })
			}
		}
	}
}

// BenchmarkFig8 is the figure-8 alias of Table 1's data, sweeping the full
// ratio axis for the worst case so the curve shape is visible in output.
func BenchmarkFig8(b *testing.B) {
	p := tpca.DefaultParams()
	for _, acct := range []int{32768, 131072, 262144, 360448, 458752} {
		ratio := float64(tpca.RmemBytes(acct)) / float64(p.PmemBytes) * 100
		b.Run(fmt.Sprintf("rvm/Random/Rmem=%.0f%%", ratio), func(b *testing.B) {
			simCell(b, "rvm", acct, tpca.Random, "tps")
		})
		b.Run(fmt.Sprintf("camelot/Random/Rmem=%.0f%%", ratio), func(b *testing.B) {
			simCell(b, "camelot", acct, tpca.Random, "tps")
		})
	}
}

// BenchmarkFig9 regenerates Figure 9: amortized CPU cost per transaction.
func BenchmarkFig9(b *testing.B) {
	p := tpca.DefaultParams()
	for _, system := range []string{"rvm", "camelot"} {
		for _, pat := range benchPatterns {
			for _, acct := range benchRatios {
				ratio := float64(tpca.RmemBytes(acct)) / float64(p.PmemBytes) * 100
				name := fmt.Sprintf("%s/%s/Rmem=%.0f%%", system, pat, ratio)
				b.Run(name, func(b *testing.B) { simCell(b, system, acct, pat, "cpu") })
			}
		}
	}
}

// BenchmarkTable2 regenerates Table 2 on the real engine: per-machine
// optimizer savings, reported as custom metrics.
func BenchmarkTable2(b *testing.B) {
	for _, p := range codasim.Profiles() {
		b.Run(p.Name, func(b *testing.B) {
			var row codasim.Row
			for i := 0; i < b.N; i++ {
				dir := b.TempDir()
				var err error
				row, err = codasim.Run(p, 300, dir)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.IntraPct, "intra-%")
			b.ReportMetric(row.InterPct, "inter-%")
			b.ReportMetric(row.DrainPct, "drain-%")
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations on the real library.
// ---------------------------------------------------------------------------

// benchStore opens a fresh store for ablation benchmarks.  Their commits
// are no-flush, except where a bench wants the log force in the number,
// so the log syncs only at Flush, Truncate and Close.
func benchStore(b *testing.B, opts rvm.Options) (*rvm.RVM, *rvm.Region) {
	b.Helper()
	dir := b.TempDir()
	logPath := filepath.Join(dir, "b.log")
	segPath := filepath.Join(dir, "b.seg")
	if err := rvm.CreateLog(logPath, 64<<20); err != nil {
		b.Fatal(err)
	}
	if err := rvm.CreateSegment(segPath, 1, 1<<20); err != nil {
		b.Fatal(err)
	}
	opts.LogPath = logPath
	if opts.TruncateThreshold == 0 {
		opts.TruncateThreshold = -1 // manual truncation only
	}
	db, err := rvm.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	reg, err := db.Map(segPath, 0, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	return db, reg
}

// BenchmarkAblateCommitMode compares flush against no-flush commit
// latency — the paper's motivation for lazy transactions (§4.2).  The
// difference IS the log force.  A slot's every other rewrite changes all
// of its words, so that each commit logs the whole payload.
func BenchmarkAblateCommitMode(b *testing.B) {
	payloads := [2][]byte{bytes.Repeat([]byte{7}, 256), bytes.Repeat([]byte{8}, 256)}
	for _, mode := range []struct {
		name string
		m    rvm.CommitMode
	}{{"Flush", rvm.Flush}, {"NoFlush", rvm.NoFlush}} {
		b.Run(mode.name, func(b *testing.B) {
			db, reg := benchStore(b, rvm.Options{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx, _ := db.Begin(rvm.Restore)
				if err := tx.Modify(reg, int64(i%1024)*256, payloads[i/1024%2]); err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(mode.m); err != nil {
					b.Fatal(err)
				}
				if i%512 == 511 {
					db.Flush() // bound the spool
				}
			}
			b.StopTimer()
			db.Flush()
		})
	}
}

// BenchmarkAblateTxMode compares restore against no-restore transactions:
// no-restore skips the old-value copies on set-range (§5.1.1).  Each
// transaction changes every word it declares, so that both modes log the
// same bytes and the difference is the copy (and restore's diff against it).
func BenchmarkAblateTxMode(b *testing.B) {
	fill := [2][]byte{bytes.Repeat([]byte{1}, 64<<10), bytes.Repeat([]byte{2}, 64<<10)}
	for _, mode := range []struct {
		name string
		m    rvm.TxMode
	}{{"Restore", rvm.Restore}, {"NoRestore", rvm.NoRestore}} {
		b.Run(mode.name, func(b *testing.B) {
			db, reg := benchStore(b, rvm.Options{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx, _ := db.Begin(mode.m)
				if err := tx.SetRange(reg, 0, 64<<10); err != nil {
					b.Fatal(err)
				}
				copy(reg.Data(), fill[i%2])
				if err := tx.Commit(rvm.NoFlush); err != nil {
					b.Fatal(err)
				}
				if i%64 == 63 {
					db.Flush()
					db.Truncate()
				}
			}
		})
	}
}

// BenchmarkAblateIntraOpt measures the log traffic of a defensively
// written transaction (every range declared three times) and what
// intra-transaction optimization saved of it, from the engine's counters:
// log-B/tx + saved-B/tx is what logging the set-ranges verbatim costs.
func BenchmarkAblateIntraOpt(b *testing.B) {
	db, reg := benchStore(b, rvm.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := db.Begin(rvm.NoRestore)
		off := int64(i%512) * 512
		for rep := 0; rep < 3; rep++ { // defensive duplicates
			if err := tx.SetRange(reg, off, 400); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(rvm.NoFlush); err != nil {
			b.Fatal(err)
		}
		if i%128 == 127 {
			db.Flush()
			db.Truncate()
		}
	}
	b.StopTimer()
	db.Flush()
	st := db.Stats()
	b.ReportMetric(float64(st.LogBytes)/float64(b.N), "log-B/tx")
	b.ReportMetric(float64(st.IntraSavedBytes)/float64(b.N), "saved-B/tx")
}

// BenchmarkAblateInterOpt measures log traffic under a bursty no-flush
// workload (the paper's "cp d1/* d2") and what inter-transaction
// optimization saved of it, from the engine's counters (the record framing
// of a subsumed transaction is saved too, and not counted).
func BenchmarkAblateInterOpt(b *testing.B) {
	payload := bytes.Repeat([]byte{3}, 300)
	db, reg := benchStore(b, rvm.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := db.Begin(rvm.NoRestore)
		// Eight consecutive txs rewrite the same directory entry.
		if err := tx.Modify(reg, int64((i/8)%256)*1024, payload); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(rvm.NoFlush); err != nil {
			b.Fatal(err)
		}
		if i%256 == 255 {
			db.Flush()
			db.Truncate()
		}
	}
	b.StopTimer()
	db.Flush()
	st := db.Stats()
	b.ReportMetric(float64(st.LogBytes)/float64(b.N), "log-B/tx")
	b.ReportMetric(float64(st.InterSavedBytes)/float64(b.N), "saved-B/tx")
}

// BenchmarkAblateTruncation compares epoch truncation against incremental
// truncation for reclaiming the same log population (§5.1.2).
func BenchmarkAblateTruncation(b *testing.B) {
	fill := func(db *rvm.RVM, reg *rvm.Region) {
		payload := bytes.Repeat([]byte{9}, 512)
		for i := 0; i < 64; i++ {
			tx, _ := db.Begin(rvm.NoRestore)
			tx.Modify(reg, int64(i%128)*4096, payload)
			tx.Commit(rvm.NoFlush)
		}
		db.Flush()
	}
	b.Run("Epoch", func(b *testing.B) {
		db, reg := benchStore(b, rvm.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fill(db, reg)
			b.StartTimer()
			if err := db.Truncate(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Incremental", func(b *testing.B) {
		db, reg := benchStore(b, rvm.Options{Incremental: true})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fill(db, reg)
			b.StartTimer()
			if err := db.TruncateIncremental(0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkConcurrentCommit measures flush-mode commit throughput under
// goroutine concurrency, without and with the join window (GroupCommit);
// both share forces through the one ticket.  Real fsyncs: the contended
// log force is exactly what group commit exists to amortize.
// Each benchmark iteration has every worker commit a fixed number of
// transactions to its own disjoint slots, so one iteration (-benchtime 1x)
// already yields a meaningful fsyncs/commit ratio.
func BenchmarkConcurrentCommit(b *testing.B) {
	const commitsPerWorker = 8
	const slotSize = 256
	payload := bytes.Repeat([]byte{11}, 128)
	for _, mode := range []struct {
		name string
		opts rvm.Options
	}{
		{"NoWindow", rvm.Options{}},
		{"Group", rvm.Options{GroupCommit: true}},
	} {
		for _, workers := range []int{1, 2, 4, 8, 16, 32, 64} {
			b.Run(fmt.Sprintf("%s/g%d", mode.name, workers), func(b *testing.B) {
				db, reg := benchStore(b, mode.opts)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					for w := 0; w < workers; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							base := int64(w) * slotSize
							for j := 0; j < commitsPerWorker; j++ {
								tx, err := db.Begin(rvm.NoRestore)
								if err != nil {
									b.Error(err)
									return
								}
								if err := tx.Modify(reg, base, payload); err != nil {
									b.Error(err)
									return
								}
								if err := tx.Commit(rvm.Flush); err != nil {
									b.Error(err)
									return
								}
							}
						}(w)
					}
					wg.Wait()
				}
				b.StopTimer()
				st := db.Stats()
				commits := float64(st.FlushCommits)
				if commits > 0 {
					b.ReportMetric(float64(st.LogForces)/commits, "fsyncs/commit")
					b.ReportMetric(commits/b.Elapsed().Seconds(), "commits/s")
				}
				if st.GroupCommitSize > 0 {
					b.ReportMetric(float64(st.GroupCommitSize), "max-batch")
				}
			})
		}
	}
}

// BenchmarkObsOverhead prices the observability layer at the acceptance
// point: the 16-committer group-commit cell of BenchmarkConcurrentCommit,
// with tracing+metrics off vs on, on a log held in memory (iofault.Mem)
// whose sync is free, so that no device time hides the difference.  The
// On/Off delta in ns/op and in process CPU per commit (cpu-us/commit) is
// what instrumentation costs; `rvmbench -experiment obs` gates the same
// comparison on a modelled 1 ms sync against the bench_thresholds.json
// obs_overhead budget.
func BenchmarkObsOverhead(b *testing.B) {
	const workers = 16
	const commitsPerWorker = 8
	const slotSize = 256
	payload := bytes.Repeat([]byte{11}, 128)
	for _, mode := range []struct {
		name    string
		observe bool
	}{{"Off", false}, {"On", true}} {
		b.Run(mode.name, func(b *testing.B) {
			opts := core.Options{GroupCommit: true}
			if mode.observe {
				opts.Tracer, opts.Metrics = obs.NewTracer(4096), obs.NewMetrics()
			}
			eng, reg := memStore(b, opts)
			cpu0 := processCPU(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						base := int64(w) * slotSize
						for j := 0; j < commitsPerWorker; j++ {
							tx, err := eng.Begin(core.NoRestore)
							if err != nil {
								b.Error(err)
								return
							}
							if err := tx.Modify(reg, base, payload); err != nil {
								b.Error(err)
								return
							}
							if err := tx.Commit(core.Flush); err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
			}
			b.StopTimer()
			cpu := processCPU(b) - cpu0
			if commits := float64(eng.Stats().FlushCommits); commits > 0 {
				b.ReportMetric(commits/b.Elapsed().Seconds(), "commits/s")
				b.ReportMetric(float64(cpu.Microseconds())/commits, "cpu-us/commit")
			}
			if opts.Metrics != nil {
				b.ReportMetric(float64(opts.Metrics.Snapshot().CommitFlushNs.P99)/1e6, "p99-ms")
			}
		})
	}
}

// memStore is benchStore on the engine itself, its log held in memory
// (iofault.Mem), so that a force costs no device time.
func memStore(b *testing.B, opts core.Options) (*core.Engine, *core.Region) {
	b.Helper()
	dir := b.TempDir()
	logPath := filepath.Join(dir, "b.log")
	segPath := filepath.Join(dir, "b.seg")
	if err := rvm.CreateLog(logPath, 64<<20); err != nil {
		b.Fatal(err)
	}
	if err := rvm.CreateSegment(segPath, 1, 1<<20); err != nil {
		b.Fatal(err)
	}
	mem, err := iofault.ReadMem(logPath)
	if err != nil {
		b.Fatal(err)
	}
	opts.LogPath, opts.LogDevice = logPath, mem
	eng, err := core.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	reg, err := eng.Map(segPath, 0, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	return eng, reg
}

// processCPU is the user and system CPU time the process has used.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkConcurrentSetRange measures the no-flush hot path under
// goroutine concurrency with every worker on its own region: after the
// engine-lock decomposition, transactions on disjoint regions contend
// only at the log pipeline, never on a shared region or global mutex.
// The commits are no-flush, so the numbers are about lock contention
// rather than fsync latency; the durability-side scaling gate is `rvmbench
// -experiment scaling`, which forces the log under group commit.
func BenchmarkConcurrentSetRange(b *testing.B) {
	const commitsPerWorker = 32
	const regionLen = int64(1) << 14 // 4 pages per worker
	payload := bytes.Repeat([]byte{13}, 128)
	for _, workers := range []int{1, 2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("g%d", workers), func(b *testing.B) {
			dir := b.TempDir()
			logPath := filepath.Join(dir, "s.log")
			segPath := filepath.Join(dir, "s.seg")
			if err := rvm.CreateLog(logPath, 64<<20); err != nil {
				b.Fatal(err)
			}
			if err := rvm.CreateSegment(segPath, 1, int64(workers)*regionLen); err != nil {
				b.Fatal(err)
			}
			db, err := rvm.Open(rvm.Options{LogPath: logPath, TruncateThreshold: -1})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { db.Close() })
			regions := make([]*rvm.Region, workers)
			for w := range regions {
				if regions[w], err = db.Map(segPath, int64(w)*regionLen, regionLen); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for j := 0; j < commitsPerWorker; j++ {
							tx, err := db.Begin(rvm.NoRestore)
							if err != nil {
								b.Error(err)
								return
							}
							if err := tx.Modify(regions[w], int64(j%32)*256, payload); err != nil {
								b.Error(err)
								return
							}
							if err := tx.Commit(rvm.NoFlush); err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				b.StopTimer()
				if err := db.Flush(); err != nil { // bound the spool between iterations
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.StopTimer()
			st := db.Stats()
			if commits := float64(st.NoFlushCommits); commits > 0 {
				b.ReportMetric(commits/b.Elapsed().Seconds(), "commits/s")
			}
		})
	}
}

// BenchmarkSetRange measures the basic set-range path (with old-value
// copy) — the operation the paper calls out as RVM's per-modification
// overhead.
func BenchmarkSetRange(b *testing.B) {
	db, reg := benchStore(b, rvm.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := db.Begin(rvm.Restore)
		if err := tx.SetRange(reg, int64(i%1024)*256, 128); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(rvm.NoFlush); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			db.Flush()
			db.Truncate()
		}
	}
}

// BenchmarkAblateVsBirrell compares RVM against the Birrell et al. simple
// database (§9's closest relative): single-item durable updates, and the
// cost of reclaiming log space (RVM's truncation vs the full-database
// checkpoint).  Both run on real files with real fsyncs.
func BenchmarkAblateVsBirrell(b *testing.B) {
	const items = 2048
	const valSize = 128
	payload := bytes.Repeat([]byte{5}, valSize)

	b.Run("Update/Birrell", func(b *testing.B) {
		db, err := birrell.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.Update(fmt.Sprintf("k%d", i%items), payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Update/RVM", func(b *testing.B) {
		db, reg := benchStore(b, rvm.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx, _ := db.Begin(rvm.NoRestore)
			if err := tx.Modify(reg, int64(i%items)*valSize, payload); err != nil {
				b.Fatal(err)
			}
			if err := tx.Commit(rvm.Flush); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Log-space reclamation: Birrell must rewrite the whole image; RVM
	// truncates incrementally/epoch-wise proportional to live log, not
	// database size.
	b.Run("Reclaim/BirrellCheckpoint", func(b *testing.B) {
		db, err := birrell.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		for i := 0; i < items; i++ {
			db.Update(fmt.Sprintf("k%d", i), payload)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db.Update(fmt.Sprintf("k%d", i%items), payload)
			b.StartTimer()
			if err := db.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Reclaim/RVMTruncate", func(b *testing.B) {
		db, reg := benchStore(b, rvm.Options{})
		// Same database size: populate the region.
		tx, _ := db.Begin(rvm.NoRestore)
		if err := tx.SetRange(reg, 0, items*valSize); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(rvm.Flush); err != nil {
			b.Fatal(err)
		}
		if err := db.Truncate(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tx, _ := db.Begin(rvm.NoRestore)
			tx.Modify(reg, int64(i%items)*valSize, payload)
			tx.Commit(rvm.Flush)
			b.StartTimer()
			if err := db.Truncate(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMapStartup measures mapping latency versus region size — the
// startup cost §3.2 concedes for RVM's simplicity: "a process' recoverable
// memory must be read in en masse rather than being paged in on demand."
func BenchmarkMapStartup(b *testing.B) {
	for _, backend := range []rvm.Backend{rvm.Heap, rvm.DemandPaging} {
		for _, mb := range []int64{1, 4, 16} {
			name := fmt.Sprintf("CopyAtMap/%dMiB", mb)
			if backend == rvm.DemandPaging {
				name = fmt.Sprintf("DemandPaged/%dMiB", mb)
			}
			b.Run(name, func(b *testing.B) {
				dir := b.TempDir()
				logPath := filepath.Join(dir, "m.log")
				segPath := filepath.Join(dir, "m.seg")
				if err := rvm.CreateLog(logPath, 1<<20); err != nil {
					b.Fatal(err)
				}
				if err := rvm.CreateSegment(segPath, 1, mb<<20); err != nil {
					b.Fatal(err)
				}
				db, err := rvm.Open(rvm.Options{LogPath: logPath, Backend: backend})
				if err != nil {
					b.Fatal(err)
				}
				defer db.Close()
				b.SetBytes(mb << 20)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					reg, err := db.Map(segPath, 0, mb<<20)
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					if err := db.Unmap(reg); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkRecovery measures crash recovery of a log holding 2000
// committed transactions.  Population happens outside the timer; the
// timed section is exactly the Open that replays the log.
func BenchmarkRecovery(b *testing.B) {
	payload := bytes.Repeat([]byte{1}, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		logPath := filepath.Join(dir, "r.log")
		segPath := filepath.Join(dir, "r.seg")
		if err := rvm.CreateLog(logPath, 64<<20); err != nil {
			b.Fatal(err)
		}
		if err := rvm.CreateSegment(segPath, 1, 1<<20); err != nil {
			b.Fatal(err)
		}
		db, err := rvm.Open(rvm.Options{LogPath: logPath, TruncateThreshold: -1})
		if err != nil {
			b.Fatal(err)
		}
		reg, err := db.Map(segPath, 0, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 2000; j++ {
			tx, _ := db.Begin(rvm.NoRestore)
			tx.Modify(reg, int64(j%4096)*200, payload)
			tx.Commit(rvm.NoFlush)
		}
		if err := db.Flush(); err != nil {
			b.Fatal(err)
		}
		// Crash: abandon db without Close.
		b.StartTimer()
		db2, err := rvm.Open(rvm.Options{LogPath: logPath, TruncateThreshold: -1})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if st := db2.Stats(); st.Recoveries != 1 || st.RecoveredBytes == 0 {
			b.Fatalf("no recovery happened: %+v", st)
		}
		db2.Close()
		b.StartTimer()
	}
}
