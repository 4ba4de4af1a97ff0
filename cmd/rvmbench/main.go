// rvmbench regenerates every table and figure of the paper's evaluation
// (§7):
//
//	rvmbench -experiment table1   # Transactional throughput (Table 1)
//	rvmbench -experiment fig8     # Throughput series for Figure 8(a)/(b)
//	rvmbench -experiment fig9     # Amortized CPU ms/tx for Figure 9(a)/(b)
//	rvmbench -experiment table2   # Optimization savings (Table 2)
//	rvmbench -experiment all
//
// Beyond the paper, -experiment concurrent measures flush-mode commit
// throughput under goroutine concurrency on the real engine over a log
// whose sync costs a fixed 1 ms (without and with the join window), with
// commit-latency p50/p99 from the engine's histogram layer.  With -json FILE it writes the results as JSON; with
// -thresholds FILE it enforces the checked-in CI regression gate on
// fsyncs/commit and p99 commit latency and exits nonzero on violation.
// -experiment obs measures the observability tax itself: the 16-committer
// group cell with tracing+metrics on vs off in alternating pairs, its
// median gated to stay within bench_thresholds.json's obs_overhead budget.  -experiment scaling gates
// the lock decomposition: flush-commit throughput on disjoint regions at
// 16 workers must stay a healthy multiple of the single-worker number
// (bench_thresholds.json's scaling entry); its results merge into the
// -json file under a "scaling" key.
//
// Table 1 / Figures 8-9 run in simulation mode: the workload and the
// logging/optimization logic are real, but I/O and CPU are charged to a
// virtual clock calibrated to the paper's 1993 testbed (see DESIGN.md §5),
// so the series are deterministic on any machine.  Table 2 runs the real
// RVM engine over synthetic Coda workloads and reports the measured
// optimizer savings.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/rvm-go/rvm/internal/camelot"
	"github.com/rvm-go/rvm/internal/codasim"
	"github.com/rvm-go/rvm/internal/tpca"
)

var accounts = []int{
	32768, 65536, 98304, 131072, 163840, 196608, 229376,
	262144, 294912, 327680, 360448, 393216, 425984, 458752,
}

var patterns = []tpca.Pattern{tpca.Sequential, tpca.Random, tpca.Localized}

func main() {
	experiment := flag.String("experiment", "all", "table1 | fig8 | fig9 | table2 | future | concurrent | obs | scaling | recovery | all")
	quick := flag.Bool("quick", false, "fewer simulated transactions per cell")
	scale := flag.Int("scale", 30, "Table 2 transaction-count divisor")
	jsonPath := flag.String("json", "", "write concurrent-experiment results to this JSON file")
	thresholds := flag.String("thresholds", "", "enforce the regression gate in this thresholds file")
	flag.Parse()

	switch *experiment {
	case "table1":
		table1(*quick, false)
	case "fig8":
		fig8(*quick)
	case "fig9":
		table1(*quick, true)
	case "table2":
		table2(*scale)
	case "future":
		future(*quick)
	case "concurrent":
		if err := concurrent(*jsonPath, *thresholds); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "obs":
		if err := obsOverhead(*thresholds); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "scaling":
		if err := scaling(*jsonPath, *thresholds); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "recovery":
		if err := recoveryBench(*jsonPath, *thresholds, *quick); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "all":
		table1(*quick, false)
		fmt.Println()
		fig8(*quick)
		fmt.Println()
		table1(*quick, true)
		fmt.Println()
		table2(*scale)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

// cell runs one (accounts, pattern) cell for both systems.
func cell(acct int, pat tpca.Pattern, quick bool) (rvmRes, camRes tpca.Result) {
	p := tpca.DefaultParams()
	cfg := tpca.Config{Accounts: acct, Pattern: pat, Seed: 42}
	if quick {
		cfg.WarmupTx, cfg.MeasureTx = 15000, 15000
	}
	rvmRes = tpca.Run(cfg, tpca.NewRVM(p, tpca.RmemBytes(acct)))
	camRes = tpca.Run(cfg, camelot.New(p, tpca.RmemBytes(acct)))
	return
}

// table1 prints Table 1 (throughput) or, with cpu=true, the data behind
// Figure 9 (amortized CPU ms per transaction).
func table1(quick, cpu bool) {
	p := tpca.DefaultParams()
	if cpu {
		fmt.Println("Figure 9: amortized CPU cost per transaction (ms)")
	} else {
		fmt.Println("Table 1: transactional throughput (transactions/sec)")
	}
	fmt.Printf("%9s %9s | %27s | %27s\n", "", "", "RVM", "Camelot")
	fmt.Printf("%9s %9s | %8s %8s %9s | %8s %8s %9s\n",
		"accounts", "Rmem/Pmem", "Seq", "Random", "Localized", "Seq", "Random", "Localized")
	for _, acct := range accounts {
		var r, c [3]float64
		for i, pat := range patterns {
			rr, cc := cell(acct, pat, quick)
			if cpu {
				r[i], c[i] = rr.CPUMsPerT, cc.CPUMsPerT
			} else {
				r[i], c[i] = rr.TPS, cc.TPS
			}
		}
		ratio := float64(tpca.RmemBytes(acct)) / float64(p.PmemBytes) * 100
		fmt.Printf("%9d %8.1f%% | %8.1f %8.1f %9.1f | %8.1f %8.1f %9.1f\n",
			acct, ratio, r[0], r[1], r[2], c[0], c[1], c[2])
	}
}

// fig8 prints the throughput series of Figure 8 as plot-ready columns:
// (a) best (sequential) and worst (random) cases, (b) the average
// (localized) case.
func fig8(quick bool) {
	p := tpca.DefaultParams()
	fmt.Println("Figure 8(a): best and worst cases (tx/sec vs Rmem/Pmem %)")
	fmt.Printf("%9s %9s %9s %9s %9s\n", "Rmem/Pmem", "RVM-Seq", "Cam-Seq", "RVM-Rand", "Cam-Rand")
	type row struct{ ratio, rs, cs, rr, cr, rl, cl float64 }
	var rows []row
	for _, acct := range accounts {
		var rw row
		rw.ratio = float64(tpca.RmemBytes(acct)) / float64(p.PmemBytes) * 100
		rSeq, cSeq := cell(acct, tpca.Sequential, quick)
		rRand, cRand := cell(acct, tpca.Random, quick)
		rLoc, cLoc := cell(acct, tpca.Localized, quick)
		rw.rs, rw.cs, rw.rr, rw.cr, rw.rl, rw.cl =
			rSeq.TPS, cSeq.TPS, rRand.TPS, cRand.TPS, rLoc.TPS, cLoc.TPS
		rows = append(rows, rw)
		fmt.Printf("%8.1f%% %9.1f %9.1f %9.1f %9.1f\n", rw.ratio, rw.rs, rw.cs, rw.rr, rw.cr)
	}
	fmt.Println()
	fmt.Println("Figure 8(b): average case (tx/sec vs Rmem/Pmem %)")
	fmt.Printf("%9s %9s %9s\n", "Rmem/Pmem", "RVM-Loc", "Cam-Loc")
	for _, rw := range rows {
		fmt.Printf("%8.1f%% %9.1f %9.1f\n", rw.ratio, rw.rl, rw.cl)
	}
}

// future prints the experiment the paper could not run: RVM with the
// incremental truncation it was still debugging (Table 1's caption says
// "we expect incremental truncation to improve performance
// significantly"), against the epoch-truncation RVM that was measured.
func future(quick bool) {
	p := tpca.DefaultParams()
	pi := p
	pi.RVMIncremental = true
	fmt.Println("Paper's expectation: epoch-truncation RVM (measured) vs incremental (tx/sec, Random)")
	fmt.Printf("%9s %12s %12s\n", "Rmem/Pmem", "RVM-epoch", "RVM-incr")
	for _, acct := range accounts {
		cfg := tpca.Config{Accounts: acct, Pattern: tpca.Random, Seed: 42}
		if quick {
			cfg.WarmupTx, cfg.MeasureTx = 15000, 15000
		}
		epoch := tpca.Run(cfg, tpca.NewRVM(p, tpca.RmemBytes(acct)))
		incr := tpca.Run(cfg, tpca.NewRVM(pi, tpca.RmemBytes(acct)))
		ratio := float64(tpca.RmemBytes(acct)) / float64(p.PmemBytes) * 100
		fmt.Printf("%8.1f%% %12.1f %12.1f\n", ratio, epoch.TPS, incr.TPS)
	}
}

// table2 regenerates Table 2 with the real engine.
func table2(scale int) {
	dir, err := os.MkdirTemp("", "rvmbench-table2-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	rows, err := codasim.RunAll(scale, dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Table 2: savings due to RVM optimizations (workload scaled 1/%d)\n", scale)
	fmt.Printf("%-9s %6s %13s %15s %7s %15s %7s %7s %7s\n",
		"machine", "", "transactions", "bytes to log", "", "", "", "", "")
	fmt.Printf("%-9s %6s %13s %15s %7s %15s %7s %7s %7s\n",
		"", "type", "committed", "(after opts)", "intra", "", "inter", "total", "drain")
	profiles := codasim.Profiles()
	for i, r := range rows {
		kind := "client"
		if profiles[i].Server {
			kind = "server"
		}
		fmt.Printf("%-9s %6s %13d %15d %6.1f%% %15s %6.1f%% %6.1f%% %6.1f%%\n",
			r.Name, kind, r.Transactions, r.LogBytes, r.IntraPct, "", r.InterPct, r.TotalPct, r.DrainPct)
	}
}
