// Command benchmark is the repository's benchmark: five paper-shaped
// workloads driven against the real engine (internal/core) on a model
// storage device, with end-to-end metrics from an untraced run and
// per-layer metrics from a traced one.  README.md in this directory says
// why each workload and metric is there; BENCHMARK.json at the root of the
// repository names them for the driver.
//
//	go run ./benchmark                                   every workload, untraced then traced
//	go run ./benchmark -workload tpca_flush -seed 3      one workload, end-to-end metrics
//	go run ./benchmark -workload restart -trace 1        one workload, per-layer metrics
//	go run ./benchmark -compare old.json new.json        deltas against BENCHMARK.json's bounds
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// result is the JSON object the driver reads from the last line of
// standard output: exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one entry of an -out file: a result and the run it came from.
type report struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Device   string  `json:"device"`
	result
}

// runWorkload measures one workload and prints its metrics to w, one per
// line, followed by the result line.
func runWorkload(w io.Writer, sp spec, cfg runConfig, trace int, spans string) (report, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return report{}, err
	}
	rep := report{Workload: sp.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: trace, Device: cfg.device,
		result: result{Metrics: map[string]metricValue{}}}
	fmt.Fprintf(w, "# workload %s seed %d seconds %g trace %d device %s\n", sp.name, cfg.seed, cfg.seconds, trace, cfg.device)
	u, err := sp.measure(cfg, false)
	if err != nil {
		return rep, err
	}
	rep.Attempted, rep.Failed = u.attempted, u.failed
	errs := u.errs
	var metrics []metric
	if trace == 0 {
		metrics = endToEnd(u)
		fmt.Fprintf(w, "# %d transactions in %.3f s, %d commit samples, %d flush samples\n",
			u.txs, u.wallS, len(u.commitNs), len(u.flushNs))
		fmt.Fprintf(w, "# set-up %.4f s; restarts %.4f s\n", u.setupS, u.restartS)
		fmt.Fprintf(w, "# commit p50 %.0f p90 %.0f p95 %.0f p98 %.0f p99 %.0f p99.9 %.0f max %.0f ns\n",
			quantile(u.commitNs, .5), quantile(u.commitNs, .9), quantile(u.commitNs, .95), quantile(u.commitNs, .98),
			quantile(u.commitNs, .99), quantile(u.commitNs, .999), quantile(u.commitNs, 1))
	} else {
		t, err := sp.measure(cfg, true)
		if err != nil {
			return rep, err
		}
		rep.Attempted += t.attempted
		rep.Failed += t.failed
		errs = append(errs, t.errs...)
		lt, err := replayLayers(t.ranges, t.segBytes, cfg.dir, cfg.syncCost())
		if err != nil {
			return rep, fmt.Errorf("layer replay: %w", err)
		}
		host, err := probeHost(cfg.dir, cfg.syncCost())
		if err != nil {
			return rep, err
		}
		metrics = perLayer(sp, u, t, lt, host)
		stageSums(w, sp, t)
		if spans != "" {
			if err := t.tr.writeFile(spans); err != nil {
				return rep, err
			}
		}
	}
	for _, e := range errs {
		fmt.Fprintf(w, "# FAILED %s\n", e)
	}
	for _, m := range metrics {
		fmt.Fprintf(w, "%-40s %16.6f %s\n", m.name, m.value, m.unit)
		rep.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	rep.Correct = rep.Failed == 0
	line, err := json.Marshal(rep.result)
	if err != nil {
		return rep, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return rep, nil
}

// probeHost measures what one model Sync and one real fsync cost here.
func probeHost(dir string, syncCost time.Duration) (hostInfo, error) {
	fsync, err := hostFsyncP50(dir)
	if err != nil {
		return hostInfo{}, err
	}
	var cost atomic.Int64
	cost.Store(int64(syncCost))
	d := &modelDevice{syncCost: &cost}
	samples := make([]float64, 51)
	for i := range samples {
		t0 := time.Now()
		d.Sync()
		samples[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return hostInfo{modelSyncUs: median(samples), fsyncP50Us: fsync}, nil
}

// appendReports adds reps to the JSON array in path, creating it if needed:
// the file is the trajectory a later -compare reads.
func appendReports(path string, reps []report) error {
	var all []report
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	all = append(all, reps...)
	var sb strings.Builder
	sb.WriteString("[\n")
	for i, r := range all {
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		sb.Write(b)
		if i < len(all)-1 {
			sb.WriteByte(',')
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("]\n")
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

// runAll runs every workload in a child process of its own, untraced and
// then traced, so that no workload inherits another's heap or its
// processor-time account.
func runAll(o options) ([]report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-device", o.device, "-dir", o.dir}
	if o.quick {
		args = append(args, "-quick")
	}
	var reps []report
	for trace := 0; trace <= 1; trace++ {
		for _, sp := range specs {
			cmd := exec.Command(self, append([]string{"-workload", sp.name, "-trace", strconv.Itoa(trace)}, args...)...)
			cmd.Stderr = os.Stderr
			out, err := cmd.StdoutPipe()
			if err != nil {
				return nil, err
			}
			if err := cmd.Start(); err != nil {
				return nil, err
			}
			var last string
			sc := bufio.NewScanner(out)
			sc.Buffer(nil, 1<<20)
			for sc.Scan() {
				last = sc.Text()
				if !strings.HasPrefix(last, "{") {
					fmt.Println(last)
				}
			}
			if err := cmd.Wait(); err != nil {
				return nil, fmt.Errorf("%s trace %d: %w", sp.name, trace, err)
			}
			rep := report{Workload: sp.name, Seed: o.seed, Seconds: o.seconds, Trace: trace, Device: o.device}
			if err := json.Unmarshal([]byte(last), &rep.result); err != nil {
				return nil, fmt.Errorf("%s trace %d: result line: %w", sp.name, trace, err)
			}
			reps = append(reps, rep)
		}
	}
	return reps, nil
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	device   string
	dir      string
	out      string
	spans    string
	quick    bool
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run; empty runs all of them, untraced and then traced")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same transactions")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window at this commit; it fixes the transaction count")
	flag.IntVar(&o.trace, "trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
	flag.StringVar(&o.device, "device", "model", "model: fixed-cost Sync; real: plain files and the host's fsync")
	flag.StringVar(&o.dir, "dir", ".bench_build/work", "work directory for logs and segments")
	flag.StringVar(&o.out, "out", "", "append the results to this JSON file")
	flag.StringVar(&o.spans, "spans", "", "with -trace 1: write the kept spans to this file, one JSON object per line")
	flag.BoolVar(&o.quick, "quick", false, "smoke run: every code path at a size too small to measure anything")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files: -compare old.json new.json")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	}
	if o.device != "model" && o.device != "real" {
		return fmt.Errorf("unknown device %q", o.device)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace is 0 or 1")
	}
	var reps []report
	if o.workload == "" {
		var err error
		if reps, err = runAll(o); err != nil {
			return err
		}
	} else {
		sp, ok := findSpec(o.workload)
		if !ok {
			names := make([]string, len(specs))
			for i, s := range specs {
				names[i] = s.name
			}
			return fmt.Errorf("unknown workload %q; have %s", o.workload, strings.Join(names, ", "))
		}
		cfg := runConfig{seed: o.seed, seconds: o.seconds, device: o.device, dir: o.dir, quick: o.quick}
		rep, err := runWorkload(os.Stdout, sp, cfg, o.trace, o.spans)
		if err != nil {
			return err
		}
		reps = []report{rep}
	}
	if o.out != "" {
		return appendReports(o.out, reps)
	}
	return nil
}
