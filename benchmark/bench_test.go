package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

func quickRun(t *testing.T, workload string, seed int64, trace int) (report, string) {
	t.Helper()
	sp, ok := findSpec(workload)
	if !ok {
		t.Fatalf("no workload %q", workload)
	}
	var out bytes.Buffer
	cfg := runConfig{seed: seed, device: "model", dir: t.TempDir(), quick: true}
	rep, err := runWorkload(&out, sp, cfg, trace, "")
	if err != nil {
		t.Fatalf("%s trace %d: %v\n%s", workload, trace, err, out.String())
	}
	if !rep.Correct || rep.Attempted < 1 {
		t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d\n%s", workload, trace, rep.Correct, rep.Attempted, rep.Failed, out.String())
	}
	return rep, out.String()
}

// TestEveryDeclaredMetricIsPrintedOnce runs all five workloads at smoke
// size, untraced and traced, and holds the output to BENCHMARK.json: the
// workloads it names exist, every metric it names is printed exactly once
// by every workload with the declared unit, nothing else is printed, and
// the last line is the result object the driver reads.
func TestEveryDeclaredMetricIsPrintedOnce(t *testing.T) {
	var bench benchmarkFile
	if err := readJSON("../BENCHMARK.json", &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bench.Workloads), len(specs))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, wl := range bench.Workloads {
		for trace, decls := range [][]metricDecl{bench.EndToEnd, bench.PerLayer} {
			rep, out := quickRun(t, wl.Name, 1, trace)
			printed := map[string]int{}
			lines := strings.Split(strings.TrimSpace(out), "\n")
			for _, line := range lines {
				if f := strings.Fields(line); len(f) == 3 && !strings.HasPrefix(line, "#") {
					printed[f[0]]++
				}
			}
			for _, d := range decls {
				if !name.MatchString(d.Name) {
					t.Errorf("metric name %q is outside the driver's alphabet", d.Name)
				}
				if printed[d.Name] != 1 {
					t.Errorf("%s trace %d: %s printed %d times", wl.Name, trace, d.Name, printed[d.Name])
				}
				if got := rep.Metrics[d.Name].Unit; got != d.Unit {
					t.Errorf("%s trace %d: %s has unit %q, BENCHMARK.json says %q", wl.Name, trace, d.Name, got, d.Unit)
				}
				delete(printed, d.Name)
			}
			for extra := range printed {
				t.Errorf("%s trace %d: prints %s, which BENCHMARK.json does not declare", wl.Name, trace, extra)
			}
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace %d: last line is not JSON: %v", wl.Name, trace, err)
			}
			for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := last[key]; !ok {
					t.Errorf("%s trace %d: result line lacks %q", wl.Name, trace, key)
				}
				delete(last, key)
			}
			if len(last) != 0 {
				t.Errorf("%s trace %d: result line has extra keys %v", wl.Name, trace, last)
			}
		}
	}
}

// TestOneClientCountsRepeat checks what makes a count usable as evidence:
// with one client and one seed the log bytes, forces and device writes are
// identical from run to run, and another seed gives other inputs.
func TestOneClientCountsRepeat(t *testing.T) {
	counts := func(seed int64) [4]float64 {
		rep, _ := quickRun(t, "coda_client", seed, 1)
		return [4]float64{
			rep.Metrics["logdev.write_bytes"].Value, rep.Metrics["logdev.syncs"].Value,
			rep.Metrics["core.opt.inter_saved_frac"].Value, rep.Metrics["itree.intervals"].Value,
		}
	}
	a, b, c := counts(1), counts(1), counts(2)
	if a != b {
		t.Errorf("same seed, different counts: %v and %v", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 gave the same counts %v", a)
	}
}
