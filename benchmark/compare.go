package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkFile is what this program reads of BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// quartiles are the cut points Python's statistics.quantiles(v, n=4)
// gives, which is what the driver uses for a metric's spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// side is one file's values of one metric on one workload.
type side struct {
	n      int
	median float64
	spread float64 // interquartile range over the median; NaN below 4 runs
}

func summarize(v []float64) side {
	switch {
	case len(v) == 0:
		return side{median: math.NaN(), spread: math.NaN()}
	case len(v) < 4:
		return side{n: len(v), median: median(v), spread: math.NaN()}
	}
	q1, q2, q3 := quartiles(v)
	return side{n: len(v), median: q2, spread: math.Abs(ratio(q3-q1, q2))}
}

func values(reps []report, workload string, trace int, name string) []float64 {
	var v []float64
	for _, r := range reps {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == trace {
			v = append(v, m.Value)
		}
	}
	return v
}

// compareFiles prints, for each workload and metric, the medians and spreads
// of two result files and how the second stands against the first.  An end-to-end
// metric is judged against its bound in BENCHMARK.json; where either side's
// spread is wider than the bound the verdict is "unresolved", because the
// runs cannot tell a change of that size from noise.
func compareFiles(w io.Writer, benchPath, oldPath, newPath string) error {
	var bench benchmarkFile
	var oldReps, newReps []report
	if err := readJSON(benchPath, &bench); err != nil {
		return err
	}
	if err := readJSON(oldPath, &oldReps); err != nil {
		return err
	}
	if err := readJSON(newPath, &newReps); err != nil {
		return err
	}
	for _, wl := range bench.Workloads {
		fmt.Fprintf(w, "%s\n", wl.Name)
		for trace, decls := range [][]metricDecl{bench.EndToEnd, bench.PerLayer} {
			for _, d := range decls {
				o := summarize(values(oldReps, wl.Name, trace, d.Name))
				n := summarize(values(newReps, wl.Name, trace, d.Name))
				if o.n == 0 || n.n == 0 {
					continue
				}
				// worse is the change as a share of the old median, positive
				// when the metric moved against its better direction.
				worse := ratio(n.median-o.median, math.Abs(o.median))
				if d.Better == "higher" {
					worse = -worse
				}
				verdict := ""
				if trace == 0 {
					noise := math.Max(o.spread, n.spread)
					switch {
					case math.IsNaN(noise):
						verdict = "too few runs to judge"
					case noise > d.Bound:
						verdict = fmt.Sprintf("unresolved: spread %.1f%% over the %.0f%% bound", 100*noise, 100*d.Bound)
					case worse > d.Bound:
						verdict = fmt.Sprintf("REGRESSED past the %.0f%% bound", 100*d.Bound)
					case -worse > noise:
						verdict = "improved"
					default:
						verdict = "unchanged"
					}
				}
				spreads := ""
				if !math.IsNaN(o.spread) && !math.IsNaN(n.spread) {
					spreads = fmt.Sprintf("spread %.1f%%,%.1f%%  ", 100*o.spread, 100*n.spread)
				}
				fmt.Fprintf(w, "  %-38s %14.4f -> %14.4f %-6s %+7.2f%% worse  n=%d,%d  %s%s\n",
					d.Name, o.median, n.median, d.Unit, 100*worse, o.n, n.n, spreads, verdict)
			}
		}
	}
	return nil
}
