package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders every metric declared in v in the Prometheus
// text exposition format (version 0.0.4): HELP and TYPE once per family,
// then its samples, a summary as quantile-labelled samples plus _sum and
// _count.  Label values are all fixed lowercase identifiers or small
// integers, so no escaping is required.
func WritePrometheus(w io.Writer, v any) error {
	bw := bufio.NewWriter(w) // keeps the first write error for Flush
	family := ""
	err := Walk(v, func(s Sample) {
		if s.Family != family {
			family = s.Family
			typ := "gauge"
			if s.Hist != nil {
				typ = "summary"
			} else if strings.HasSuffix(family, "_total") {
				typ = "counter"
			}
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", family, s.Help, family, typ)
		}
		series := func(suffix string, labels ...string) string {
			if s.Label != "" {
				labels = append([]string{s.Label + `="` + s.LabelValue + `"`}, labels...)
			}
			if len(labels) == 0 {
				return family + suffix
			}
			return family + suffix + "{" + strings.Join(labels, ",") + "}"
		}
		if s.Hist == nil {
			fmt.Fprintf(bw, "%s %d\n", series(""), s.Value)
			return
		}
		fmt.Fprintf(bw, "%s %d\n%s %d\n%s %d\n%s %d\n%s %d\n",
			series("", `quantile="0.5"`), s.Hist.P50, series("", `quantile="0.9"`), s.Hist.P90,
			series("", `quantile="0.99"`), s.Hist.P99, series("_sum"), s.Hist.Sum, series("_count"), s.Hist.Count)
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// WriteText renders every metric declared in v for a terminal.  A counter
// or gauge shares a line with the others of its group — the family's
// first word, plus the label value of a labelled family, whose samples
// are left out while zero; summaries that have observations follow as
// one table.  Values are formatted by the unit the family name spells
// out (_bytes, _ns).
func WriteText(w io.Writer, v any) error {
	const row = "%-24s %10v %10s %10s %10s %10s %10s\n"
	var groups, table []string
	cells := map[string][]string{}
	dashed := strings.NewReplacer("_", "-")
	err := Walk(v, func(s Sample) {
		name := strings.TrimSuffix(strings.TrimPrefix(s.Family, "rvm_"), "_total")
		unit := fmtCount
		if strings.HasSuffix(name, "_ns") {
			name, unit = strings.TrimSuffix(name, "_ns"), fmtDur
		} else if strings.Contains(name, "_bytes") {
			unit = fmtBytes
		}
		name, lv := dashed.Replace(name), dashed.Replace(s.LabelValue)
		if h := s.Hist; h != nil {
			if h.Count > 0 {
				table = append(table, fmt.Sprintf(row, strings.TrimSuffix(name+"/"+lv, "/"), h.Count, unit(h.Mean),
					unit(float64(h.P50)), unit(float64(h.P99)), unit(float64(h.Max)), unit(float64(h.Sum))))
			}
		} else if lv == "" || s.Value != 0 {
			group, label, _ := strings.Cut(name, "-")
			group = strings.TrimSpace(group + " " + lv)
			if cells[group] == nil {
				groups = append(groups, group)
			}
			cells[group] = append(cells[group], strings.TrimSpace(label+" "+unit(float64(s.Value))))
		}
	})
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	for _, g := range groups {
		fmt.Fprintf(bw, "%-18s %s\n", g, strings.Join(cells[g], "   "))
	}
	if len(table) > 0 {
		fmt.Fprintf(bw, "\n"+row+"%s", "summary", "count", "mean", "p50", "p99", "max", "total", strings.Join(table, ""))
	}
	return bw.Flush()
}

func fmtCount(v float64) string {
	return strings.TrimSuffix(strconv.FormatFloat(v, 'f', 1, 64), ".0")
}

// fmtBytes renders a byte count with a binary unit suffix.
func fmtBytes(v float64) string {
	units := []string{"B", "KiB", "MiB", "GiB", "TiB"}
	i := 0
	for v >= 1024 && i < len(units)-1 {
		v /= 1024
		i++
	}
	if i == 0 {
		return fmt.Sprintf("%.0f B", v)
	}
	return fmt.Sprintf("%.1f %s", v, units[i])
}

// fmtDur renders nanoseconds with an adaptive unit.
func fmtDur(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
