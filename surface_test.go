package rvm_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	rvm "github.com/rvm-go/rvm"
)

// promFamilies reduces a /metrics body to one line per family: name,
// TYPE, the sorted label names its samples carry (quantile aside), HELP.
func promFamilies(body string) []string {
	help, typ := map[string]string{}, map[string]string{}
	labels := map[string]map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# HELP "):
			p := strings.SplitN(line, " ", 4)
			help[p[2]] = p[3]
		case strings.HasPrefix(line, "# TYPE "):
			p := strings.SplitN(line, " ", 4)
			typ[p[2]] = p[3]
			labels[p[2]] = map[string]bool{}
		case line != "":
			name := line[:strings.IndexAny(line, "{ ")]
			if _, ok := typ[name]; !ok {
				name = name[:strings.LastIndex(name, "_")] // _sum, _count
			}
			if i := strings.IndexByte(line, '{'); i >= 0 {
				for _, lv := range strings.Split(line[i+1:strings.IndexByte(line, '}')], ",") {
					if l := lv[:strings.IndexByte(lv, '=')]; l != "quantile" {
						labels[name][l] = true
					}
				}
			}
		}
	}
	var out []string
	for name := range typ {
		var ls []string
		for l := range labels[name] {
			ls = append(ls, l)
		}
		sort.Strings(ls)
		out = append(out, fmt.Sprintf("%s %s {%s} %s", name, typ[name], strings.Join(ls, ","), help[name]))
	}
	sort.Strings(out)
	return out
}

// jsonKeyPaths lists every key path of a decoded JSON value, array
// elements merged under "[]".
func jsonKeyPaths(v any, prefix string, into map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			into[p] = true
			jsonKeyPaths(e, p, into)
		}
	case []any:
		for _, e := range v {
			jsonKeyPaths(e, prefix+"[]", into)
		}
	}
}

// surfaceFingerprint drives TestPrometheusEndpoint's engine and returns
// what its two machine-read surfaces promise a consumer: the Prometheus
// families and the Snapshot JSON key paths.
func surfaceFingerprint(t *testing.T) string {
	s := newStore(t, rvm.Options{TraceEvents: 256, Metrics: true})
	reg, err := s.db.Map(s.segPath, 0, int64(rvm.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, s.db, reg, 4, rvm.Flush)
	commitN(t, s.db, reg, 2, rvm.NoFlush)
	srv := httptest.NewServer(s.db.DebugHandler())
	defer srv.Close()
	get := func(path string) []byte {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	var sn any
	if err := json.Unmarshal(get("/snapshot"), &sn); err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	jsonKeyPaths(sn, "", keys)
	var paths []string
	for k := range keys {
		paths = append(paths, k)
	}
	sort.Strings(paths)
	return "# /metrics families: name type {labels} help\n" + strings.Join(promFamilies(string(get("/metrics"))), "\n") +
		"\n# /snapshot key paths\n" + strings.Join(paths, "\n") + "\n"
}

// TestSurfaceGolden pins the machine-read surfaces against
// testdata/surface.golden, captured at the commit before the metrics
// declaration became one tagged struct; the only edit since is the
// removal of the four gauge keys that repeated the top-level levels.
func TestSurfaceGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/surface.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := surfaceFingerprint(t); got != string(want) {
		t.Errorf("surfaces differ from testdata/surface.golden; now:\n%s", got)
	}
}

// declared is one tagged metric field of the Snapshot declaration, found
// by this file's own walk over the struct types — deliberately not the
// walker under test.
type declared struct {
	jsonPath, family, help, kind string
	label                        string // `class`, or `phase="encode"` for a fixed one
}

func declaredMetrics(t reflect.Type, prefix string, out []declared) []declared {
	label, family, help := "", "", ""
	for i := 0; i < t.NumField(); i++ {
		if l := t.Field(i).Tag.Get("label"); l != "" {
			label = l
		}
	}
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		path := prefix
		if name, _, _ := strings.Cut(sf.Tag.Get("json"), ","); name != "" {
			path = strings.TrimPrefix(prefix+"."+name, ".")
		}
		ft := sf.Type
		if ft.Kind() == reflect.Slice {
			ft, path = ft.Elem(), path+"[]"
		} else if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		tag := sf.Tag.Get("prom")
		switch {
		case ft.Kind() == reflect.Struct && ft != reflect.TypeOf(rvm.HistStat{}):
			out = declaredMetrics(ft, path, out)
		case tag != "" && tag != "-":
			d := declared{jsonPath: path, label: label, kind: "gauge"}
			name, fixed, _ := strings.Cut(tag, ",")
			if name != "" {
				family, help = name, sf.Tag.Get("help")
			}
			if k, v, ok := strings.Cut(fixed, "="); ok {
				d.label = k + `="` + v + `"`
			}
			if ft.Kind() == reflect.Struct {
				d.kind = "summary"
			} else if strings.HasSuffix(family, "_total") {
				d.kind = "counter"
			}
			d.family, d.help = family, help
			out = append(out, d)
		}
	}
	return out
}

// populate sets every field reachable from v to a non-zero value: one
// element in each slice, something behind each pointer.
func populate(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			populate(v.Field(i))
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		populate(v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		populate(v.Index(0))
	case reflect.Uint64:
		v.SetUint(3)
	case reflect.Int, reflect.Int64:
		v.SetInt(3)
	case reflect.Float64:
		v.SetFloat(3)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("x")
	}
}

// TestEveryMetricOnEverySurface walks the declaration itself — no table:
// each tagged field of Snapshot, however deep, has its family on /metrics
// exactly once with HELP and TYPE, its key in the JSON, and its name in
// the text view rvmstat shows.
func TestEveryMetricOnEverySurface(t *testing.T) {
	var sn rvm.Snapshot
	populate(reflect.ValueOf(&sn).Elem())
	var prom, text strings.Builder
	if err := sn.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := sn.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	lintProm(t, prom.String())
	raw, err := json.Marshal(sn)
	if err != nil {
		t.Fatal(err)
	}
	var decoded any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	jsonKeyPaths(decoded, "", keys)

	metrics := declaredMetrics(reflect.TypeOf(sn), "", nil)
	if len(metrics) < 55 {
		t.Fatalf("found %d declared metrics; the walk over Snapshot is broken", len(metrics))
	}
	dashed := strings.NewReplacer("_", "-", `"`, "", "=", "/")
	for _, d := range metrics {
		for _, head := range []string{"# HELP " + d.family + " " + d.help + "\n", "# TYPE " + d.family + " " + d.kind + "\n"} {
			if n := strings.Count(prom.String(), head); n != 1 {
				t.Errorf("%s: /metrics has %q %d times", d.jsonPath, head, n)
			}
		}
		sample := d.family + " "
		if d.label != "" {
			sample = d.family + "{" + d.label
		} else if d.kind == "summary" {
			sample = d.family + "{quantile="
		}
		if !strings.Contains(prom.String(), "\n"+sample) {
			t.Errorf("%s: /metrics has no sample starting %q", d.jsonPath, sample)
		}
		if !keys[d.jsonPath] {
			t.Errorf("%s: not a key path of the snapshot JSON", d.jsonPath)
		}
		// The text view names a metric by its family, less the prefix, the
		// _total and the unit: a summary as a row, the rest as group + cell.
		name := dashed.Replace(strings.TrimSuffix(strings.TrimSuffix(strings.TrimPrefix(d.family, "rvm_"), "_total"), "_ns"))
		want := "\n" + name + " "
		if _, fixed, ok := strings.Cut(d.label, "="); ok && d.kind == "summary" {
			want = "\n" + name + "/" + dashed.Replace(fixed) + " "
		} else if d.kind != "summary" {
			group, cell, _ := strings.Cut(name, "-")
			want = "\n" + group + " " // then the label value, if labelled
			if cell != "" && !strings.Contains(text.String(), " "+cell+" ") {
				t.Errorf("%s: the text view has no cell %q", d.jsonPath, cell)
			}
		}
		if !strings.Contains("\n"+text.String(), want) {
			t.Errorf("%s: the text view has no line starting %q", d.jsonPath, want)
		}
	}
	if t.Failed() {
		t.Logf("the text view:\n%s", text.String())
	}
	// Statistics.String is the same renderer over the counters alone.
	for _, line := range strings.Split(sn.Stats.String(), "\n") {
		if !strings.Contains("\n"+text.String(), "\n"+line) {
			t.Errorf("Statistics.String() line %q does not start a line of the text view", line)
		}
	}
}

// TestReadmeMetricsTable keeps README's metrics reference equal to what
// the tags say.  On a mismatch it prints the block to paste between the
// two markers.
func TestReadmeMetricsTable(t *testing.T) {
	const begin, end = "<!-- metrics:begin -->\n", "<!-- metrics:end -->\n"
	var b strings.Builder
	b.WriteString("| Prometheus family | Type | Snapshot JSON | Meaning |\n|---|---|---|---|\n")
	for _, d := range declaredMetrics(reflect.TypeOf(rvm.Snapshot{}), "", nil) {
		fam := d.family
		if d.label != "" {
			fam += "{" + d.label + "}"
		}
		fmt.Fprintf(&b, "| `%s` | %s | `%s` | %s |\n", fam, d.kind, d.jsonPath, d.help)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(readme), begin)
	have, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 || have != b.String() {
		t.Errorf("README.md's metrics table is not what the declaration says; between %q and %q it should read:\n%s", begin, end, b.String())
	}
}
