package rvm_test

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	rvm "github.com/rvm-go/rvm"
)

// promReporter is the slice of testing.T lintProm needs; the negative
// test substitutes a recorder to prove the linter fires.
type promReporter interface {
	Errorf(format string, args ...any)
	Fatal(args ...any)
}

type lintRecorder struct{ errors []string }

func (r *lintRecorder) Errorf(format string, args ...any) {
	r.errors = append(r.errors, fmt.Sprintf(format, args...))
}
func (r *lintRecorder) Fatal(args ...any) {
	r.errors = append(r.errors, fmt.Sprint(args...))
}

// lintProm validates a Prometheus text-format body against the repo's
// naming conventions (DESIGN.md §14): every family carries HELP and TYPE
// before its samples, names are rvm_ lowercase, counters end in _total,
// counter/gauge families have exactly one TYPE line, labels are
// well-formed, and every sample belongs to a declared family.
func lintProm(t promReporter, body string) {
	nameRe := regexp.MustCompile(`^rvm_[a-z0-9_]+$`)
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (-?[0-9]+(\.[0-9]+)?(e[+-][0-9]+)?)$`)
	labelRe := regexp.MustCompile(`^[a-z_]+="[^"\\]*"$`)

	types := map[string]string{} // family -> counter|gauge|summary
	helped := map[string]bool{}
	sampled := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Errorf("malformed HELP line: %q", line)
				continue
			}
			helped[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) != 4 {
				t.Errorf("malformed TYPE line: %q", line)
				continue
			}
			name, typ := parts[2], parts[3]
			if !nameRe.MatchString(name) {
				t.Errorf("metric name %q violates naming convention", name)
			}
			if typ != "counter" && typ != "gauge" && typ != "summary" {
				t.Errorf("metric %s has unexpected type %q", name, typ)
			}
			if _, dup := types[name]; dup {
				t.Errorf("metric %s declared twice", name)
			}
			if !helped[name] {
				t.Errorf("metric %s has TYPE but no preceding HELP", name)
			}
			if typ == "counter" && !strings.HasSuffix(name, "_total") {
				t.Errorf("counter %s does not end in _total", name)
			}
			if typ != "counter" && strings.HasSuffix(name, "_total") {
				t.Errorf("%s %s ends in _total, reserved for counters", typ, name)
			}
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("unexpected comment line: %q", line)
			continue
		}
		mm := sampleRe.FindStringSubmatch(line)
		if mm == nil {
			t.Errorf("malformed sample line: %q", line)
			continue
		}
		name, labels, value := mm[1], mm[3], mm[4]
		family := name
		typ, ok := types[family]
		if !ok && (strings.HasSuffix(name, "_sum") || strings.HasSuffix(name, "_count")) {
			family = name[:strings.LastIndex(name, "_")]
			typ, ok = types[family]
			if ok && typ != "summary" {
				t.Errorf("sample %s uses summary suffix on %s family %s", name, typ, family)
			}
		}
		if !ok {
			t.Errorf("sample %s has no TYPE declaration", name)
			continue
		}
		sampled[family] = true
		if labels != "" {
			for _, lv := range strings.Split(labels, ",") {
				if !labelRe.MatchString(lv) {
					t.Errorf("malformed label %q in %q", lv, line)
				}
			}
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Errorf("unparsable value in %q: %v", line, err)
		}
		if typ == "counter" && v < 0 {
			t.Errorf("counter %s is negative: %q", name, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for name := range types {
		if !sampled[name] {
			t.Errorf("metric %s declared but has no samples", name)
		}
	}
}

// TestPrometheusEndpoint drives commits through a metrics-enabled store,
// scrapes /metrics, and checks both content (the families a dashboard
// needs) and format (the lint above).
func TestPrometheusEndpoint(t *testing.T) {
	s := newStore(t, rvm.Options{TraceEvents: 256, Metrics: true})
	reg, err := s.db.Map(s.segPath, 0, int64(rvm.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, s.db, reg, 4, rvm.Flush)
	commitN(t, s.db, reg, 2, rvm.NoFlush)

	srv := httptest.NewServer(s.db.DebugHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 text format", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, want := range []string{
		"rvm_tx_flush_commits_total 4",
		"rvm_tx_noflush_commits_total 2",
		`rvm_commit_flush_ns{quantile="0.5"}`,
		`rvm_commit_phase_ns{phase="lock_wait",quantile="0.5"}`,
		`rvm_commit_phase_ns{phase="force_wait",quantile="0.99"}`,
		`rvm_commit_phase_ns_count{phase="append"}`,
		`rvm_stalls_total{class="force"}`,
		"rvm_log_used_bytes",
		"rvm_recovery_replayed_records",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics body missing %q", want)
		}
	}
	lintProm(t, body)
}

// TestPrometheusLintRejectsBadFormat proves the linter actually bites.
func TestPrometheusLintRejectsBadFormat(t *testing.T) {
	bad := []string{
		"rvm_orphan_metric 1\n",                                           // no TYPE
		"# HELP rvm_x x\n# TYPE rvm_x counter\nrvm_x 1\n",                 // counter without _total
		"# HELP rvm_y_total y\n# TYPE rvm_y_total gauge\nrvm_y_total 1\n", // _total on a gauge
		"# HELP rvm_z_total z\n# TYPE rvm_z_total counter\nrvm_z_total notanumber\n",
		// Labelled families: label names are lowercase, label values
		// quoted, and the gauge must not take the counter suffix.
		"# HELP rvm_lock_waits_total c\n# TYPE rvm_lock_waits_total counter\nrvm_lock_waits_total{Class=\"wal\"} 1\n",
		"# HELP rvm_lock_held_bytes b\n# TYPE rvm_lock_held_bytes gauge\nrvm_lock_held_bytes{class=wal} 1\n",
		"# HELP rvm_lock_held_bytes_total b\n# TYPE rvm_lock_held_bytes_total gauge\nrvm_lock_held_bytes_total{class=\"wal\"} 1\n",
	}
	for i, body := range bad {
		rec := &lintRecorder{}
		lintProm(rec, body)
		if len(rec.errors) == 0 {
			t.Errorf("case %d: lint accepted %q", i, body)
		}
	}
}

// TestPrometheusMetricsDisabled serves a counters-only exposition when
// the registry is off — still valid text format.
func TestPrometheusMetricsDisabled(t *testing.T) {
	s := newStore(t, rvm.Options{})
	srv := httptest.NewServer(s.db.DebugHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if strings.Contains(body, "rvm_commit_phase_ns") {
		t.Error("phase summaries served with metrics disabled")
	}
	if !strings.Contains(body, "rvm_log_size_bytes") {
		t.Error("levels missing from counters-only exposition")
	}
	lintProm(t, body)
}

// TestPublishExpvarTwice: re-publishing from the same instance is a
// no-op; a name owned by someone else errors instead of panicking.
func TestPublishExpvarTwice(t *testing.T) {
	a := newStore(t, rvm.Options{})
	b := newStore(t, rvm.Options{})
	const name = "rvm-test-publish-twice"
	if err := a.db.PublishExpvar(name); err != nil {
		t.Fatalf("first publish: %v", err)
	}
	if err := a.db.PublishExpvar(name); err != nil {
		t.Fatalf("same-instance re-publish: %v", err)
	}
	if err := b.db.PublishExpvar(name); err == nil {
		t.Fatal("publishing another instance under a taken name succeeded")
	}
	if err := b.db.PublishExpvar("rvm-test-publish-other"); err != nil {
		t.Fatalf("fresh name: %v", err)
	}
}

// TestCommitPhaseAttribution is the acceptance check for the phase
// model: the five phases partition the flush-commit critical path, so
// with 16 concurrent committers the sum of the phase p50s must land
// within 10% of the observed CommitFlush p50 (the histograms resolve a
// quarter of an octave).  Scheduling noise can skew any single run; best
// of three attempts must pass.  The race detector slows the phases unevenly
// enough to fail the ratio about half the time, so it skips under -race.
func TestCommitPhaseAttribution(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing-sensitive sweep")
	}
	const workers, commitsEach = 16, 25
	var lastErr string
	for attempt := 0; attempt < 3; attempt++ {
		s := newStore(t, rvm.Options{
			Metrics:           true,
			TruncateThreshold: -1,
		})
		reg, err := s.db.Map(s.segPath, 0, int64(rvm.PageSize))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < commitsEach; i++ {
					tx, err := s.db.Begin(rvm.NoRestore)
					if err != nil {
						errs[w] = err
						return
					}
					if err := tx.Modify(reg, int64(w)*64, []byte("phasepay")); err != nil {
						errs[w] = err
						return
					}
					if err := tx.Commit(rvm.Flush); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("worker %d: %v", w, err)
			}
		}
		sn, err := s.db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		m := sn.Metrics
		total := m.CommitFlushNs.P50
		phaseSum := m.PhaseLockWaitNs.P50 + m.PhaseEncodeNs.P50 +
			m.PhasePipeWaitNs.P50 + m.PhaseAppendNs.P50 + m.PhaseForceWaitNs.P50
		if m.PhaseLockWaitNs.Count != uint64(workers*commitsEach) {
			t.Fatalf("phase count = %d, want %d", m.PhaseLockWaitNs.Count, workers*commitsEach)
		}
		ratio := float64(phaseSum) / float64(total)
		if ratio >= 0.9 && ratio <= 1.1 {
			return // attribution holds
		}
		lastErr = fmt.Sprintf("attempt %d: phase p50 sum %d vs commit p50 %d (ratio %.2f)",
			attempt, phaseSum, total, ratio)
		t.Log(lastErr)
		s.db.Close()
		s.db = nil
	}
	t.Fatalf("phase attribution off by more than 10%% in all attempts: %s", lastErr)
}
