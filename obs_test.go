package rvm_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	rvm "github.com/rvm-go/rvm"
)

// commitN runs n flush-mode commits of small payloads against reg.
func commitN(t *testing.T, db *rvm.RVM, reg *rvm.Region, n int, mode rvm.CommitMode) {
	t.Helper()
	for i := 0; i < n; i++ {
		tx, err := db.Begin(rvm.NoRestore)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Modify(reg, int64(i%64)*8, []byte("payload!")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(mode); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSnapshotWithObservability(t *testing.T) {
	s := newStore(t, rvm.Options{TraceEvents: 1024, Metrics: true})
	reg, err := s.db.Map(s.segPath, 0, int64(rvm.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, s.db, reg, 5, rvm.Flush)
	commitN(t, s.db, reg, 3, rvm.NoFlush)

	sn, err := s.db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sn.Stats.FlushCommits != 5 || sn.Stats.NoFlushCommits != 3 {
		t.Fatalf("stats = %+v, want 5 flush / 3 noflush", sn.Stats)
	}
	if sn.Metrics == nil {
		t.Fatal("metrics enabled but snapshot has none")
	}
	if got := sn.Metrics.CommitFlushNs.Count; got != 5 {
		t.Errorf("commit_flush count = %d, want 5", got)
	}
	if got := sn.Metrics.CommitNoFlushNs.Count; got != 3 {
		t.Errorf("commit_noflush count = %d, want 3", got)
	}
	if sn.Metrics.CommitFlushNs.P50 <= 0 || sn.Metrics.CommitFlushNs.P99 < sn.Metrics.CommitFlushNs.P50 {
		t.Errorf("flush-commit quantiles implausible: %+v", sn.Metrics.CommitFlushNs)
	}
	if sn.Metrics.ForceLatencyNs.Count == 0 {
		t.Error("no force latencies observed after flush commits")
	}
	if sn.TraceEvents == 0 {
		t.Error("tracing enabled but no events recorded")
	}
	if sn.LogSize == 0 || sn.ActiveTxs != 0 {
		t.Errorf("live levels implausible: log_size=%d active=%d", sn.LogSize, sn.ActiveTxs)
	}

	// The snapshot must round-trip through JSON without losing the parts
	// rvmstat renders.
	data, err := json.Marshal(sn)
	if err != nil {
		t.Fatal(err)
	}
	var back rvm.Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Stats.FlushCommits != sn.Stats.FlushCommits ||
		back.Metrics.CommitFlushNs.Count != sn.Metrics.CommitFlushNs.Count ||
		back.LogUsed != sn.LogUsed {
		t.Errorf("JSON round trip lost data:\n got %+v\nwant %+v", back, sn)
	}
}

func TestSnapshotWithoutObservability(t *testing.T) {
	s := newStore(t, rvm.Options{})
	reg, err := s.db.Map(s.segPath, 0, int64(rvm.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, s.db, reg, 2, rvm.Flush)
	sn, err := s.db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sn.Metrics != nil {
		t.Error("metrics disabled but snapshot has a registry")
	}
	if sn.TraceEvents != 0 {
		t.Error("tracing disabled but events recorded")
	}
	if sn.Stats.FlushCommits != 2 {
		t.Errorf("counters must work without obs: %+v", sn.Stats)
	}
	var buf bytes.Buffer
	if err := s.db.WriteTrace(&buf, rvm.TraceFormatJSON); err != nil {
		t.Fatalf("WriteTrace with tracing off: %v", err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("disabled trace dump = %q, want []", got)
	}
}

// TestTraceCapturesCommitAndForce: nothing is lost and nothing counted
// twice.  Three flush commits append a record each; a flush commit behind
// lazy ones appends the drain's record and its own; Flush appends one more.
// Each record is one log-append instant, whose bytes add up to the log's,
// and each force is one log-force span.
func TestTraceCapturesCommitAndForce(t *testing.T) {
	s := newStore(t, rvm.Options{TraceEvents: 256})
	reg, err := s.db.Map(s.segPath, 0, int64(rvm.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, s.db, reg, 3, rvm.Flush)
	commitN(t, s.db, reg, 3, rvm.NoFlush)
	commitN(t, s.db, reg, 1, rvm.Flush)
	commitN(t, s.db, reg, 2, rvm.NoFlush)
	if err := s.db.Flush(); err != nil {
		t.Fatal(err)
	}

	byName := map[string]int{}
	var appendedBytes uint64
	for _, ev := range s.db.TraceEvents() {
		byName[ev.Name]++
		if ev.Name == "log-append" {
			appendedBytes += ev.A
		}
	}
	for _, want := range []string{"tx-begin", "commit-flush", "log-append", "log-force", "commit-noflush", "spool-flush"} {
		if byName[want] == 0 {
			t.Errorf("trace has no %q events (got %v)", want, byName)
		}
	}
	st := s.db.Stats()
	if byName["log-append"] != 6 || appendedBytes != st.LogBytes {
		t.Errorf("%d log-append events of %d bytes in all; want 6, of the log's %d", byName["log-append"], appendedBytes, st.LogBytes)
	}
	if uint64(byName["log-force"]) != st.LogForces {
		t.Errorf("%d log-force spans, %d log forces", byName["log-force"], st.LogForces)
	}

	var buf bytes.Buffer
	if err := s.db.WriteTrace(&buf, rvm.TraceFormatChrome); err != nil {
		t.Fatal(err)
	}
	var chrome []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(chrome) == 0 {
		t.Fatal("chrome trace empty")
	}
}

// TestTraceShowsTruncationOverlap is the acceptance check for the
// paper's Figure 9 claim as seen through the tracer: with a no-flush
// workload committing continuously, incremental truncation's trace span
// must overlap forward commits on the wall clock.  Commit spans start
// when Commit is called (before the engine lock), so a commit in flight
// while truncation holds the engine demonstrates the overlap directly.
func TestTraceShowsTruncationOverlap(t *testing.T) {
	s := newStore(t, rvm.Options{TraceEvents: 8192, Metrics: true, Incremental: true})
	reg, err := s.db.Map(s.segPath, 0, int64(rvm.PageSize))
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var committed atomic.Uint64
	var committerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		payload := bytes.Repeat([]byte{7}, 64)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tx, err := s.db.Begin(rvm.NoRestore)
			if err != nil {
				committerErr = err
				return
			}
			if err := tx.Modify(reg, int64(i%32)*64, payload); err != nil {
				committerErr = err
				return
			}
			if err := tx.Commit(rvm.NoFlush); err != nil {
				committerErr = err
				return
			}
			committed.Add(1)
		}
	}()
	// Each truncation waits for fresh commit traffic first, so every
	// truncation runs with commits demonstrably in flight.  Spans are
	// collected right after each truncation: on a single-CPU host the
	// next wait can let thousands of commits through, and their events
	// would evict this truncation's spans from the bounded trace ring
	// before an end-of-run read ever saw them.
	type span struct{ start, end int64 }
	var truncs, commits []span
	collect := func() {
		for _, ev := range s.db.TraceEvents() {
			if ev.Dur <= 0 {
				continue
			}
			sp := span{ev.TS, ev.TS + ev.Dur}
			switch ev.Name {
			case "truncate":
				truncs = append(truncs, sp)
			case "commit-noflush":
				commits = append(commits, sp)
			}
		}
	}
	for i := 0; i < 5; i++ {
		floor := committed.Load() + 3
		for committed.Load() < floor {
			runtime.Gosched()
		}
		if err := s.db.TruncateIncremental(0); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("incremental truncation %d: %v", i, err)
		}
		collect()
	}
	close(stop)
	wg.Wait()
	if committerErr != nil {
		t.Fatal(committerErr)
	}
	// One more read picks up commits that were still in flight when the
	// last truncation's spans were collected.
	collect()
	if len(truncs) == 0 {
		t.Fatal("trace has no truncation spans")
	}
	if len(commits) == 0 {
		t.Fatal("trace has no no-flush commit spans")
	}
	for _, tr := range truncs {
		for _, c := range commits {
			if c.start < tr.end && tr.start < c.end {
				return // a commit was in flight while truncation ran
			}
		}
	}
	t.Fatalf("no commit span overlaps any truncation span (%d truncs, %d commits in trace)",
		len(truncs), len(commits))
}

func TestDebugHandler(t *testing.T) {
	s := newStore(t, rvm.Options{TraceEvents: 256, Metrics: true})
	reg, err := s.db.Map(s.segPath, 0, int64(rvm.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, s.db, reg, 2, rvm.Flush)

	srv := httptest.NewServer(s.db.DebugHandler())
	defer srv.Close()

	// /snapshot serves the same JSON Snapshot marshals to.
	resp, err := http.Get(srv.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var got rvm.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.Stats.FlushCommits != 2 || got.Metrics == nil {
		t.Errorf("debug snapshot = %+v", got)
	}

	resp, err = http.Get(srv.URL + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	var chrome []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&chrome); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(chrome) == 0 {
		t.Error("debug trace empty")
	}

	resp, err = http.Get(srv.URL + "/trace?format=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus format status = %d, want 400", resp.StatusCode)
	}
}
