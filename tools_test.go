package rvm_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	rvm "github.com/rvm-go/rvm"
)

// runTool invokes a cmd/ binary via `go run` and returns its output.
func runTool(t *testing.T, tool string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "./cmd/" + tool}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
	}
	return string(out)
}

// TestOperatorWorkflow drives the full rvmutl + rvmlogview workflow the
// way an operator would: create a store, populate it through the library,
// inspect and verify it offline, archive the log, post-mortem it, then
// truncate.
func TestOperatorWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("tool workflow skipped in -short")
	}
	dir := t.TempDir()
	logPath := filepath.Join(dir, "w.log")
	segPath := filepath.Join(dir, "w.seg")

	out := runTool(t, "rvmutl", "create-log", logPath, "262144")
	if !strings.Contains(out, "created log") {
		t.Fatalf("create-log: %s", out)
	}
	runTool(t, "rvmutl", "create-seg", segPath, "7", "65536")

	// Populate through the library, crash (no Close).
	db, err := rvm.Open(rvm.Options{LogPath: logPath, TruncateThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := db.Map(segPath, 0, int64(rvm.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tx, _ := db.Begin(rvm.Restore)
		tx.Modify(reg, int64(i*64), []byte("operator-data"))
		if err := tx.Commit(rvm.Flush); err != nil {
			t.Fatal(err)
		}
	}

	out = runTool(t, "rvmutl", "status", logPath)
	if !strings.Contains(out, "5 transactions") {
		t.Fatalf("status: %s", out)
	}
	out = runTool(t, "rvmutl", "verify", logPath)
	if !strings.Contains(out, "ok: 5 live record(s), 1 segment(s) verified") {
		t.Fatalf("verify: %s", out)
	}
	out = runTool(t, "rvmutl", "seg-info", segPath)
	if !strings.Contains(out, "id:      7") {
		t.Fatalf("seg-info: %s", out)
	}
	out = runTool(t, "rvmutl", "segments", logPath)
	if !strings.Contains(out, "7\t") {
		t.Fatalf("segments: %s", out)
	}

	// Archive the log before truncation (§6), then post-mortem it.
	archive := filepath.Join(dir, "archive.log")
	out = runTool(t, "rvmutl", "copy-log", logPath, archive, "1048576")
	if !strings.Contains(out, "copied 5 live record(s)") {
		t.Fatalf("copy-log: %s", out)
	}
	out = runTool(t, "rvmlogview", "-backward", "-data", archive)
	if !strings.Contains(out, "5 record(s)") || !strings.Contains(out, "operator-data") {
		t.Fatalf("rvmlogview: %s", out)
	}
	out = runTool(t, "rvmlogview", "-seg", "7", "-touches", "64", archive)
	if !strings.Contains(out, "1 record(s)") {
		t.Fatalf("rvmlogview touches filter: %s", out)
	}

	// Truncate the real log; verify it is empty and data survived.
	out = runTool(t, "rvmutl", "truncate", logPath)
	if !strings.Contains(out, "log now 0/") {
		t.Fatalf("truncate: %s", out)
	}
	db2, err := rvm.Open(rvm.Options{LogPath: logPath})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	reg2, err := db2.Map(segPath, 0, int64(rvm.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	if string(reg2.Data()[:13]) != "operator-data" {
		t.Fatal("data lost through operator workflow")
	}
}

// TestShardedOperatorWorkflow drives the offline tools against a 2-shard
// store holding a cross-shard transaction: status and verify enumerate
// both shard logs and pair the prepares with their commit marks, rvmlogview
// decodes the two-phase records, and truncate preserves the shard count.
func TestShardedOperatorWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("tool workflow skipped in -short")
	}
	dir := t.TempDir()
	logPath := filepath.Join(dir, "s.log")
	segPath := filepath.Join(dir, "s.seg")
	runTool(t, "rvmutl", "create-log", logPath, "262144")
	runTool(t, "rvmutl", "create-seg", segPath, "3", "65536")

	pair := 2 * int64(rvm.PageSize)
	opts := rvm.Options{
		LogPath:           logPath,
		LogShards:         2,
		ShardOf:           func(seg uint64, off int64) int { return int(off / pair) },
		TruncateThreshold: -1,
	}
	db, err := rvm.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := db.Map(segPath, 0, pair)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := db.Map(segPath, pair, pair)
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin(rvm.Restore)
	tx.Modify(ra, 0, []byte("sharded-left"))
	tx.Modify(rb, 0, []byte("sharded-right"))
	if err := tx.Commit(rvm.Flush); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close, so the prepare/mark pairs stay in both shard logs.

	out := runTool(t, "rvmutl", "status", logPath)
	for _, frag := range []string{"shard 0 of 2", "shard 1 of 2", "cross-shard:  1 prepare(s), 1 commit mark(s)", "forced LSN:"} {
		if !strings.Contains(out, frag) {
			t.Errorf("status missing %q:\n%s", frag, out)
		}
	}
	out = runTool(t, "rvmutl", "verify", logPath)
	if !strings.Contains(out, "ok: 4 live record(s), 1 segment(s) verified") ||
		strings.Contains(out, "orphaned") {
		t.Errorf("verify: %s", out)
	}
	out = runTool(t, "rvmlogview", logPath)
	for _, frag := range []string{"shard 0 (", "shard 1 (", "prepare", "commit-mark", "forced-through LSN"} {
		if !strings.Contains(out, frag) {
			t.Errorf("rvmlogview missing %q:\n%s", frag, out)
		}
	}
	out = runTool(t, "rvmlogview", "-shard", "1", "-data", logPath)
	if strings.Contains(out, "shard 0 (") || !strings.Contains(out, "sharded-right") {
		t.Errorf("rvmlogview -shard 1: %s", out)
	}

	out = runTool(t, "rvmutl", "truncate", logPath)
	if !strings.Contains(out, "log now 0/") {
		t.Fatalf("truncate: %s", out)
	}
	// The superblock (and so the shard count) must survive the utility.
	out = runTool(t, "rvmutl", "segments", logPath)
	if !strings.Contains(out, "#shards\t2") {
		t.Errorf("truncate dropped the shard superblock:\n%s", out)
	}
	db2, err := rvm.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	ra2, _ := db2.Map(segPath, 0, pair)
	rb2, _ := db2.Map(segPath, pair, pair)
	if string(ra2.Data()[:12]) != "sharded-left" || string(rb2.Data()[:13]) != "sharded-right" {
		t.Fatal("cross-shard data lost through operator workflow")
	}
}

// TestRvmstatRoundTrip proves Engine.Snapshot and rvmstat agree on the
// wire format: a snapshot saved as JSON, parsed by rvmstat, and
// re-emitted with -json is byte-identical.  It then drives the live
// paths (-url view and -trace dump) against a real DebugHandler.
func TestRvmstatRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("tool workflow skipped in -short")
	}
	s := newStore(t, rvm.Options{TraceEvents: 1024, Metrics: true})
	reg, err := s.db.Map(s.segPath, 0, int64(rvm.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, s.db, reg, 6, rvm.Flush)
	commitN(t, s.db, reg, 2, rvm.NoFlush)

	sn, err := s.db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(sn, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(t.TempDir(), "snap.json")
	if err := os.WriteFile(snapPath, want, 0o644); err != nil {
		t.Fatal(err)
	}

	// Round trip: parse + re-marshal must reproduce the engine's bytes.
	out := runTool(t, "rvmstat", "-snapshot", snapPath, "-json")
	if strings.TrimSpace(out) != string(want) {
		t.Errorf("rvmstat -json does not round-trip Snapshot JSON:\n got: %s\nwant: %s", out, want)
	}

	// The rendered view from the same file mentions the headline numbers.
	out = runTool(t, "rvmstat", "-snapshot", snapPath)
	for _, frag := range []string{"flush-commits 6", "noflush-commits 2", "commit-flush", "force-latency"} {
		if !strings.Contains(out, frag) {
			t.Errorf("rvmstat view missing %q:\n%s", frag, out)
		}
	}

	// Live paths against a mounted DebugHandler.
	srv := httptest.NewServer(s.db.DebugHandler())
	defer srv.Close()
	out = runTool(t, "rvmstat", "-url", srv.URL)
	if !strings.Contains(out, "flush-commits 6") {
		t.Errorf("rvmstat -url view: %s", out)
	}
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	out = runTool(t, "rvmstat", "-url", srv.URL, "-trace", tracePath, "-format", "chrome")
	if !strings.Contains(out, "chrome trace") {
		t.Errorf("rvmstat -trace: %s", out)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("dumped trace is not valid JSON: %v", err)
	}
	if len(events) == 0 {
		t.Error("dumped trace is empty")
	}
}

// TestRecoveryPhasesSurface: after a restart that had a log to replay, the
// scan at Open (which builds as it reads) and recovery's three phases after
// it (second scans, the wait for the builders, apply) are visible on every
// surface an operator has — Snapshot, /metrics, and rvmstat — so a long
// restart is explainable afterwards.
func TestRecoveryPhasesSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("tool workflow skipped in -short")
	}
	s := newStore(t, rvm.Options{})
	reg, err := s.db.Map(s.segPath, 0, int64(rvm.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, s.db, reg, 20, rvm.Flush)
	s.db = nil // abandoned without Close: a process failure, the log stays live

	db, err := rvm.Open(rvm.Options{LogPath: s.logPath, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sn, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m := sn.Metrics
	for name, h := range map[string]rvm.HistStat{
		"open_scan_ns": m.OpenScanNs, "recovery_scan_ns": m.RecoveryScanNs,
		"recovery_build_ns": m.RecoveryBuildNs, "recovery_apply_ns": m.RecoveryApplyNs,
	} {
		if h.Count != 1 || h.Sum == 0 {
			t.Errorf("snapshot %s: %d observations, %d ns in all; want one non-zero", name, h.Count, h.Sum)
		}
	}

	srv := httptest.NewServer(db.DebugHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rvm_open_scan_ns_count 1", "rvm_recovery_scan_ns_count 1",
		"rvm_recovery_build_ns_count 1", "rvm_recovery_apply_ns_count 1"} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics body missing %q", want)
		}
	}
	lintProm(t, string(raw))

	out := runTool(t, "rvmstat", "-url", srv.URL)
	for _, row := range []string{"open-scan", "recovery-scan", "recovery-build", "recovery-apply"} {
		if !strings.Contains(out, row) {
			t.Errorf("rvmstat view missing the %q row:\n%s", row, out)
		}
	}
}
