package rvm_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
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

// TestLogviewBackwardWrapped: rvmlogview -backward lists a log whose live
// records wrap around the end of the area newest first — the forward
// listing's records, each with its data, in reverse.
func TestLogviewBackwardWrapped(t *testing.T) {
	if testing.Short() {
		t.Skip("tool workflow skipped in -short")
	}
	dir := t.TempDir()
	logPath, segPath := filepath.Join(dir, "w.log"), filepath.Join(dir, "w.seg")
	if err := rvm.CreateLog(logPath, 1<<14); err != nil {
		t.Fatal(err)
	}
	if err := rvm.CreateSegment(segPath, 1, int64(rvm.PageSize)); err != nil {
		t.Fatal(err)
	}
	db, err := rvm.Open(rvm.Options{LogPath: logPath, TruncateThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := db.Map(segPath, 0, int64(rvm.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	commit := func(n int) {
		for i := 0; i < n; i++ {
			tx, _ := db.Begin(rvm.NoRestore)
			tx.Modify(reg, int64(i), bytes.Repeat([]byte{byte('a' + i)}, 1000))
			if err := tx.Commit(rvm.Flush); err != nil {
				t.Fatal(err)
			}
		}
	}
	commit(12) // 12 KiB of the 16 KiB area
	if err := db.Truncate(); err != nil {
		t.Fatal(err)
	}
	commit(8) // from 12 KiB on, across the end of the area
	// Abandoned without Close: the records stay live.

	records := func(out string) []string {
		blocks := strings.Split(out, "\nseq ")[1:]
		// The footer ("8 record(s)") rides on the last block.
		last := strings.TrimSuffix(blocks[len(blocks)-1], "\n")
		blocks[len(blocks)-1] = last[:strings.LastIndex(last, "\n")]
		return blocks
	}
	pos := func(block string) (p int) {
		fmt.Sscanf(block[strings.Index(block, " pos "):], " pos %d", &p)
		return p
	}
	fwd := records(runTool(t, "rvmlogview", "-data", logPath))
	bwd := records(runTool(t, "rvmlogview", "-backward", "-data", logPath))
	if len(fwd) != 8 || pos(fwd[7]) >= pos(fwd[0]) {
		t.Fatalf("%d records from pos %d to pos %d; want 8 that wrap", len(fwd), pos(fwd[0]), pos(fwd[len(fwd)-1]))
	}
	slices.Reverse(bwd)
	if !slices.Equal(fwd, bwd) {
		t.Fatal("-backward is not the forward listing reversed")
	}
}

// TestStatusRefusesShardedStore: rvmutl status refuses a store whose
// dictionary records several logs, as earlier versions sharded them, with
// the error Open gives, naming the count and the other logs.
func TestStatusRefusesShardedStore(t *testing.T) {
	if testing.Short() {
		t.Skip("tool workflow skipped in -short")
	}
	logPath := filepath.Join(t.TempDir(), "s.log")
	if err := rvm.CreateLog(logPath, 1<<16); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath+".segs", []byte("# RVM segment dictionary v1\n#shards\t2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, openErr := rvm.Open(rvm.Options{LogPath: logPath})
	out, err := exec.Command("go", "run", "./cmd/rvmutl", "status", logPath).CombinedOutput()
	if err == nil || openErr == nil {
		t.Fatalf("status and Open accepted a store sharded over two logs: %s", out)
	}
	if !strings.Contains(string(out), openErr.Error()) || !strings.Contains(string(out), logPath+".shard1") {
		t.Fatalf("status says %q, Open %q", out, openErr)
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
// it (second scans, the wait for the builders, and apply, which the first
// truncation runs) are visible on every
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
	// The redo is applied by the first truncation, which reports the apply
	// phase.
	if err := db.Truncate(); err != nil {
		t.Fatal(err)
	}
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
