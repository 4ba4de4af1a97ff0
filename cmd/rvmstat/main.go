// rvmstat renders live introspection for a running RVM instance: a
// top-style summary of the engine snapshot (counters, gauges, latency
// histograms) and trace dumps for offline analysis.
//
// It reads the JSON served by (*rvm.RVM).DebugHandler — point it at
// wherever the application mounted the handler:
//
//	rvmstat -url http://localhost:6060/debug/rvm            one-shot view
//	rvmstat -url ... -interval 2s                           live view
//	rvmstat -url ... -trace trace.json -format chrome       dump the trace
//	rvmstat -url ... -prom                                  dump /metrics (Prometheus text)
//	rvmstat -snapshot snap.json                             render a saved snapshot
//	rvmstat -snapshot snap.json -json                       parse + re-emit (round-trip)
//
// The live view survives transient fetch failures (an instance mid-restart,
// a dropped connection): it keeps showing the last good snapshot with a
// STALE banner and retries on the next tick, exiting only on demand.
//
// -json re-marshals the parsed snapshot with the same layout Snapshot
// itself marshals to, so saved snapshots round-trip byte-for-byte; the
// repo's tests rely on that to prove rvmstat and Engine.Snapshot agree
// on the wire format.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	rvm "github.com/rvm-go/rvm"
)

func main() {
	url := flag.String("url", "", "base URL of a mounted DebugHandler (e.g. http://host:6060/debug/rvm)")
	snapFile := flag.String("snapshot", "", "read a saved snapshot JSON file instead of -url ('-' = stdin)")
	interval := flag.Duration("interval", 0, "refresh the view every interval (0 = one-shot)")
	jsonOut := flag.Bool("json", false, "emit the parsed snapshot as JSON instead of rendering it")
	traceOut := flag.String("trace", "", "fetch the event trace into this file and exit (requires -url)")
	format := flag.String("format", rvm.TraceFormatJSON, "trace format: json or chrome")
	prom := flag.Bool("prom", false, "fetch /metrics (Prometheus text format) to stdout and exit (requires -url)")
	flag.Parse()

	if (*url == "") == (*snapFile == "") {
		fmt.Fprintln(os.Stderr, "rvmstat: exactly one of -url or -snapshot is required")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *traceOut != "" {
		if *url == "" {
			fatal(fmt.Errorf("-trace requires -url"))
		}
		if err := dumpTrace(*url, *traceOut, *format); err != nil {
			fatal(err)
		}
		return
	}
	if *prom {
		if *url == "" {
			fatal(fmt.Errorf("-prom requires -url"))
		}
		if err := dumpProm(*url); err != nil {
			fatal(err)
		}
		return
	}

	live := *interval > 0 && *snapFile == ""
	var last rvm.Snapshot
	haveLast := false
	for {
		sn, err := fetch(*url, *snapFile)
		if err != nil {
			if !live || !haveLast {
				// One-shot mode, or a live view that never saw a snapshot:
				// nothing useful to keep showing.
				fatal(err)
			}
			// Transient fetch failure mid-watch: keep the last good
			// snapshot, marked stale, and retry next tick.
			sn = last
		} else {
			last, haveLast = sn, true
		}
		if *jsonOut {
			if err != nil {
				fmt.Fprintf(os.Stderr, "rvmstat: stale — last fetch failed: %v\n", err)
			}
			data, merr := json.MarshalIndent(sn, "", "  ")
			if merr != nil {
				fatal(merr)
			}
			fmt.Println(string(data))
		} else {
			if live {
				fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
			}
			if err != nil {
				fmt.Printf("STALE — last fetch failed: %v\n", err)
			}
			render(os.Stdout, sn)
		}
		if !live {
			return
		}
		time.Sleep(*interval)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rvmstat:", err)
	os.Exit(1)
}

// fetch loads a Snapshot from the debug endpoint or a saved file.
func fetch(url, file string) (rvm.Snapshot, error) {
	var sn rvm.Snapshot
	var r io.ReadCloser
	switch {
	case url != "":
		resp, err := http.Get(url + "/snapshot")
		if err != nil {
			return sn, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return sn, fmt.Errorf("GET /snapshot: %s", resp.Status)
		}
		r = resp.Body
	case file == "-":
		r = os.Stdin
	default:
		f, err := os.Open(file)
		if err != nil {
			return sn, err
		}
		r = f
	}
	defer r.Close()
	return sn, json.NewDecoder(r).Decode(&sn)
}

// dumpTrace streams GET /trace into out.
func dumpTrace(url, out, format string) error {
	resp, err := http.Get(url + "/trace?format=" + format)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("GET /trace: %s: %s", resp.Status, body)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	n, err := io.Copy(f, resp.Body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d byte(s) of %s trace to %s\n", n, format, out)
	return nil
}

// dumpProm streams GET /metrics to stdout.
func dumpProm(url string) error {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("GET /metrics: %s: %s", resp.Status, body)
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

// render prints the top-style view.
func render(w io.Writer, sn rvm.Snapshot) {
	s := sn.Stats
	state := "running"
	if sn.Truncating {
		state = "truncating"
	}
	if sn.Poisoned {
		state = "POISONED"
	}
	fmt.Fprintf(w, "rvm %s — log %s / %s (%.0f%% full), %d trace event(s)\n",
		state, fmtBytes(sn.LogUsed), fmtBytes(sn.LogSize), pct(sn.LogUsed, sn.LogSize), sn.TraceEvents)
	fmt.Fprintf(w, "levels   spool %s   active tx %d   dirty pages %d\n",
		fmtBytes(sn.SpoolBytes), sn.ActiveTxs, sn.DirtyPages)
	fmt.Fprintf(w, "tx       begins %d   flush %d   noflush %d   aborts %d   empty %d\n",
		s.Begins, s.FlushCommits, s.NoFlushCommits, s.Aborts, s.EmptyCommits)
	fmt.Fprintf(w, "log      %s appended   forces %d   spool flushes %d   saved intra %s inter %s\n",
		fmtBytes(int64(s.LogBytes)), s.LogForces, s.Flushes,
		fmtBytes(int64(s.IntraSavedBytes)), fmtBytes(int64(s.InterSavedBytes)))
	fmt.Fprintf(w, "group    forces saved %d   max batch %d\n", s.ForcesSaved, s.GroupCommitSize)
	fmt.Fprintf(w, "trunc    epochs %d   incr steps %d   pages written %d   failures %d\n",
		s.EpochTruncs, s.IncrSteps, s.PagesWritten, s.TruncFailures)
	fmt.Fprintf(w, "recovery runs %d   bytes %s   scanned %s   io retries %d\n",
		s.Recoveries, fmtBytes(int64(s.RecoveredBytes)), fmtBytes(int64(s.RecoveryScanned)), s.Retries)
	fmt.Fprintf(w, "ckpt     runs %d   pages %d\n", s.Checkpoints, s.CheckpointPages)

	// Per-shard WAL breakdown; a single shard would just repeat the log
	// line above, so the table appears only for sharded engines.
	if len(sn.Shards) > 1 {
		fmt.Fprintf(w, "cross-shard commits %d   discarded prepares %d\n",
			s.CrossShardCommits, s.DiscardedPrepares)
		fmt.Fprintf(w, "\n%-6s %12s %12s %12s %12s %12s\n",
			"shard", "commits", "log used", "log size", "forces", "spool")
		for _, sh := range sn.Shards {
			fmt.Fprintf(w, "%-6d %12d %12s %12s %12d %12s\n",
				sh.Shard, sh.Commits, fmtBytes(sh.LogUsed), fmtBytes(sh.LogSize),
				sh.LogForces, fmtBytes(sh.SpoolBytes))
		}
	}

	if sn.Metrics == nil {
		fmt.Fprintln(w, "latency  (metrics disabled — open with Options.Metrics to collect)")
		return
	}
	m := sn.Metrics
	fmt.Fprintf(w, "\n%-16s %10s %10s %10s %10s %10s\n", "latency", "count", "mean", "p50", "p99", "max")
	rows := []struct {
		name string
		h    rvm.HistStat
		dur  bool
	}{
		{"commit-flush", m.CommitFlushNs, true},
		{"commit-noflush", m.CommitNoFlushNs, true},
		{"log-force", m.ForceLatencyNs, true},
		{"spool-flush", m.SpoolFlushNs, true},
		{"trunc-pause", m.TruncPauseNs, true},
		{"checkpoint", m.CheckpointNs, true},
		{"open-scan", m.OpenScanNs, true},
		{"recov-scan", m.RecoveryScanNs, true},
		{"recov-build", m.RecoveryBuildNs, true},
		{"recov-apply", m.RecoveryApplyNs, true},
		{"force-batch", m.ForceBatch, false},
	}
	for _, row := range rows {
		if row.h.Count == 0 {
			continue
		}
		if row.dur {
			fmt.Fprintf(w, "%-16s %10d %10s %10s %10s %10s\n", row.name, row.h.Count,
				fmtDur(row.h.Mean), fmtDur(float64(row.h.P50)), fmtDur(float64(row.h.P99)), fmtDur(float64(row.h.Max)))
		} else {
			fmt.Fprintf(w, "%-16s %10d %10.1f %10d %10d %10d\n", row.name, row.h.Count,
				row.h.Mean, row.h.P50, row.h.P99, row.h.Max)
		}
	}

	// Where did my commit go: the flush-commit critical path, phase by
	// phase, with each phase's share of the summed p50s.
	phases := []struct {
		name string
		h    rvm.HistStat
	}{
		{"lock-wait", m.PhaseLockWaitNs},
		{"encode", m.PhaseEncodeNs},
		{"pipe-wait", m.PhasePipeWaitNs},
		{"append", m.PhaseAppendNs},
		{"force-wait", m.PhaseForceWaitNs},
	}
	var p50Sum int64
	any := false
	for _, ph := range phases {
		if ph.h.Count > 0 {
			p50Sum += ph.h.P50
			any = true
		}
	}
	if any {
		fmt.Fprintf(w, "\n%-16s %10s %10s %10s %10s %7s\n", "commit phase", "count", "p50", "p99", "max", "share")
		for _, ph := range phases {
			if ph.h.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "%-16s %10d %10s %10s %10s %6.1f%%\n", ph.name, ph.h.Count,
				fmtDur(float64(ph.h.P50)), fmtDur(float64(ph.h.P99)), fmtDur(float64(ph.h.Max)),
				100*float64(ph.h.P50)/float64(p50Sum))
		}
		for _, ph := range []struct {
			name string
			h    rvm.HistStat
		}{
			{"  gc-leader", m.PhaseGCLeaderNs},
			{"  gc-follower", m.PhaseGCFollowerNs},
			{"  fsync", m.PhaseFsyncNs},
		} {
			if ph.h.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "%-16s %10d %10s %10s %10s\n", ph.name, ph.h.Count,
				fmtDur(float64(ph.h.P50)), fmtDur(float64(ph.h.P99)), fmtDur(float64(ph.h.Max)))
		}
	}

	// Lock-class contention, quietest classes omitted.
	shown := false
	for _, l := range m.Locks {
		if l.Slow == 0 && l.Acquires == 0 {
			continue
		}
		if !shown {
			fmt.Fprintf(w, "\n%-16s %12s %12s %12s\n", "lock class", "acquires", "contended", "waited")
			shown = true
		}
		fmt.Fprintf(w, "%-16s %12d %12d %12s\n", l.Class, l.Acquires, l.Slow, fmtDur(float64(l.WaitNs)))
	}

	// Stalls the watchdog flagged.
	shown = false
	for _, st := range m.Stalls {
		if st.Count == 0 {
			continue
		}
		if !shown {
			fmt.Fprint(w, "\nstalls  ")
			shown = true
		}
		fmt.Fprintf(w, " %s %d", st.Class, st.Count)
	}
	if shown {
		fmt.Fprintln(w)
	}
	if ls := m.LastStall; ls != nil {
		fmt.Fprintf(w, "last stall %s — in flight %s when detected, %s ago\n",
			ls.Class, fmtDur(float64(ls.DurNs)), fmtDur(float64(ls.AgoNs)))
	}
}

func pct(used, size int64) float64 {
	if size <= 0 {
		return 0
	}
	return 100 * float64(used) / float64(size)
}

// fmtBytes renders a byte count with a binary unit suffix.
func fmtBytes(n int64) string {
	units := []string{"B", "KiB", "MiB", "GiB", "TiB"}
	v := float64(n)
	i := 0
	for v >= 1024 && i < len(units)-1 {
		v /= 1024
		i++
	}
	if i == 0 {
		return fmt.Sprintf("%d B", n)
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
