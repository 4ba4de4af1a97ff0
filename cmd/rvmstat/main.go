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

// render prints the top-style view: every metric the snapshot declares,
// laid out by Snapshot.WriteText.
func render(w io.Writer, sn rvm.Snapshot) {
	if err := sn.WriteText(w); err != nil {
		fatal(err)
	}
	if sn.Metrics == nil {
		fmt.Fprintln(w, "summary  (metrics disabled — open with Options.Metrics to collect)")
	}
}
