package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/rvm-go/rvm/internal/core"
	"github.com/rvm-go/rvm/internal/mapping"
	"github.com/rvm-go/rvm/internal/obs"
)

// spec is one workload.  txPerSecond fixes the work: a run of -seconds s
// commits txPerSecond*s measured transactions however long they take, so
// both sides of a comparison do the same work and, with one client, write
// the same bytes.  The rates are what this commit reaches on the model
// device, which makes the measured window about -seconds long (a fifth of
// that for the restart workload, whose time goes into its restarts).
type spec struct {
	name        string
	why         string
	coda        bool // the Coda client mix; otherwise TPC-A
	mode        core.CommitMode
	clients     int
	group       bool
	logBytes    int64
	flushEvery  int  // explicit Flush every so many transactions of a client
	crash       bool // build a crash image on a volatile device and time recovery
	restarts    int  // timed Open+Map repetitions after the window; more where one is short
	tailTx      int  // no-flush workloads: transactions committed after the final truncation
	txPerSecond int
	// loadTxPerSecond, where set, sizes the warm-up in place of a tenth of
	// the window: the restart workload's warm-up loads the log it crashes
	// with.
	loadTxPerSecond int
}

var specs = []spec{
	{name: "tpca_flush", mode: core.Flush, clients: 1, logBytes: 64 << 20, restarts: 9, txPerSecond: 860,
		why: "paper 7.1.1 TPC-A, one client, every commit forces the log: the log force is the whole commit; front end and truncation idle"},
	{name: "tpca_group", mode: core.Flush, clients: 2, group: true, logBytes: 64 << 20, restarts: 9, txPerSecond: 1580,
		why: "same transactions from two clients under group commit: the only place batching, the join window and lock waits pay or cost"},
	{name: "tpca_noflush", mode: core.NoFlush, clients: 1, logBytes: 8 << 20, flushEvery: 256, tailTx: 8192, restarts: 9, txPerSecond: 21000,
		why: "same transactions committed no-flush into an 8 MiB log: bound by page write-back, truncation and itree; one force per 256"},
	{name: "coda_client", coda: true, mode: core.NoFlush, clients: 1, logBytes: 8 << 20, flushEvery: 256, tailTx: 49152, restarts: 21, txPerSecond: 135000,
		why: "codasim's purcell client mix, redundant set-ranges and subsuming bursts: processor-bound front end, tiny working set"},
	{name: "restart", mode: core.Flush, clients: 1, logBytes: 64 << 20, crash: true, restarts: 9, txPerSecond: 170, loadTxPerSecond: 4200,
		why: "flush-mode TPC-A on a device that loses unsynced writes, crashed with 15 MB of log: recovery scan, sort and apply is all the work"},
}

func findSpec(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// app is what the lifecycle below needs from a workload's application.
type app interface {
	segmentBytes() int64
	mapRegions(e *core.Engine, seg string) error
	regions() []*core.Region
	// preload starts the application afresh on a new, empty segment.
	preload(e *core.Engine) error
	// run commits client's i-th transaction.
	run(e *core.Engine, tr *tracer, rec *rangeLog, client, i int) error
	// userBytes is what client's transactions [from, to) declared, each
	// byte counted once per transaction.
	userBytes(client, from, to int) int64
	// check verifies the application's invariant on the mapped image.
	check() error
}

// runConfig is what the command line fixes for one run.
type runConfig struct {
	seed    int64
	seconds float64
	device  string // "model" or "real"
	dir     string // work directory; the run makes and removes a child of it
	quick   bool   // smoke run, for the test: see smoke
}

// setUpRuns is how often a run sets the engine up; it reports the median.
const setUpRuns = 9

func (cfg runConfig) syncCost() time.Duration {
	if cfg.quick {
		return 0
	}
	return modelSyncCost
}

func (cfg runConfig) setUps() int {
	if cfg.quick {
		return 1
	}
	return setUpRuns
}

// smoke shrinks a workload to a twentieth of a second of work on a device
// whose Sync is free, with one set-up and two restarts: enough to run every
// code path and print every metric, and too little to measure anything.
func (sp spec) smoke(cfg runConfig) (spec, runConfig) {
	cfg.seconds = 0.05
	sp.restarts = 2
	sp.tailTx /= 16
	return sp, cfg
}

// measurement is everything one run of one workload observed.
type measurement struct {
	attempted, failed int64
	errs              []string

	setupS    []float64
	txs       int
	wallS     float64
	cpuS      float64
	commitNs  []int64 // Begin to Commit return, every client, sorted
	flushNs   []int64 // explicit Flush calls, sorted
	userBytes int64
	stats     core.Statistics      // the engine counters' growth over the window
	restartS  []float64            // sorted
	closeS    float64              // Close of the window's engine
	truncateS float64              // the no-flush workloads' final Flush and Truncate
	recovered core.Statistics      // of the last timed restart
	recMet    *obs.MetricsSnapshot // of the last timed restart, traced runs
	met       *obs.MetricsSnapshot // of the window's engine, traced runs
	ranges    *rangeLog            // traced runs
	tr        *tracer              // traced runs
	window    spanTotals           // traced runs: spans of the measured window
	restarts  spanTotals           // traced runs: spans of the timed restarts
	segBytes  int64
}

func (m *measurement) fail(format string, args ...any) {
	m.failed++
	if len(m.errs) < 10 {
		m.errs = append(m.errs, fmt.Sprintf(format, args...))
	}
}

// env is one engine on its files.
type env struct {
	dir, logPath, segPath string
	devs                  *devices
	eng                   *core.Engine
	met                   *obs.Metrics
}

func (sp spec) engineOptions(ev *env) (core.Options, error) {
	logDev, err := ev.devs.log(ev.logPath)
	if err != nil {
		return core.Options{}, err
	}
	// What rvm.Open would pass for Options{Incremental: true, GroupCommit:
	// sp.group, Metrics: traced}.
	return core.Options{
		LogPath:           ev.logPath,
		LogDevice:         logDev,
		SegmentDevice:     ev.devs.segment(),
		Backend:           mapping.Heap,
		TruncateThreshold: 0.5,
		Incremental:       true,
		GroupCommit:       sp.group,
		Metrics:           ev.met,
	}, nil
}

// open opens the engine on ev's files and maps the application's regions.
func (sp spec) open(ev *env, a app, tr *tracer) error {
	opts, err := sp.engineOptions(ev)
	if err != nil {
		return err
	}
	id, s := tr.call()
	ev.eng, err = core.Open(opts)
	tr.done(spOpen, id, 0, s, true)
	if err != nil {
		return err
	}
	id, s = tr.call()
	err = a.mapRegions(ev.eng, ev.segPath)
	tr.done(spMap, id, 0, s, true)
	return err
}

// setUp creates the log and the segment, opens the engine, maps and
// preloads, and leaves the log empty: what an application pays before its
// first transaction.
func (sp spec) setUp(ev *env, a app, tr *tracer) error {
	if err := os.MkdirAll(ev.dir, 0o755); err != nil {
		return err
	}
	if err := core.CreateLog(ev.logPath, sp.logBytes); err != nil {
		return err
	}
	if err := core.CreateSegment(ev.segPath, 1, a.segmentBytes()); err != nil {
		return err
	}
	if err := sp.open(ev, a, tr); err != nil {
		return err
	}
	if err := a.preload(ev.eng); err != nil {
		return err
	}
	if err := ev.eng.Flush(); err != nil {
		return err
	}
	return ev.eng.Truncate()
}

// windowStats is the growth, between two readings, of the counters the
// metrics use; GroupCommitSize is a maximum and is taken as it stands.
func windowStats(before, after core.Statistics) core.Statistics {
	return core.Statistics{
		LogBytes:        after.LogBytes - before.LogBytes,
		LogForces:       after.LogForces - before.LogForces,
		IntraSavedBytes: after.IntraSavedBytes - before.IntraSavedBytes,
		InterSavedBytes: after.InterSavedBytes - before.InterSavedBytes,
		EpochTruncs:     after.EpochTruncs - before.EpochTruncs,
		IncrSteps:       after.IncrSteps - before.IncrSteps,
		PagesWritten:    after.PagesWritten - before.PagesWritten,
		Retries:         after.Retries - before.Retries,
		GroupCommitSize: after.GroupCommitSize,
	}
}

func imageHash(a app) [sha256.Size]byte {
	h := sha256.New()
	for _, r := range a.regions() {
		h.Write(r.Data())
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// seekData is lseek's SEEK_DATA on Linux.  Where the call is not known it
// fails and copyFile reads the holes as zeros instead of skipping them.
const seekData = 3

// copyFile copies src to dst, leaving a hole wherever src has one or reads
// as zeros: a log file is mostly unwritten space, and reading and writing
// that as zeros would put several times the benchmark's own traffic
// through the page cache.
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	st, err := in.Stat()
	if err != nil {
		return err
	}
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	defer out.Close()
	buf := make([]byte, 256<<10)
	zeros := make([]byte, len(buf))
	for off := int64(0); off < st.Size(); {
		if next, err := in.Seek(off, seekData); err == nil {
			off = next
		} else if errors.Is(err, syscall.ENXIO) {
			break // nothing but a hole from here on
		}
		n, err := in.ReadAt(buf[:min(int64(len(buf)), st.Size()-off)], off)
		if n > 0 && !bytes.Equal(buf[:n], zeros[:n]) {
			if _, err := out.WriteAt(buf[:n], off); err != nil {
				return err
			}
		}
		off += int64(n)
		if err != nil && err != io.EOF {
			return err
		}
	}
	if err := out.Truncate(st.Size()); err != nil {
		return err
	}
	return out.Close()
}

// runner carries one measure call's state between its stages.
type runner struct {
	sp     spec
	cfg    runConfig
	traced bool
	root   string // the run's own directory
	a      app
	m      *measurement
}

func (r *runner) newEnv(dir, kind string) *env {
	ev := &env{
		dir:     dir,
		logPath: filepath.Join(dir, logFile),
		segPath: filepath.Join(dir, segFile),
		devs:    &devices{kind: kind},
	}
	if kind != "volatile" {
		// A volatile device's Sync is free until the window starts.
		ev.devs.syncCost.Store(int64(r.cfg.syncCost()))
	}
	if r.traced {
		ev.met = obs.NewMetrics()
		ev.devs.tr = r.m.tr
	}
	return ev
}

// The files of one engine; the dictionary lives beside the log.
const (
	logFile = "rvm.log"
	segFile = "data.seg"
)

var engineFiles = []string{logFile, logFile + ".segs", segFile}

func copyEngineFiles(dst, src string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, f := range engineFiles {
		if err := copyFile(filepath.Join(dst, f), filepath.Join(src, f)); err != nil {
			return err
		}
	}
	return nil
}

// measure runs one workload once: set-up, warm-up, the measured window,
// the output check, and the timed restarts with the durability check.
func (sp spec) measure(cfg runConfig, traced bool) (*measurement, error) {
	if cfg.quick {
		sp, cfg = sp.smoke(cfg)
	}
	r := &runner{sp: sp, cfg: cfg, traced: traced, m: &measurement{}}
	m := r.m
	perClient := max(int(float64(sp.txPerSecond)*cfg.seconds)/sp.clients, 1)
	warm, tail := perClient/10, sp.tailTx
	if sp.loadTxPerSecond > 0 {
		warm = int(float64(sp.loadTxPerSecond) * cfg.seconds)
	}
	if sp.flushEvery > 0 {
		// Whole flush periods, so the window starts on an empty spool.
		perClient = (perClient + sp.flushEvery - 1) / sp.flushEvery * sp.flushEvery
		warm = (warm + sp.flushEvery - 1) / sp.flushEvery * sp.flushEvery
	}
	if sp.coda {
		c, err := newCoda(cfg.seed, warm+perClient+tail)
		if err != nil {
			return nil, err
		}
		r.a = c
	} else {
		r.a = newBank(sp.mode, cfg.seed, sp.clients, warm+perClient+tail)
	}
	m.segBytes = r.a.segmentBytes()
	if traced {
		m.tr = newTracer()
		m.ranges = &rangeLog{}
	}
	var err error
	if r.root, err = os.MkdirTemp(cfg.dir, sp.name+"-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.root)

	// Set-up, several times over; the last engine is kept.
	var ev *env
	for i := 0; i < cfg.setUps(); i++ {
		if ev != nil {
			if err := ev.eng.Close(); err != nil {
				return nil, fmt.Errorf("close after set-up: %w", err)
			}
			os.RemoveAll(ev.dir)
		}
		kind := cfg.device
		if sp.crash {
			kind = "volatile"
		}
		ev = r.newEnv(filepath.Join(r.root, fmt.Sprintf("run%d", i)), kind)
		t0 := time.Now()
		if err := sp.setUp(ev, r.a, m.tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
	}
	e := ev.eng

	// Warm-up, then the window.  Set-up and warm-up of the restart workload
	// run with a free Sync; its window pays the model's price like the rest.
	r.clients(e, 0, warm, false)
	ev.devs.syncCost.Store(int64(cfg.syncCost()))
	runtime.GC()
	m.tr.take()
	before := e.Stats()
	cpu0, t0 := cpuSeconds(), time.Now()
	commits, flushes := r.clients(e, warm, warm+perClient, true)
	m.wallS = time.Since(t0).Seconds()
	m.cpuS = cpuSeconds() - cpu0
	m.stats = windowStats(before, e.Stats())
	m.window = m.tr.take()
	for c := 0; c < sp.clients; c++ {
		m.commitNs = append(m.commitNs, commits[c]...)
		m.flushNs = append(m.flushNs, flushes[c]...)
		m.userBytes += r.a.userBytes(c, warm, warm+perClient)
	}
	m.txs = perClient * sp.clients
	sort.Slice(m.commitNs, func(i, j int) bool { return m.commitNs[i] < m.commitNs[j] })
	sort.Slice(m.flushNs, func(i, j int) bool { return m.flushNs[i] < m.flushNs[j] })
	m.attempted = int64(len(m.commitNs) + len(m.flushNs))
	if sp.flushEvery == 0 && m.stats.EpochTruncs+m.stats.IncrSteps > 0 {
		return nil, fmt.Errorf("%s: the log reached its truncation threshold; -seconds %g is too long for a %d MiB log",
			sp.name, cfg.seconds, sp.logBytes>>20)
	}
	if traced {
		if sn, err := e.Snapshot(); err == nil {
			m.met = sn.Metrics
		}
	}

	image := filepath.Join(r.root, "image")
	want, err := r.stop(ev, image, warm+perClient, tail)
	if err != nil {
		return nil, err
	}
	if err := r.timedRestarts(ev.dir, image, want); err != nil {
		return nil, err
	}
	return m, nil
}

// clients runs transactions [from, to) of every client, each client in a
// goroutine of its own in a closed loop, and returns their commit and
// flush latencies.  Only a timed stretch is traced.
func (r *runner) clients(e *core.Engine, from, to int, timed bool) (commits, flushes [][]int64) {
	sp := r.sp
	commits, flushes = make([][]int64, sp.clients), make([][]int64, sp.clients)
	failed := make([][]string, sp.clients)
	var wg sync.WaitGroup
	for c := 0; c < sp.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var tr *tracer
			var rec *rangeLog
			if timed {
				tr = r.m.tr
				if c == 0 {
					rec = r.m.ranges
				}
			}
			cs := make([]int64, 0, to-from)
			var fs []int64
			for i := from; i < to; i++ {
				t0 := time.Now()
				err := r.a.run(e, tr, rec, c, i)
				cs = append(cs, time.Since(t0).Nanoseconds())
				rec.end()
				if err != nil {
					failed[c] = append(failed[c], fmt.Sprintf("client %d tx %d: %v", c, i, err))
				}
				if sp.flushEvery > 0 && (i+1)%sp.flushEvery == 0 {
					t0 = time.Now()
					id, s := tr.call()
					err := e.Flush()
					tr.done(spFlush, id, 0, s, i < keepTx)
					fs = append(fs, time.Since(t0).Nanoseconds())
					if err != nil {
						failed[c] = append(failed[c], fmt.Sprintf("client %d flush after tx %d: %v", c, i, err))
					}
				}
			}
			commits[c], flushes[c] = cs, fs
		}(c)
	}
	wg.Wait()
	for _, f := range failed {
		for _, msg := range f {
			r.m.fail("%s", msg)
		}
	}
	return commits, flushes
}

// stop ends the window's engine the way a process failure would and saves
// what it left on storage in image.  It returns the hash of the committed
// memory image, which every restart from image must reproduce.
//
// What a no-flush workload's log holds at this moment depends on how far
// the background truncation happened to get, so those workloads first
// truncate and then commit tail more transactions: their restart replays
// exactly that tail.  The flush workloads never truncate and leave their
// whole log.  The restart workload's devices lose every write no Sync
// covered; the others keep what a kill -9 would keep, the page cache.
func (r *runner) stop(ev *env, image string, next, tail int) (want [sha256.Size]byte, err error) {
	e, m := ev.eng, r.m
	if r.sp.flushEvery > 0 {
		t0 := time.Now()
		if err := e.Flush(); err != nil {
			m.fail("final flush: %v", err)
		}
		if err := e.Truncate(); err != nil {
			m.fail("final truncate: %v", err)
		}
		m.truncateS = time.Since(t0).Seconds()
		r.clients(e, next, next+tail, false)
		if err := e.Flush(); err != nil {
			m.fail("flush after the tail: %v", err)
		}
	}
	m.attempted++
	if err := r.a.check(); err != nil {
		m.fail("live image: %v", err)
	}
	want = imageHash(r.a)
	ev.devs.crash()
	if err := copyEngineFiles(image, ev.dir); err != nil {
		return want, err
	}
	// The engine has to let go of the files before they are put back for
	// the restarts; what Close writes is overwritten there.  A crashed
	// engine has already lost its files.
	if r.sp.crash {
		return want, nil
	}
	t0 := time.Now()
	id, s := m.tr.call()
	err = e.Close()
	m.tr.done(spClose, id, 0, s, true)
	m.closeS = time.Since(t0).Seconds()
	if err != nil {
		m.fail("close: %v", err)
	}
	return want, nil
}

// timedRestarts puts image back in dir and times Open plus Map, restarts
// times over.  Every transaction was acknowledged as durable before image
// was taken, so each restart must map exactly the committed image.
func (r *runner) timedRestarts(dir, image string, want [sha256.Size]byte) error {
	m := r.m
	m.tr.take()
	for i := 0; i < r.sp.restarts; i++ {
		if err := copyEngineFiles(dir, image); err != nil {
			return err
		}
		re := r.newEnv(dir, r.cfg.device)
		runtime.GC() // every restart starts from the same heap
		t0 := time.Now()
		err := r.sp.open(re, r.a, nil)
		m.restartS = append(m.restartS, time.Since(t0).Seconds())
		if err != nil {
			return fmt.Errorf("restart %d: %w", i, err)
		}
		m.attempted += 2
		if got := imageHash(r.a); !bytes.Equal(got[:], want[:]) {
			m.fail("restart %d: the mapped image lacks acknowledged commits", i)
		}
		if err := r.a.check(); err != nil {
			m.fail("restart %d: %v", i, err)
		}
		m.recovered = re.eng.Stats()
		if sn, err := re.eng.Snapshot(); err == nil {
			m.recMet = sn.Metrics
		}
		if err := re.eng.Close(); err != nil {
			m.fail("close after restart %d: %v", i, err)
		}
	}
	m.restarts = m.tr.take()
	sort.Float64s(m.restartS)
	return nil
}
