// Golden cases for the obsleak analyzer.
package a

import (
	"fmt"
	"sync"

	"github.com/rvm-go/rvm/internal/obs"
)

type log struct {
	mu   sync.Mutex
	tr   *obs.Tracer
	met  *obs.Metrics
	used int64
}

// Rule A: emission under a fine-grained mutex stalls every appender
// behind an instrumentation call.
func bad(l *log) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tr.Record(obs.EvLogAppend, 1, 2, 3) // want `Record called while holding l.mu`
}

func badMetric(l *log) {
	l.mu.Lock()
	l.met.SetRecoveryScanBytes(l.used) // want `SetRecoveryScanBytes called while holding l.mu`
	l.mu.Unlock()
}

// Capture under the lock, emit after: the discipline wal.Log follows.
func good(l *log) {
	l.mu.Lock()
	used := l.used
	tr, met := l.tr, l.met
	l.mu.Unlock()
	met.SetRecoveryScanBytes(used)
	tr.Record(obs.EvLogAppend, 1, 2, 3)
}

// Reading the tracer clock under the lock is a single atomic-free load.
func clockOK(l *log) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tr.Now()
}

// Since the engine-lock decomposition the Engine mutex gets no
// exemption either: the commit path captures under its locks and emits
// after unlocking, like everything else.
type Engine struct {
	mu sync.Mutex
	tr *obs.Tracer
}

func (e *Engine) commitLocked() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tr.Record(obs.EvTxBegin, 1, 0, 0) // want `Record called while holding e.mu`
}

func (e *Engine) commitUnlocked() {
	e.mu.Lock()
	tr := e.tr
	e.mu.Unlock()
	tr.Record(obs.EvTxBegin, 1, 0, 0)
}

// Branch-local lock state: the emission in the else branch runs unlocked.
func branchOK(l *log, locked bool) {
	if locked {
		l.mu.Lock()
		defer l.mu.Unlock()
		return
	}
	l.tr.Record(obs.EvLogAppend, 1, 0, 0)
}

// A goroutine does not hold the spawner's locks.
func spawnOK(l *log) {
	l.mu.Lock()
	defer l.mu.Unlock()
	go func() {
		l.tr.Record(obs.EvLogAppend, 1, 0, 0)
	}()
}

// Rule B: allocating arguments reintroduce the cost the ring buffer
// exists to avoid.
func badAlloc(tr *obs.Tracer, name string) {
	tr.Record(obs.EvTxBegin, uint64(len(fmt.Sprintf("tx-%s", name))), 0, 0) // want `allocates \(fmt.Sprintf\)`
}

func badConcat(m *obs.Metrics, a, b string) {
	m.SetRecoveryScanBytes(int64(len(a + b))) // want `allocates \(string concatenation\)`
}

func badConvert(h *obs.Hist, s string) {
	h.Observe(int64(len([]byte(s)))) // want `allocates \(string/slice conversion\)`
}

// Fixed-width integer payloads are the design.
func goodArgs(tr *obs.Tracer, tid, nbytes uint64) {
	tr.Record(obs.EvLogAppend, tid, nbytes, 0)
}

// Constant-folded expressions never allocate, whatever their shape.
func goodConst(tr *obs.Tracer) {
	tr.Record(obs.EvTxBegin, uint64(len("literal")), 0, 0)
}

// The suppression directive waives the analyzer on the next line.
func allowed(l *log) {
	l.mu.Lock()
	defer l.mu.Unlock()
	//rvmcheck:allow obsleak -- exercising the directive itself
	l.tr.Record(obs.EvLogAppend, 1, 0, 0)
}
