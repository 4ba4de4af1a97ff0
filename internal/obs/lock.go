package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// LockClass identifies one of the engine's counted locks: an obs.Mutex is
// bound to one (DESIGN.md §12).  The hierarchy's levels live in
// lockorder.DefaultHierarchy, and a drift test in lockorder pins that each
// class names exactly one of its entries.
//
// The numeric values are dense indexes into the registry's per-class
// contention counters, which is why the profile costs one array index
// plus atomic adds and never a lookup.
type LockClass int

// Lock classes, outermost first.  NumLockClasses bounds the counter
// arrays.
const (
	LockRegion LockClass = iota
	LockPipeline
	LockGroupCommit
	NumLockClasses
)

var lockNames = [NumLockClasses]string{
	LockRegion:      "region",
	LockPipeline:    "pipeline",
	LockGroupCommit: "group_commit",
}

// String returns the class's stable short name, used as the `class`
// label in the Prometheus exposition and in rvmstat's lock table.
func (c LockClass) String() string {
	if c < 0 || c >= NumLockClasses {
		return "unknown"
	}
	return lockNames[c]
}

// lockCounters is one class's contention tally.  acquires counts every
// instrumented acquisition; slow counts the ones that found the lock
// held (TryLock failed) and had to block; waitNs accumulates the
// blocked time of those slow acquisitions.
type lockCounters struct {
	acquires atomic.Uint64
	slow     atomic.Uint64
	waitNs   atomic.Uint64
}

// LockAcquired records an uncontended (fast-path) acquisition of class
// c.  It is called with the lock just taken still held — the counters
// are plain atomics, so the critical section grows by one atomic add,
// and obsleak exempts it from the no-emission-under-mutex rule for
// exactly that reason.
func (m *Metrics) LockAcquired(c LockClass) {
	if m == nil || c < 0 || c >= NumLockClasses {
		return
	}
	m.locks[c].acquires.Add(1)
}

// LockContended records a slow-path acquisition of class c that blocked
// for waitNs before succeeding.  Like LockAcquired it runs under the
// just-acquired lock.
func (m *Metrics) LockContended(c LockClass, waitNs int64) {
	if m == nil || c < 0 || c >= NumLockClasses {
		return
	}
	lc := &m.locks[c]
	lc.acquires.Add(1)
	lc.slow.Add(1)
	if waitNs > 0 {
		lc.waitNs.Add(uint64(waitNs))
	}
}

// LockStat is the JSON-marshalable contention summary of one lock
// class.
type LockStat struct {
	Class    string `json:"class" label:"class"`
	Acquires uint64 `json:"acquires" prom:"rvm_lock_acquires_total" help:"Lock acquisitions by class."`
	Slow     uint64 `json:"slow" prom:"rvm_lock_slow_total" help:"Lock acquisitions that waited."`
	WaitNs   uint64 `json:"wait_ns" prom:"rvm_lock_wait_ns_total" help:"Nanoseconds spent waiting for locks."`
}

// lockStats summarizes every class, in hierarchy order.
func (m *Metrics) lockStats() []LockStat {
	var out []LockStat
	for c := LockRegion; c < NumLockClasses; c++ {
		out = append(out, LockStat{
			Class:    c.String(),
			Acquires: m.locks[c].acquires.Load(),
			Slow:     m.locks[c].slow.Load(),
			WaitNs:   m.locks[c].waitNs.Load(),
		})
	}
	return out
}

// Mutex is a sync.Mutex that knows its class in the hierarchy: with a
// registry bound, every Lock feeds that class's contention counters; with
// none it is a plain mutex.  The engine's instrumented locks (Region.mu,
// pipeline.mu, groupCommit.mu) are declared with it, so a call site is a
// literal mu.Lock() — which is what the rvmcheck walkers track.
type Mutex struct {
	mu    sync.Mutex
	met   *Metrics
	class LockClass
}

// Bind sets the class and the registry (nil: uncounted).  Call it once,
// before the mutex is shared between goroutines.
func (m *Mutex) Bind(c LockClass, met *Metrics) { m.class, m.met = c, met }

// Lock acquires the mutex.  Counted, an uncontended acquisition costs one
// TryLock and one atomic add; a contended one adds two clock reads.
func (m *Mutex) Lock() {
	switch {
	case m.met == nil:
		m.mu.Lock()
	case m.mu.TryLock():
		m.met.LockAcquired(m.class)
	default:
		t0 := time.Now()
		m.mu.Lock()
		m.met.LockContended(m.class, time.Since(t0).Nanoseconds())
	}
}

// Unlock releases the mutex.
func (m *Mutex) Unlock() { m.mu.Unlock() }
