// Golden cases for the lockorder analyzer, checked against a test
// hierarchy mirroring the engine's: Engine.mu (level 10) → Region.mu
// (20, ordered) → pipeline.mu (30, ordered: one per WAL shard) →
// Log.mu (50).
package a

import (
	"sync"

	"github.com/rvm-go/rvm/internal/obs"
)

type Engine struct {
	mu   sync.Mutex
	pipe pipeline
	log  Log
}

type Region struct {
	mu   sync.Mutex
	data []byte
}

type pipeline struct {
	mu sync.Mutex
}

// Log's mutex is an obs.Mutex: its class is still (a, Log, mu), the owner
// and field of the declaration, exactly as for a sync.Mutex.
type Log struct {
	mu obs.Mutex
}

// stray is a mutex owned by a covered package but missing from the
// table: any interaction with a table lock is an unknown edge.
type stray struct {
	mu sync.Mutex
}

// Strict descent is legal: engine → region → pipeline → log.
func goodDescent(e *Engine, r *Region) {
	e.mu.Lock()
	r.mu.Lock()
	e.pipe.mu.Lock()
	e.log.mu.Lock()
	e.log.mu.Unlock()
	e.pipe.mu.Unlock()
	r.mu.Unlock()
	e.mu.Unlock()
}

// Region is Ordered: same-class nesting is allowed (the runtime asserts
// ascending index order, which the table cannot express).
func goodOrderedNesting(a, b *Region) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

// pipeline is Ordered too: one pipeline lock exists per WAL shard, and
// cross-shard commits take them in ascending shard index.
func goodShardPipeNesting(a, b *Engine) {
	a.pipe.mu.Lock()
	b.pipe.mu.Lock()
	b.pipe.mu.Unlock()
	a.pipe.mu.Unlock()
}

// Releasing before acquiring outward is legal; only held locks order.
func goodHandoff(e *Engine) {
	e.pipe.mu.Lock()
	e.pipe.mu.Unlock()
	e.mu.Lock()
	e.mu.Unlock()
}

// An inversion: a level-10 class acquired under a level-30 class.
func badInversion(e *Engine) {
	e.pipe.mu.Lock()
	defer e.pipe.mu.Unlock()
	e.mu.Lock() // want `lock-order inversion`
	e.mu.Unlock()
}

// Same-class nesting of an unordered class deadlocks against the
// reverse interleaving.
func badSameClass(a, b *Engine) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want `same-class nesting deadlocks`
	b.mu.Unlock()
}

// lockEngine exists to be charged through its summary.
func lockEngine(e *Engine) {
	e.mu.Lock()
	e.mu.Unlock()
}

// The call is charged with every class the callee transitively
// acquires: an inversion through a helper is still an inversion.
func badTransitive(e *Engine) {
	e.pipe.mu.Lock()
	defer e.pipe.mu.Unlock()
	lockEngine(e) // want `lock-order inversion`
}

type flusher interface {
	flush()
}

type regionFlusher struct {
	r *Region
}

func (f *regionFlusher) flush() {
	f.r.mu.Lock()
	f.r.data[0] = 1
	f.r.mu.Unlock()
}

// Interface dispatch: the call site is charged with the acquisitions of
// every loaded implementer.
func badDispatch(l *Log, fl flusher) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fl.flush() // want `lock-order inversion`
}

// A goroutine does not hold the spawner's locks: no edge, no inversion.
func goodSpawn(e *Engine) {
	e.pipe.mu.Lock()
	defer e.pipe.mu.Unlock()
	go func(e *Engine) {
		e.mu.Lock()
		e.mu.Unlock()
	}(e)
}

// A table lock held while acquiring a covered-but-untabled mutex.
func badStrayInward(e *Engine, s *stray) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s.mu.Lock() // want `unknown lock edge`
	s.mu.Unlock()
}

// The same edge the other direction.
func badStrayOutward(e *Engine, s *stray) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.mu.Lock() // want `unknown lock edge`
	e.mu.Unlock()
}

// The suppression directive waives a named analyzer on the next line.
func allowed(e *Engine) {
	e.pipe.mu.Lock()
	defer e.pipe.mu.Unlock()
	//rvmcheck:allow lockorder -- exercising the directive itself
	e.mu.Lock()
	e.mu.Unlock()
}

// An obs.Mutex is classed by where it is declared: Log.mu is level 50, so
// the engine lock under it inverts, lexically and through a summary.
func badObsMutexInversion(e *Engine) {
	e.log.mu.Lock()
	defer e.log.mu.Unlock()
	e.mu.Lock() // want `lock-order inversion: e.mu \(level 10, engine lock\) acquired while holding e.log.mu \(level 50, log lock`
	e.mu.Unlock()
}

func lockLog(l *Log) {
	l.mu.Lock()
	l.mu.Unlock()
}

func badObsMutexTransitive(e *Engine, l *Log, s *stray) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lockLog(l) // want `unknown lock edge: table lock a.Log.mu \(log lock\) \(via a.Log.mu.Lock\)`
}
