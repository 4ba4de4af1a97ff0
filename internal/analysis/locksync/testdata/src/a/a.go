// Golden cases for the locksync analyzer.
package a

import (
	"os"
	"sync"

	"github.com/rvm-go/rvm/internal/obs"
	"github.com/rvm-go/rvm/internal/wal"
)

type store struct {
	mu sync.Mutex
	f  *os.File
}

// Rule A: a raw device sync under any held mutex.
func bad(s *store) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Sync() // want `Sync called while holding s.mu`
}

// Releasing first is the discipline.
func good(s *store) error {
	s.mu.Lock()
	n := s.f
	s.mu.Unlock()
	return n.Sync()
}

// A method value passed to a retry helper is a call for our purposes.
func badMethodValue(s *store) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return retry(s.f.Sync) // want `Sync called while holding s.mu`
}

func goodMethodValue(s *store) error {
	s.mu.Lock()
	s.mu.Unlock()
	return retry(s.f.Sync)
}

func retry(f func() error) error {
	if err := f(); err != nil {
		return f()
	}
	return nil
}

// Branch-local lock state: the sync in the else branch runs unlocked.
func branchOK(s *store, locked bool) error {
	if locked {
		s.mu.Lock()
		defer s.mu.Unlock()
		return nil
	}
	return s.f.Sync()
}

// Rule B: forcing the module's log under a fine-grained wrapper mutex
// re-serializes group commit.
type wrapper struct {
	mu  sync.Mutex
	log *wal.Log
}

func badForce(w *wrapper) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.log.Force() // want `Log.Force called while holding w.mu`
}

func goodForce(w *wrapper) error {
	w.mu.Lock()
	l := w.log
	w.mu.Unlock()
	return l.Force()
}

// Since the engine-lock decomposition even the Engine's own mutex gets
// no exemption: the engine forces the log holding no lock at all.
type Engine struct {
	mu   sync.Mutex
	pipe pipeline
	log  *wal.Log
}

func (e *Engine) flushLocked() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.log.Force() // want `Log.Force called while holding e.mu`
}

func (e *Engine) flushUnlocked() error {
	e.mu.Lock()
	l := e.log
	e.mu.Unlock()
	return l.Force()
}

// Rule C: the engine's lock hierarchy is Engine, then Region locks,
// then the log-pipeline lock innermost.
type pipeline struct {
	mu sync.Mutex
}

type Region struct {
	mu   sync.Mutex
	data []byte
}

func badOrder(e *Engine, r *Region) {
	e.pipe.mu.Lock()
	defer e.pipe.mu.Unlock()
	r.mu.Lock() // want `Region lock r.mu acquired while holding log-pipeline lock e.pipe.mu`
	r.data[0] = 1
	r.mu.Unlock()
}

func goodOrder(e *Engine, r *Region) {
	r.mu.Lock()
	e.pipe.mu.Lock()
	r.data[0] = 1
	e.pipe.mu.Unlock()
	r.mu.Unlock()
}

// Forcing under a Region lock is Rule B like any other mutex: the
// committer releases its region locks before the force.
func badRegionForce(e *Engine, r *Region) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return e.log.Force() // want `Log.Force called while holding r.mu`
}

// A goroutine does not hold the spawner's locks.
func spawnOK(s *store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		_ = s.f.Sync()
	}()
}

// The suppression directive waives a named analyzer on the next line.
func allowed(s *store) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//rvmcheck:allow locksync -- exercising the directive itself
	return s.f.Sync()
}

// A sync reached through a chain of helpers is charged at the call site
// via the whole-program summaries.
func persistStatus(f *os.File) error {
	return f.Sync()
}

func setHeadHelper(s *store) error {
	return persistStatus(s.f)
}

func badTransitive(s *store) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return setHeadHelper(s) // want `performs a device sync \(via`
}

func goodTransitive(s *store) error {
	s.mu.Lock()
	s.mu.Unlock()
	return setHeadHelper(s)
}

// Interface dispatch: the call site is charged with the effects of
// every loaded implementer.
type syncer interface {
	persist() error
}

type fileSyncer struct {
	f *os.File
}

func (fs *fileSyncer) persist() error {
	return fs.f.Sync()
}

func badDispatch(s *store, sy syncer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sy.persist() // want `performs a device sync \(via`
}

// The engine's instrumented locks are obs.Mutex, whose Lock is a module
// method, not sync's: it must still be tracked as held.  (A helper taking
// a *sync.Mutex would pass every rule silently — the walkers would simply
// stop seeing the lock.)
type obsPipe struct {
	mu obs.Mutex
	f  *os.File
}

func badObsMutex(p *obsPipe) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.f.Sync() // want `Sync called while holding p.mu`
}

func goodObsMutex(p *obsPipe) error {
	p.mu.Lock()
	f := p.f
	p.mu.Unlock()
	return f.Sync()
}
