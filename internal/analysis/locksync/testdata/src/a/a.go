// Golden cases for the locksync analyzer.
package a

import (
	"os"
	"sync"
	"time"

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
	mu  sync.Mutex
	log *wal.Log
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

type Region struct {
	mu   sync.Mutex
	data []byte
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

// Locks taken and released by helpers, as the commit path's region locks
// are (Tx.lockRegions, Tx.unlockRegions): a force between the two calls
// runs under the locks the first one left held.
type tx struct {
	e       *Engine
	regions []*Region
}

func (t *tx) lockRegions() {
	for _, r := range t.regions {
		r.mu.Lock()
	}
}

func (t *tx) unlockRegions() {
	for _, r := range t.regions {
		r.mu.Unlock()
	}
}

func badHelperLock(t *tx) error {
	t.lockRegions()
	if err := retry(t.e.log.Force); err != nil { // want `Log.Force called while holding a.Region.mu`
		t.unlockRegions()
		return err
	}
	t.unlockRegions()
	return nil
}

func goodHelperLock(t *tx) error {
	t.lockRegions()
	t.regions[0].data[0] = 1
	t.unlockRegions()
	return retry(t.e.log.Force)
}

// Rule C: a sleep under a lock of the engine's hierarchy (the test's table
// holds Engine.mu and Region.mu), directly or through a helper.
func badSleep(r *Region) {
	r.mu.Lock()
	defer r.mu.Unlock()
	time.Sleep(time.Millisecond) // want `time.Sleep called while holding r.mu`
}

func (e *Engine) backoff(retries int) {
	time.Sleep(time.Millisecond << retries)
}

func (e *Engine) retryWrite(r *Region, write func() error) error {
	err := write()
	for retries := 0; err != nil && retries < 3; retries++ {
		e.backoff(retries)
		err = write()
	}
	return err
}

func (e *Engine) badRetryUnderRegion(r *Region) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return e.retryWrite(r, func() error { return nil }) // want `call to retryWrite sleeps \(via \(\*Engine\)\.backoff → time.Sleep\)`
}

func (e *Engine) goodRetryUnlocked(r *Region) error {
	r.mu.Lock()
	r.data[0] = 1
	r.mu.Unlock()
	return e.retryWrite(r, func() error { return nil })
}

// A lock outside the hierarchy may be slept under: a modelled device
// serves one sync at a time that way.
func sleepUnderDeviceLock(s *store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond)
}
