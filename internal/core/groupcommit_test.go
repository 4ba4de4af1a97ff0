package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rvm-go/rvm/internal/iofault"
	"github.com/rvm-go/rvm/internal/obs"
)

// TestGroupCommitSingleCommitter: with nobody to share a force with, a
// group-commit engine still forces before acknowledging — a lone committer
// leads its own force and the commit survives a crash.
func TestGroupCommitSingleCommitter(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{GroupCommit: true})
	r := v.mapWhole()
	v.commit1(r, 0, []byte("alone"))
	st := v.eng.Stats()
	if st.LogForces == 0 {
		t.Fatal("group-commit engine acknowledged a flush commit without any force")
	}
	v.reopen(Options{})
	r2 := v.mapWhole()
	if got := r2.Data()[0:5]; !bytes.Equal(got, []byte("alone")) {
		t.Fatalf("recovered %q, want %q", got, "alone")
	}
}

// TestEveryFlushCommitHasARole: every flush commit takes a force ticket, so
// without the join window too each one is filed as the leader or a
// follower of the force that covered it.
func TestEveryFlushCommitHasARole(t *testing.T) {
	met := obs.NewMetrics()
	v := newEnv(t, 1<<20, pageBytes(2), Options{Metrics: met, TruncateThreshold: -1})
	r := v.mapWhole()
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				if err := flushCommit(v.eng, r, int64(w)*64, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	sn := met.Snapshot()
	leaders, followers := sn.PhaseGCLeaderNs.Count, sn.PhaseGCFollowerNs.Count
	if n := v.eng.Stats().FlushCommits; n != 40 || leaders+followers != n {
		t.Fatalf("%d leaders + %d followers, want the %d flush commits", leaders, followers, n)
	}
}

// holdFirstSync makes the next Sync through inj wait until n writes have
// reached it since this call — n committers appended behind the first
// force — or a second has passed.  The first force covers only what was
// appended before it started, so the n-1 committers behind it share the
// next one, on any host and without a timed batching window.
func holdFirstSync(inj *iofault.Injector, n int64) {
	var writes atomic.Int64
	var held atomic.Bool
	inj.SetHook(func(op iofault.Op, _ int64, _ int) {
		switch {
		case op == iofault.OpWrite:
			writes.Add(1)
		case op == iofault.OpSync && held.CompareAndSwap(false, true):
			for deadline := time.Now().Add(time.Second); writes.Load() < n && time.Now().Before(deadline); {
				time.Sleep(50 * time.Microsecond)
			}
		}
	})
}

// TestGroupCommitConcurrent drives many goroutines through the group-commit
// path: every commit must be acknowledged, every acknowledged value must
// survive a crash, and the force count must show sharing (fewer fsyncs than
// commits).  The first force is held until every worker has appended, so
// the batching does not depend on how cheap the host's fsync is.
func TestGroupCommitConcurrent(t *testing.T) {
	const workers = 8
	const commitsEach = 6
	v, err := newFaultEnv(t, 1<<20, pageBytes(2), 1, false, nil, nil, Options{
		GroupCommit:       true,
		TruncateThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := v.mapWhole()
	holdFirstSync(v.logInj, workers)

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < commitsEach; i++ {
				tx, err := v.eng.Begin(Restore)
				if err != nil {
					errs[w] = err
					return
				}
				// Disjoint 64-byte slots: RVM does not serialize
				// transactions, so concurrent writers must not overlap.
				payload := []byte(fmt.Sprintf("w%02d-i%02d", w, i))
				if err := tx.Modify(r, int64(w)*64, payload); err != nil {
					errs[w] = err
					return
				}
				if err := tx.Commit(Flush); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	st := v.eng.Stats()
	if st.FlushCommits != workers*commitsEach {
		t.Fatalf("FlushCommits = %d, want %d", st.FlushCommits, workers*commitsEach)
	}
	if st.LogForces >= st.FlushCommits {
		t.Fatalf("no force sharing: %d forces for %d commits", st.LogForces, st.FlushCommits)
	}
	if st.ForcesSaved == 0 {
		t.Fatal("ForcesSaved = 0, want > 0")
	}
	if st.GroupCommitSize < 2 {
		t.Fatalf("GroupCommitSize = %d, want >= 2", st.GroupCommitSize)
	}

	// Crash and recover: every acknowledged final value must be present.
	v.reopen(Options{})
	r2 := v.mapWhole()
	for w := 0; w < workers; w++ {
		want := []byte(fmt.Sprintf("w%02d-i%02d", w, commitsEach-1))
		got := r2.Data()[int64(w)*64 : int64(w)*64+int64(len(want))]
		if !bytes.Equal(got, want) {
			t.Fatalf("worker %d: recovered %q, want %q", w, got, want)
		}
	}
}

// TestGroupCommitWithSpoolAndTruncation mixes group-commit flush
// transactions with no-flush spooling and explicit truncation, checking the
// paths compose: spool drains keep commit order ahead of flush commits, and
// every caller's ticket — a commit's, Flush's, a truncation's — is
// satisfied by whichever force covers it.
func TestGroupCommitWithSpoolAndTruncation(t *testing.T) {
	const workers = 4
	v := newEnv(t, 1<<20, pageBytes(2), Options{
		GroupCommit: true,
		Incremental: true,
	})
	r := v.mapWhole()

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				tx, err := v.eng.Begin(NoRestore)
				if err != nil {
					errs[w] = err
					return
				}
				payload := []byte(fmt.Sprintf("W%d#%d", w, i))
				if err := tx.Modify(r, int64(w)*64, payload); err != nil {
					errs[w] = err
					return
				}
				mode := Flush
				if i%2 == 1 {
					mode = NoFlush
				}
				if err := tx.Commit(mode); err != nil {
					errs[w] = err
					return
				}
				if i == 2 {
					if err := v.eng.Truncate(); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if err := v.eng.Flush(); err != nil {
		t.Fatal(err)
	}
	v.reopen(Options{})
	r2 := v.mapWhole()
	for w := 0; w < workers; w++ {
		want := []byte(fmt.Sprintf("W%d#4", w))
		got := r2.Data()[int64(w)*64 : int64(w)*64+int64(len(want))]
		if !bytes.Equal(got, want) {
			t.Fatalf("worker %d: recovered %q, want %q", w, got, want)
		}
	}
}

// TestGroupCommitOrderPreserved: a group-commit engine must keep the
// append-order semantics a serialized engine has — a later commit to the
// same bytes wins after recovery, even when both commits shared a force.
func TestGroupCommitOrderPreserved(t *testing.T) {
	v := newEnv(t, 1<<18, pageBytes(2), Options{GroupCommit: true})
	r := v.mapWhole()
	for i := 0; i < 10; i++ {
		v.commit1(r, 0, []byte(fmt.Sprintf("gen-%03d", i)))
	}
	v.reopen(Options{})
	r2 := v.mapWhole()
	if got := r2.Data()[0:7]; !bytes.Equal(got, []byte("gen-009")) {
		t.Fatalf("recovered %q, want last committed generation", got)
	}
}

// sleepLog is an Injector hook that makes a log device's Sync cost a fixed
// sleep, served one call at a time, as one disk arm would; the device is in
// memory.  On it the
// number of forces, not the host's fsync, sets what a flush commit costs,
// so batching shows up in time as well as in counts.
type sleepLog struct {
	cost time.Duration
	born time.Time
	arm  sync.Mutex
	busy atomic.Int64 // ns spent in the sleeps
	last atomic.Int64 // ns the latest sleep took
	done atomic.Int64 // ns after born the latest sleep ended
}

func (d *sleepLog) hook(op iofault.Op, _ int64, _ int) {
	if op != iofault.OpSync {
		return
	}
	d.arm.Lock()
	defer d.arm.Unlock()
	t0 := time.Now()
	time.Sleep(d.cost)
	ns := time.Since(t0).Nanoseconds()
	d.busy.Add(ns)
	d.last.Store(ns)
	d.done.Store(time.Since(d.born).Nanoseconds())
}

// sinceSync is how long ago the latest Sync returned.
func (d *sleepLog) sinceSync() time.Duration {
	return time.Since(d.born) - time.Duration(d.done.Load())
}

// newSleepEngine opens an engine on a 1 ms sleepLog and maps a two-page
// region.
func newSleepEngine(tb testing.TB, group bool) (*Engine, *Region, *sleepLog) {
	tb.Helper()
	dir := tb.TempDir()
	logPath, segPath := filepath.Join(dir, "log.rvm"), filepath.Join(dir, "seg.rvm")
	if err := CreateLog(logPath, 8<<20); err != nil {
		tb.Fatal(err)
	}
	if err := CreateSegment(segPath, 1, pageBytes(2)); err != nil {
		tb.Fatal(err)
	}
	mem, err := iofault.ReadMem(logPath)
	if err != nil {
		tb.Fatal(err)
	}
	dev := &sleepLog{cost: time.Millisecond, born: time.Now()}
	inj := iofault.NewInjector(mem, 1) // the sleep is the whole Sync
	inj.SetHook(dev.hook)
	eng, err := Open(Options{LogPath: logPath, LogDevice: inj, GroupCommit: group, TruncateThreshold: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { eng.Close() })
	r, err := eng.Map(segPath, 0, pageBytes(2))
	if err != nil {
		tb.Fatal(err)
	}
	return eng, r, dev
}

// flushCommit writes a committer's 8-byte slot at off in one flush
// transaction; before, if not nil, runs between Begin and Commit.
func flushCommit(eng *Engine, r *Region, off int64, before func()) error {
	tx, err := eng.Begin(NoRestore)
	if err != nil {
		return err
	}
	if before != nil {
		before()
	}
	if err := tx.Modify(r, off, []byte("slot-val")); err != nil {
		return err
	}
	return tx.Commit(Flush)
}

// TestGroupCommitKeepsItsBatch: of two committers, one spends 100 µs of
// processor between Begin and Commit — later than the leader's two idle
// yields, well inside half a force.  The join window must wait for it, so
// the two share every force instead of leading in turn.  (At 50 µs the
// yields alone still caught it in about half the runs.)  A commit that
// reaches Commit more than 400 µs after the latest force returned was
// kept off the processor, by another process, past what the window can
// wait for, and is allowed a force of its own.
func TestGroupCommitKeepsItsBatch(t *testing.T) {
	const each = 200
	eng, r, dev := newSleepEngine(t, true)
	var late atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spin := time.Duration(w) * 100 * time.Microsecond
			work := func() {
				for t0 := time.Now(); time.Since(t0) < spin; {
				}
				if dev.sinceSync() > 400*time.Microsecond {
					late.Add(1)
				}
			}
			for range each {
				if errs[w] = flushCommit(eng, r, int64(w)*64, work); errs[w] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("committer %d: %v", w, err)
		}
	}
	st := eng.Stats()
	if st.FlushCommits != 2*each {
		t.Fatalf("FlushCommits = %d, want %d", st.FlushCommits, 2*each)
	}
	if late.Load() > each/4 {
		t.Skipf("%d of %d commits were kept off the processor: too busy a host to tell", late.Load(), 2*each)
	}
	if limit := 0.55*float64(st.FlushCommits) + float64(late.Load()); float64(st.LogForces) > limit {
		t.Fatalf("%d forces for %d commits, %d of them late (%.3f a commit, want ≤ 0.55 + late): the leaders alternate",
			st.LogForces, st.FlushCommits, late.Load(), float64(st.LogForces)/float64(st.FlushCommits))
	}
	t.Logf("%d forces for %d commits, %d late", st.LogForces, st.FlushCommits, late.Load())
}

// TestGroupCommitWaitIsBounded: the join window's wait costs a lone
// committer nothing, and a committer whose peer has stopped at most one
// wait of half a force, after which its commits cost one force again.
func TestGroupCommitWaitIsBounded(t *testing.T) {
	const slack = 300 * time.Microsecond
	eng, r, dev := newSleepEngine(t, true)
	// beyond is how much longer than the syncs it waited on one commit
	// takes when no other committer is running.
	beyond := func() time.Duration {
		t.Helper()
		busy, t0 := dev.busy.Load(), time.Now()
		if err := flushCommit(eng, r, 0, nil); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0) - time.Duration(dev.busy.Load()-busy)
	}
	for i := range 10 {
		if d := beyond(); d > slack {
			t.Fatalf("lone committer: commit %d took %v beyond its force", i, d)
		}
	}
	if n := eng.Stats().JoinExpired; n != 0 {
		t.Fatalf("lone committer: %d join waits ran out, want 0", n)
	}

	stop, done := make(chan struct{}), make(chan error, 1) // the peer's one send never blocks
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := flushCommit(eng, r, 64, nil); err != nil {
				done <- err
				return
			}
		}
	}()
	for range 50 {
		if err := flushCommit(eng, r, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	expired := eng.Stats().JoinExpired
	half := time.Duration(dev.last.Load() / 2)
	if d := beyond(); d > half+slack {
		t.Fatalf("first commit after the peer stopped took %v beyond its force, want ≤ %v + %v", d, half, slack)
	}
	for i := range 10 {
		if d := beyond(); d > slack {
			t.Fatalf("commit %d after the peer stopped took %v beyond its force, want ≤ %v", i+2, d, slack)
		}
	}
	if n := eng.Stats().JoinExpired - expired; n > 1 {
		t.Fatalf("%d join waits ran out after the peer stopped, want ≤ 1", n)
	}
}

// BenchmarkForcePaths compares flush commits through the force ticket
// without and with the join window (GroupCommit) at 1, 2, 8 and 64
// committers on a log whose Sync sleeps 1 ms one call at a time.  b.N is
// the number of commits, shared among the committers.
func BenchmarkForcePaths(b *testing.B) {
	for _, path := range []struct {
		name  string
		group bool
	}{{"nowindow", false}, {"window", true}} {
		for _, n := range []int{1, 2, 8, 64} {
			b.Run(fmt.Sprintf("%s/committers=%d", path.name, n), func(b *testing.B) {
				eng, r, _ := newSleepEngine(b, path.group)
				before := eng.Stats()
				var left atomic.Int64
				left.Store(int64(b.N))
				var wg sync.WaitGroup
				b.ResetTimer()
				for w := range n {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for left.Add(-1) >= 0 {
							if err := flushCommit(eng, r, int64(w)*64, nil); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				st := eng.Stats()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tx/s")
				b.ReportMetric(float64(st.LogForces-before.LogForces)/float64(st.FlushCommits-before.FlushCommits), "forces/commit")
			})
		}
	}
}
