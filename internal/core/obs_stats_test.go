package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/rvm-go/rvm/internal/iofault"
)

// TestStatsRaceWithTruncation hammers Stats and Snapshot while commits,
// truncations, and fault-driven retries run concurrently.  Stats merges
// three counter domains — the engine's lock-free atomic counters, the
// WAL's counters, and the group-commit tallies — and this test is the
// -race witness that the merge is sound, including the load ordering
// that keeps commits <= begins in every snapshot.
func TestStatsRaceWithTruncation(t *testing.T) {
	v, err := newFaultEnv(t, 1<<20, pageBytes(2), 42, false,
		[]iofault.Fault{{Ops: iofault.OpSync, Count: 1 << 30, Prob: 0.05}}, nil,
		Options{
			Incremental:       true,
			TruncateThreshold: -1,
		})
	if err != nil {
		t.Fatal(err)
	}
	r := v.mapWhole()

	const workers = 4
	const commitsEach = 25
	var wg sync.WaitGroup
	errs := make([]error, workers)
	done := make(chan struct{})
	// committed closes once some commit has landed (or a worker gave up).
	committed := make(chan struct{})
	var once sync.Once
	landed := func() { once.Do(func() { close(committed) }) }

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer landed()
			for i := 0; i < commitsEach; i++ {
				tx, err := v.eng.Begin(NoRestore)
				if err != nil {
					errs[w] = err
					return
				}
				payload := []byte(fmt.Sprintf("w%d#%02d", w, i))
				if err := tx.Modify(r, int64(w)*64, payload); err != nil {
					errs[w] = err
					return
				}
				mode := Flush
				if i%3 == 0 {
					mode = NoFlush
				}
				if err := tx.Commit(mode); err != nil {
					errs[w] = err
					return
				}
				landed()
			}
		}(w)
	}

	// Truncator: whole and partial truncations race the committers,
	// bumping the atomic retries counter outside e.mu when the injector
	// fires on a truncation force.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-committed
		for i := 0; i < 6; i++ {
			var err error
			if i%2 == 0 {
				err = v.eng.Truncate()
			} else {
				err = v.eng.TruncateIncremental(0)
			}
			if err != nil {
				errs[0] = err
				return
			}
		}
	}()

	// Pollers: read the counters as fast as possible while all of the
	// above runs.
	var pollers sync.WaitGroup
	for p := 0; p < 2; p++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st := v.eng.Stats()
				if st.FlushCommits+st.NoFlushCommits > st.Begins {
					t.Error("stats snapshot internally inconsistent: more commits than begins")
					return
				}
				if _, err := v.eng.Snapshot(); err != nil {
					t.Errorf("Snapshot during load: %v", err)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(done)
	pollers.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	// Every truncation started after a commit had queued its page, and
	// only the truncator cleans: each one wrote a page or fell back.
	if st := v.eng.Stats(); st.IncrSteps+st.EpochTruncs == 0 {
		t.Fatal("the truncations during the race recorded no work")
	}

	// Deterministic retry tail: a sync fault that clears after two
	// failures guarantees the atomic counter is nonzero even if the
	// probabilistic faults above never fired.
	v.logInj.Add(iofault.Fault{Ops: iofault.OpSync, Count: 2})
	v.commit1(r, int64(workers)*64, []byte("tail"))

	st := v.eng.Stats()
	if st.Retries < 2 {
		t.Fatalf("Retries = %d, want >= 2", st.Retries)
	}
	if st.FlushCommits+st.NoFlushCommits != workers*commitsEach+1 {
		t.Fatalf("commits = %d flush + %d noflush, want %d total",
			st.FlushCommits, st.NoFlushCommits, workers*commitsEach+1)
	}
}

// TestGroupCommitStatsSweep reuses one group-commit engine across a
// 1..64-goroutine contention sweep and checks the force accounting after
// every round: each flush commit either led at least one force (counted
// in LogForces) or was acknowledged by someone else's (ForcesSaved), so
// FlushCommits <= ForcesSaved + LogForces always holds; and
// GroupCommitSize — the largest batch one force ever covered — never
// decreases as contention grows.
func TestGroupCommitStatsSweep(t *testing.T) {
	v := newEnv(t, 1<<22, pageBytes(2), Options{
		GroupCommit:       true,
		TruncateThreshold: -1,
	})
	r := v.mapWhole()

	const commitsEach = 3
	var wantFlush uint64
	var prevMax uint64
	for _, workers := range []int{1, 2, 4, 8, 16, 32, 64} {
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < commitsEach; i++ {
					tx, err := v.eng.Begin(NoRestore)
					if err != nil {
						errs[w] = err
						return
					}
					payload := []byte(fmt.Sprintf("s%02d", w))
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
				t.Fatalf("%d workers, worker %d: %v", workers, w, err)
			}
		}

		wantFlush += uint64(workers) * commitsEach
		st := v.eng.Stats()
		if st.FlushCommits != wantFlush {
			t.Fatalf("%d workers: FlushCommits = %d, want %d", workers, st.FlushCommits, wantFlush)
		}
		if st.FlushCommits > st.ForcesSaved+st.LogForces {
			t.Fatalf("%d workers: accounting identity broken: %d commits > %d saved + %d forces",
				workers, st.FlushCommits, st.ForcesSaved, st.LogForces)
		}
		if st.ForcesSaved >= st.FlushCommits {
			t.Fatalf("%d workers: ForcesSaved = %d >= FlushCommits = %d (someone must lead)",
				workers, st.ForcesSaved, st.FlushCommits)
		}
		if st.GroupCommitSize < prevMax {
			t.Fatalf("%d workers: GroupCommitSize shrank: %d -> %d",
				workers, prevMax, st.GroupCommitSize)
		}
		prevMax = st.GroupCommitSize
	}

	st := v.eng.Stats()
	if st.GroupCommitSize < 2 {
		t.Fatalf("GroupCommitSize = %d after 64-way contention, want >= 2", st.GroupCommitSize)
	}
	if st.ForcesSaved == 0 {
		t.Fatal("ForcesSaved = 0 after 64-way contention, want > 0")
	}
}

// TestForceCountersCountFlushCommitsOnly: Flush and truncation force the
// log through the same ticket as a flush commit, and a Flush can ride
// another's force, but ForcesSaved, GroupCommitSize and JoinExpired count
// flush commits only.  Workers that commit no-flush and call Flush and
// Truncate, with no flush commit at all, leave all three at zero.
func TestForceCountersCountFlushCommitsOnly(t *testing.T) {
	const workers, iters = 4, 24
	v := newEnv(t, 1<<20, pageBytes(2), Options{GroupCommit: true, TruncateThreshold: -1})
	r := v.mapWhole()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range iters {
				tx, err := v.eng.Begin(NoRestore)
				if err == nil {
					err = tx.Modify(r, int64(w)*64, []byte(fmt.Sprintf("w%d-%02d", w, i)))
				}
				if err == nil {
					err = tx.Commit(NoFlush)
				}
				if err == nil && i%3 == 1 {
					err = v.eng.Flush()
				}
				if err == nil && i%8 == 7 {
					err = v.eng.Truncate()
				}
				if errs[w] = err; err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	st := v.eng.Stats()
	if st.FlushCommits != 0 || st.LogForces == 0 {
		t.Fatalf("%d flush commits and %d forces; want none and some", st.FlushCommits, st.LogForces)
	}
	if st.ForcesSaved != 0 || st.GroupCommitSize != 0 || st.JoinExpired != 0 {
		t.Fatalf("ForcesSaved %d, GroupCommitSize %d, JoinExpired %d with no flush commit; want 0, 0, 0",
			st.ForcesSaved, st.GroupCommitSize, st.JoinExpired)
	}
}
