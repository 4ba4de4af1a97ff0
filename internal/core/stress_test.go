package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentStress is the -race witness for the decomposed lock
// hierarchy: workers run full transaction lifecycles on private regions —
// so the hot path shares no Region lock — while background truncation,
// explicit truncations, and Stats/Query/Snapshot pollers run against the
// same engine.  Afterwards the cumulative counters must satisfy the exact
// identities a single-lock engine would have produced, and a clean
// close + reopen must recover every worker's last committed write.
func TestConcurrentStress(t *testing.T) {
	const workers = 8
	const iters = 40
	opts := Options{
		TruncateThreshold: 0.5,
	}
	v := newEnv(t, 1<<22, pageBytes(2*workers), opts)

	regions := make([]*Region, workers)
	for w := range regions {
		r, err := v.eng.Map(v.segPath, pageBytes(2*w), pageBytes(2))
		if err != nil {
			t.Fatal(err)
		}
		regions[w] = r
	}

	// Deterministic per-worker schedule; every iteration is one
	// transaction.  i%5 == 0 aborts, i%5 == 1 flush-commits, the rest
	// no-flush-commit; even iterations use SetRange + direct store, odd
	// ones Modify.  Restore mode except on no-flush iterations divisible
	// by 3 (aborting iterations must be Restore).
	type tally struct {
		setRanges, aborts, flush, noflush uint64
		last                              []byte
	}
	want := make([]tally, workers)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := regions[w]
			for i := 0; i < iters; i++ {
				mode := Restore
				if i%5 > 1 && i%3 == 0 {
					mode = NoRestore
				}
				tx, err := v.eng.Begin(mode)
				if err != nil {
					errs[w] = err
					return
				}
				payload := []byte(fmt.Sprintf("w%02d-i%03d", w, i))
				off := int64(64)
				if i%2 == 0 {
					if err := tx.SetRange(r, off, int64(len(payload))); err != nil {
						errs[w] = err
						return
					}
					copy(r.data[off:], payload)
				} else {
					if err := tx.Modify(r, off, payload); err != nil {
						errs[w] = err
						return
					}
				}
				want[w].setRanges++
				// A second, overlapping declaration exercises the
				// rangeset splice under concurrency.
				if err := tx.SetRange(r, off+8, 8); err != nil {
					errs[w] = err
					return
				}
				want[w].setRanges++
				switch {
				case i%5 == 0:
					if err := tx.Abort(); err != nil {
						errs[w] = err
						return
					}
					want[w].aborts++
				case i%5 == 1:
					if err := tx.Commit(Flush); err != nil {
						errs[w] = err
						return
					}
					want[w].flush++
					want[w].last = payload
				default:
					if err := tx.Commit(NoFlush); err != nil {
						errs[w] = err
						return
					}
					want[w].noflush++
					want[w].last = payload
				}
			}
		}(w)
	}

	// Explicit truncations race the committers on top of the automatic
	// threshold-driven ones.
	done := make(chan struct{})
	var aux sync.WaitGroup
	truncErrs := make([]error, 1)
	aux.Add(1)
	go func() {
		defer aux.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			var err error
			if i%2 == 0 {
				err = v.eng.Truncate()
			} else {
				err = v.eng.TruncateIncremental(0)
			}
			if err != nil {
				truncErrs[0] = err
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Pollers assert the snapshot identity continuously: resolutions
	// (commits + aborts) never exceed begins in any Stats snapshot.
	for p := 0; p < 2; p++ {
		aux.Add(1)
		go func() {
			defer aux.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st := v.eng.Stats()
				if st.FlushCommits+st.NoFlushCommits+st.Aborts > st.Begins {
					t.Error("snapshot inconsistent: resolved transactions exceed begins")
					return
				}
				if _, err := v.eng.Query(regions[0]); err != nil {
					t.Errorf("Query during load: %v", err)
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
	aux.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if truncErrs[0] != nil {
		t.Fatalf("truncator: %v", truncErrs[0])
	}

	var total tally
	for w := range want {
		total.setRanges += want[w].setRanges
		total.aborts += want[w].aborts
		total.flush += want[w].flush
		total.noflush += want[w].noflush
	}
	st := v.eng.Stats()
	if st.Begins != workers*iters {
		t.Fatalf("Begins = %d, want %d", st.Begins, workers*iters)
	}
	if st.FlushCommits+st.NoFlushCommits+st.Aborts != st.Begins {
		t.Fatalf("identity broken: %d flush + %d noflush + %d aborts != %d begins",
			st.FlushCommits, st.NoFlushCommits, st.Aborts, st.Begins)
	}
	if st.FlushCommits != total.flush || st.NoFlushCommits != total.noflush {
		t.Fatalf("commits = %d flush + %d noflush, want %d + %d",
			st.FlushCommits, st.NoFlushCommits, total.flush, total.noflush)
	}
	if st.Aborts != total.aborts {
		t.Fatalf("Aborts = %d, want %d", st.Aborts, total.aborts)
	}
	if st.SetRanges != total.setRanges {
		t.Fatalf("SetRanges = %d, want %d", st.SetRanges, total.setRanges)
	}
	qi, err := v.eng.Query(regions[0])
	if err != nil {
		t.Fatal(err)
	}
	if qi.ActiveTxs != 0 {
		t.Fatalf("ActiveTxs = %d after all workers joined", qi.ActiveTxs)
	}

	// Clean shutdown flushes the spool; a fresh engine must recover every
	// worker's last committed payload.
	if err := v.eng.Close(); err != nil {
		t.Fatal(err)
	}
	v.eng = nil
	v.reopen(opts)
	for w := range want {
		r, err := v.eng.Map(v.segPath, pageBytes(2*w), pageBytes(2))
		if err != nil {
			t.Fatal(err)
		}
		got := r.data[64 : 64+int64(len(want[w].last))]
		if !bytes.Equal(got, want[w].last) {
			t.Fatalf("worker %d: recovered %q, want %q", w, got, want[w].last)
		}
	}
}
