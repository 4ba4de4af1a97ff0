package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestEngineModel drives long random operation sequences against shadow
// copies of the three states RVM distinguishes:
//
//	mem       — what mapped memory should hold right now
//	committed — what memory would hold if every active tx aborted
//	durable   — what recovery must produce after a crash right now
//
// Every operation's effect on the three shadows is written down from the
// paper's semantics; any divergence in any state is a bug.  Crashes are
// exercised by reopening without Close; truncations (both kinds) and
// remaps are mixed in.
func TestEngineModel(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runEngineModelWithOpts(t, seed, Options{}) })
	}
}

func runEngineModelWithOpts(t *testing.T, seed int64, opts Options) {
	rng := rand.New(rand.NewSource(seed))
	v := newEnv(t, 1<<18, pageBytes(2), opts)
	regLen := pageBytes(2)
	reg := v.mapWhole()

	mem := make([]byte, regLen)
	committed := make([]byte, regLen)
	durable := make([]byte, regLen)
	snapshot := make([]byte, regLen) // mem at tx begin, for abort

	var tx *Tx
	check := func(step int, what string) {
		t.Helper()
		if reg != nil && !bytes.Equal(reg.Data(), mem) {
			t.Fatalf("step %d (%s): mapped memory diverged from model", step, what)
		}
	}

	steps := 800
	if testing.Short() {
		steps = 150
	}
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 35: // write inside a transaction
			if reg == nil {
				continue
			}
			if tx == nil {
				var err error
				tx, err = v.eng.Begin(Restore)
				if err != nil {
					t.Fatal(err)
				}
				copy(snapshot, mem)
			}
			off := rng.Int63n(regLen - 300)
			n := int64(1 + rng.Intn(256))
			data := make([]byte, n)
			rng.Read(data)
			if err := tx.Modify(reg, off, data); err != nil {
				t.Fatalf("step %d: modify: %v", step, err)
			}
			copy(mem[off:], data)
			check(step, "modify")

		case op < 55: // commit
			if tx == nil {
				continue
			}
			mode := Flush
			if rng.Intn(2) == 0 {
				mode = NoFlush
			}
			if err := tx.Commit(mode); err != nil {
				t.Fatalf("step %d: commit: %v", step, err)
			}
			tx = nil
			copy(committed, mem)
			if mode == Flush {
				// A flush commit drains the spool first, so everything
				// committed so far is durable.
				copy(durable, committed)
			}
			check(step, "commit")

		case op < 63: // abort
			if tx == nil {
				continue
			}
			if err := tx.Abort(); err != nil {
				t.Fatalf("step %d: abort: %v", step, err)
			}
			tx = nil
			copy(mem, snapshot)
			check(step, "abort")

		case op < 70: // explicit flush
			if err := v.eng.Flush(); err != nil {
				t.Fatalf("step %d: flush: %v", step, err)
			}
			copy(durable, committed)
			check(step, "flush")

		case op < 78: // truncation (either kind)
			var err error
			if rng.Intn(2) == 0 {
				err = v.eng.Truncate()
			} else {
				err = v.eng.TruncateIncremental(0)
			}
			if err != nil {
				t.Fatalf("step %d: truncate: %v", step, err)
			}
			// Truncation flushes the spool: everything committed is now
			// durable (and reflected in the segments).
			copy(durable, committed)
			check(step, "truncate")

		case op < 85: // unmap + remap
			if tx != nil || reg == nil {
				continue
			}
			if err := v.eng.Unmap(reg); err != nil {
				t.Fatalf("step %d: unmap: %v", step, err)
			}
			// Unmap flushes the spool and writes dirty pages.
			copy(durable, committed)
			reg = v.mapWhole()
			// A fresh mapping presents the committed image.
			copy(mem, committed)
			check(step, "remap")

		default: // crash + recover
			if tx != nil {
				// The crash implicitly aborts it.
				tx = nil
			}
			v.reopen(opts)
			reg = v.mapWhole()
			copy(mem, durable)
			copy(committed, durable)
			check(step, "crash")
		}
	}

	// Drain and do a final crash check.
	if tx != nil {
		if err := tx.Commit(Flush); err != nil {
			t.Fatal(err)
		}
		copy(committed, mem)
		copy(durable, committed)
	}
	if err := v.eng.Flush(); err != nil {
		t.Fatal(err)
	}
	copy(durable, committed)
	v.reopen(opts)
	reg = v.mapWhole()
	if !bytes.Equal(reg.Data(), durable) {
		t.Fatal("final recovered image diverged from durable model")
	}
}

// TestEngineModelTwoRegions runs a shorter model over two regions of the
// same segment to exercise multi-region transactions and per-region
// page-vector bookkeeping.
func TestEngineModelTwoRegions(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	v := newEnv(t, 1<<18, pageBytes(4), Options{})
	r1, err := v.eng.Map(v.segPath, 0, pageBytes(2))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := v.eng.Map(v.segPath, pageBytes(2), pageBytes(2))
	if err != nil {
		t.Fatal(err)
	}
	shadow1 := make([]byte, pageBytes(2))
	shadow2 := make([]byte, pageBytes(2))
	for step := 0; step < 200; step++ {
		tx, err := v.eng.Begin(Restore)
		if err != nil {
			t.Fatal(err)
		}
		o1, o2 := rng.Int63n(pageBytes(2)-64), rng.Int63n(pageBytes(2)-64)
		d1, d2 := make([]byte, 1+rng.Intn(48)), make([]byte, 1+rng.Intn(48))
		rng.Read(d1)
		rng.Read(d2)
		if err := tx.Modify(r1, o1, d1); err != nil {
			t.Fatal(err)
		}
		if err := tx.Modify(r2, o2, d2); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(5) == 0 {
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := tx.Commit(NoFlush); err != nil {
			t.Fatal(err)
		}
		copy(shadow1[o1:], d1)
		copy(shadow2[o2:], d2)
		if step%41 == 0 {
			if err := v.eng.TruncateIncremental(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := v.eng.Flush(); err != nil {
		t.Fatal(err)
	}
	v.reopen(Options{})
	ra, _ := v.eng.Map(v.segPath, 0, pageBytes(2))
	rb, _ := v.eng.Map(v.segPath, pageBytes(2), pageBytes(2))
	if !bytes.Equal(ra.Data(), shadow1) || !bytes.Equal(rb.Data(), shadow2) {
		t.Fatal("two-region recovery diverged from model")
	}
}
