package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/rvm-go/rvm/internal/iofault"
)

// TestCheckpointBoundsRecoveryScan is the acceptance check for fuzzy
// checkpoints: after a checkpoint, a crash's recovery scans only the log
// suffix written since, not the whole live log — even with truncation
// disabled.
func TestCheckpointBoundsRecoveryScan(t *testing.T) {
	v := newEnv(t, 1<<18, pageBytes(2), Options{TruncateThreshold: -1})
	r := v.mapWhole()
	payload := bytes.Repeat([]byte{'p'}, 512)
	for i := 0; i < 40; i++ {
		v.commit1(r, int64(i%4)*512, payload)
	}
	if err := v.eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := v.eng.Stats()
	if st.Checkpoints != 1 || st.CheckpointPages == 0 {
		t.Fatalf("checkpoint stats: runs=%d pages=%d", st.Checkpoints, st.CheckpointPages)
	}
	// A handful of post-checkpoint commits are all recovery should replay.
	v.commit1(r, 0, []byte("after-checkpoint"))
	v.commit1(r, 4096, []byte("second-page"))

	v.reopen(Options{TruncateThreshold: -1})
	st = v.eng.Stats()
	if st.RecoveryScanned == 0 {
		t.Fatal("reopen reported no scanned bytes")
	}
	// 40 ×512B commits ≈ 23 KiB of live log; the bounded scan covers only
	// the two post-checkpoint records plus the checkpoint record itself.
	if st.RecoveryScanned > 4096 {
		t.Fatalf("recovery scanned %d bytes; checkpoint did not bound the scan", st.RecoveryScanned)
	}
	r2 := v.mapWhole()
	if got := r2.Data()[:16]; !bytes.Equal(got, []byte("after-checkpoint")) {
		t.Fatalf("post-checkpoint commit lost: %q", got)
	}
	if got := r2.Data()[4096 : 4096+11]; !bytes.Equal(got, []byte("second-page")) {
		t.Fatalf("post-checkpoint commit lost: %q", got)
	}
	// Pre-checkpoint state must have come from the segment.
	if got := r2.Data()[512:1024]; !bytes.Equal(got, payload) {
		t.Fatal("pre-checkpoint commit lost")
	}
}

// TestCheckpointIdempotentWhenClean: checkpoints with nothing new to
// stabilize must succeed without appending more checkpoint records.
func TestCheckpointIdempotentWhenClean(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{TruncateThreshold: -1})
	r := v.mapWhole()
	if err := v.eng.Checkpoint(); err != nil { // empty log: trivially fine
		t.Fatal(err)
	}
	v.commit1(r, 0, []byte("x"))
	for i := 0; i < 3; i++ {
		if err := v.eng.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if st := v.eng.Stats(); st.Checkpoints != 4 {
		t.Fatalf("checkpoint runs = %d", st.Checkpoints)
	}
	// Only the first post-commit checkpoint had progress to record.
	ls := v.eng.log.Stats()
	if ls.Checkpoints != 1 {
		t.Fatalf("checkpoint records appended = %d, want 1", ls.Checkpoints)
	}
}

// TestCrashDuringCheckpointProperty injects permanent (optionally torn)
// write faults on the segment device — the fuzzy checkpoint's write path —
// and crashes the engine mid-checkpoint.  Whatever the checkpoint managed
// to do before failing, recovery on the real device must reproduce exactly
// the acknowledged state: checkpoint page write-out is redo of committed
// data, so a torn or partial write-out is always repaired by replay.
func TestCrashDuringCheckpointProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		v, err := newFaultEnv(t, 1<<17, pageBytes(4), int64(trial),
			nil, nil, Options{TruncateThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		r, err := v.eng.Map(v.segPath, 0, pageBytes(4))
		if err != nil {
			t.Fatal(err)
		}
		shadow := make([]byte, pageBytes(4))
		for i := 1; i <= 12; i++ {
			off := int64(rng.Intn(int(pageBytes(4)) - 300))
			data := bytes.Repeat([]byte{byte(i)}, 1+rng.Intn(250))
			v.commit1(r, off, data)
			copy(shadow[off:], data)
		}
		// Arm the fault now, so only the checkpoint's segment writes (and
		// sync) see it; the setup commits above touched only the log.
		v.segInj.Add(iofault.Fault{
			Ops:      iofault.OpWrite | iofault.OpSync,
			After:    rng.Intn(4),
			Count:    -1,
			Torn:     rng.Intn(2) == 0,
			TornFrac: rng.Float64(),
		})
		ckErr := v.eng.Checkpoint()
		if ckErr == nil && v.segInj.Stats().Faults > 0 {
			t.Fatalf("trial %d: checkpoint swallowed injected faults", trial)
		}
		// Crash and restart on the real files.
		v.reopen(Options{TruncateThreshold: -1})
		r2, err := v.eng.Map(v.segPath, 0, pageBytes(4))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r2.Data(), shadow) {
			t.Fatalf("trial %d: recovered state differs from acknowledged (checkpoint err: %v)",
				trial, ckErr)
		}
		v.eng.Close()
		v.eng = nil
	}
}

// TestCheckpointConcurrentCommitters runs explicit checkpoints against a
// storm of flush and no-flush committers; under -race this is the
// checkpoint/commit interleaving check.  Every acknowledged value must
// survive a crash that happens after the last checkpoint.
func TestCheckpointConcurrentCommitters(t *testing.T) {
	const workers = 4
	const commits = 40
	v := newEnv(t, 1<<19, pageBytes(workers), Options{TruncateThreshold: -1})
	r, err := v.eng.Map(v.segPath, 0, pageBytes(workers))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := pageBytes(w) // one page per worker: no write overlap
			for i := 1; i <= commits; i++ {
				tx, err := v.eng.Begin(NoRestore)
				if err != nil {
					errs[w] = err
					return
				}
				if err := tx.Modify(r, base, []byte(fmt.Sprintf("w%d-%04d", w, i))); err != nil {
					errs[w] = err
					return
				}
				mode := Flush
				if i%2 == 0 {
					mode = NoFlush
				}
				if err := tx.Commit(mode); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	ckpts := 0
	for {
		if err := v.eng.Checkpoint(); err != nil {
			t.Error(err)
			break
		}
		ckpts++
		select {
		case <-done:
		default:
			continue
		}
		break
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if ckpts == 0 {
		t.Fatal("no checkpoints ran")
	}
	// Make the tail durable, then crash: every worker's final value is
	// acknowledged and must be recovered.
	if err := v.eng.Flush(); err != nil {
		t.Fatal(err)
	}
	v.reopen(Options{TruncateThreshold: -1})
	r2, err := v.eng.Map(v.segPath, 0, pageBytes(workers))
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		want := fmt.Sprintf("w%d-%04d", w, commits)
		got := string(r2.Data()[pageBytes(w) : pageBytes(w)+int64(len(want))])
		if got != want {
			t.Fatalf("worker %d: recovered %q, want %q", w, got, want)
		}
	}
}

// TestBackgroundCheckpointer: Options.CheckpointInterval runs checkpoints
// on its own, and Close stops the loop cleanly.
func TestBackgroundCheckpointer(t *testing.T) {
	v := newEnv(t, 1<<17, pageBytes(2), Options{
		TruncateThreshold:  -1,
		CheckpointInterval: 2 * time.Millisecond,
	})
	r := v.mapWhole()
	deadline := time.Now().Add(2 * time.Second)
	for v.eng.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background checkpointer never ran")
		}
		v.commit1(r, 0, []byte("tick"))
		time.Sleep(time.Millisecond)
	}
	if err := v.eng.Close(); err != nil {
		t.Fatal(err)
	}
	v.eng = nil
}
