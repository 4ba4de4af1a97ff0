package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"github.com/rvm-go/rvm/internal/iofault"
	"github.com/rvm-go/rvm/internal/segment"
	"github.com/rvm-go/rvm/internal/wal"
)

// crossFaultEnv is an engine fixture with an independent fault injector on
// every WAL shard (plus the segment), so tests can fail one shard of a
// cross-shard commit while the others keep working.
type crossFaultEnv struct {
	*env
	shardInj []*iofault.Injector // index = shard
	segInj   *iofault.Injector
}

// newCrossFaultEnv builds a 2-shard fixture.  shardFaults[k] is shard k's
// fault schedule.
func newCrossFaultEnv(t *testing.T, logSize, segSize int64, seed int64,
	shardFaults [][]iofault.Fault, segFaults []iofault.Fault, opts Options) (*crossFaultEnv, error) {
	t.Helper()
	shards := len(shardFaults)
	v := &crossFaultEnv{env: &env{t: t, dir: t.TempDir()}}
	v.logPath = v.dir + "/log.rvm"
	v.segPath = v.dir + "/seg.rvm"
	if err := CreateLog(v.logPath, logSize); err != nil {
		t.Fatal(err)
	}
	if err := CreateSegment(v.segPath, 1, segSize); err != nil {
		t.Fatal(err)
	}
	v.shardInj = make([]*iofault.Injector, shards)
	for k := 0; k < shards; k++ {
		path := shardLogPath(v.logPath, k)
		if k > 0 {
			if err := wal.Create(path, logSize); err != nil {
				t.Fatal(err)
			}
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		inj := iofault.NewInjector(f, seed+int64(k))
		for _, fl := range shardFaults[k] {
			inj.Add(fl)
		}
		v.shardInj[k] = inj
	}
	opts.LogPath = v.logPath
	opts.LogShards = shards
	opts.ShardOf = byOffset
	opts.LogDevice = v.shardInj[0]
	opts.ShardLogDevice = func(k int) (wal.Device, error) { return v.shardInj[k], nil }
	opts.SegmentDevice = func(path string, sf *os.File) segment.Device {
		inj := iofault.NewInjector(sf, seed-1)
		for _, fl := range segFaults {
			inj.Add(fl)
		}
		v.segInj = inj
		return inj
	}
	eng, err := Open(opts)
	if err != nil {
		return v, err
	}
	v.eng = eng
	t.Cleanup(func() {
		if v.eng != nil {
			v.eng.Close()
		}
	})
	return v, nil
}

// TestCrossShardCrashBetweenPreparesAndMark is the two-phase protocol's
// central crash case: the prepares of a cross-shard transaction reach
// both shard logs, then the engine dies before any commit mark is
// written (here: shard 1's prepare force fails permanently, poisoning
// the engine in phase 2).  Recovery must discard the orphaned prepare on
// every shard — the transaction never reached its commit point.
func TestCrossShardCrashBetweenPreparesAndMark(t *testing.T) {
	v, err := newCrossFaultEnv(t, 1<<16, pageBytes(4), 7,
		[][]iofault.Fault{nil, nil}, nil,
		Options{TruncateThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := v.eng.Map(v.segPath, 0, pageBytes(2))
	r2, _ := v.eng.Map(v.segPath, pageBytes(2), pageBytes(2))
	v.commit1(r1, 0, []byte("base-a"))
	v.commit1(r2, 0, []byte("base-b"))

	// Every further sync on shard 1 fails: the cross-shard commit's
	// phase-2 prepare force cannot complete, and no mark is ever written.
	v.shardInj[1].Add(iofault.Fault{Ops: iofault.OpSync, Count: -1})
	tx, _ := v.eng.Begin(Restore)
	tx.Modify(r1, 64, []byte("half-a"))
	tx.Modify(r2, 64, []byte("half-b"))
	if err := tx.Commit(Flush); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Commit = %v, want ErrPoisoned", err)
	}

	// Crash; reopen on pristine devices.
	v.eng.closeFiles()
	v.eng = nil
	v.reopen(Options{LogShards: 2, ShardOf: byOffset, TruncateThreshold: -1})
	st := v.eng.Stats()
	if st.DiscardedPrepares != 2 {
		t.Fatalf("DiscardedPrepares = %d, want 2 (one orphan per shard)", st.DiscardedPrepares)
	}
	ra, _ := v.eng.Map(v.segPath, 0, pageBytes(2))
	rb, _ := v.eng.Map(v.segPath, pageBytes(2), pageBytes(2))
	zero := make([]byte, 6)
	if !bytes.Equal(ra.Data()[:6], []byte("base-a")) || !bytes.Equal(rb.Data()[:6], []byte("base-b")) {
		t.Fatal("acknowledged pre-fault commits lost")
	}
	if !bytes.Equal(ra.Data()[64:70], zero) || !bytes.Equal(rb.Data()[64:70], zero) {
		t.Fatalf("orphaned prepare leaked into a segment: %q / %q",
			ra.Data()[64:70], rb.Data()[64:70])
	}
}

// TestCrossShardMarkOnOneShardCommitsEverywhere: once any shard's commit
// mark is durable the transaction is committed globally — here the mark
// force (phase 4) fails on shard 1 and poisons the engine, but the marks
// were already appended; recovery must apply the transaction on both
// shards (the commit-mark union confirms every prepare).
func TestCrossShardMarkOnOneShardCommitsEverywhere(t *testing.T) {
	v, err := newCrossFaultEnv(t, 1<<16, pageBytes(4), 11,
		[][]iofault.Fault{nil, nil}, nil,
		Options{TruncateThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := v.eng.Map(v.segPath, 0, pageBytes(2))
	r2, _ := v.eng.Map(v.segPath, pageBytes(2), pageBytes(2))

	// Shard 1's first sync (the phase-2 prepare force) passes; its second
	// (the phase-4 mark force) fails permanently.
	v.shardInj[1].Add(iofault.Fault{Ops: iofault.OpSync, After: 1, Count: -1})
	tx, _ := v.eng.Begin(Restore)
	tx.Modify(r1, 0, []byte("whole-a"))
	tx.Modify(r2, 0, []byte("whole-b"))
	if err := tx.Commit(Flush); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Commit = %v, want ErrPoisoned", err)
	}

	v.eng.closeFiles()
	v.eng = nil
	v.reopen(Options{LogShards: 2, ShardOf: byOffset, TruncateThreshold: -1})
	if st := v.eng.Stats(); st.DiscardedPrepares != 0 {
		t.Fatalf("DiscardedPrepares = %d, want 0 (marks confirm the prepares)", st.DiscardedPrepares)
	}
	ra, _ := v.eng.Map(v.segPath, 0, pageBytes(2))
	rb, _ := v.eng.Map(v.segPath, pageBytes(2), pageBytes(2))
	if !bytes.Equal(ra.Data()[:7], []byte("whole-a")) || !bytes.Equal(rb.Data()[:7], []byte("whole-b")) {
		t.Fatalf("marked cross-shard commit not recovered: %q / %q",
			ra.Data()[:7], rb.Data()[:7])
	}
}

// TestCrossShardFaultScheduleProperty is the sharded twin of
// TestFaultScheduleProperty: 120 randomized fault schedules spread over
// both shard logs and the segment device, driving a mix of single-shard
// and cross-shard flush commits.  After a crash and a pristine reopen the
// recovered state must be exactly the last acknowledged state, or that
// state plus the whole in-flight transaction — for a cross-shard
// transaction, both halves or neither, never one shard's half.
func TestCrossShardFaultScheduleProperty(t *testing.T) {
	const trials = 120
	size := pageBytes(4)
	half := pageBytes(2)
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)*6271 + 1))
			v, err := newCrossFaultEnv(t, 1<<15, size, int64(trial),
				[][]iofault.Fault{randomFaults(rng), randomFaults(rng)}, randomFaults(rng),
				Options{
					TruncateThreshold: 0.5,
					Incremental:       trial%2 == 0,
				})

			acked := make([]byte, size)     // state at the last acknowledged commit
			attempted := make([]byte, size) // acked + the failed in-flight tx, if any
			if err == nil {
				r1, e1 := v.eng.Map(v.segPath, 0, half)
				r2, e2 := v.eng.Map(v.segPath, half, half)
				if e1 == nil && e2 == nil {
					for i := 0; i < 12; i++ {
						copy(attempted, acked)
						tx, berr := v.eng.Begin(Restore)
						if berr != nil {
							break
						}
						cerr := error(nil)
						cross := rng.Intn(2) == 0
						mods := 1 + rng.Intn(3)
						for j := 0; j < mods && cerr == nil; j++ {
							reg, base := r1, int64(0)
							if (cross && j%2 == 1) || (!cross && i%2 == 1) {
								reg, base = r2, half
							}
							off := rng.Int63n(half - 64)
							data := make([]byte, 1+rng.Intn(48))
							for k := range data {
								data[k] = byte(rng.Intn(256))
							}
							if cerr = tx.Modify(reg, off, data); cerr == nil {
								copy(attempted[base+off:], data)
							}
						}
						if cerr == nil {
							cerr = tx.Commit(Flush)
						} else {
							_ = tx.Abort()
						}
						if cerr != nil {
							break
						}
						copy(acked, attempted)
					}
				}
			}

			// Crash: drop the engine without flushing, reopen on pristine
			// devices, and let recovery replay every shard.
			if v.eng != nil {
				v.eng.closeFiles()
				v.eng = nil
			}
			v.reopen(Options{LogShards: 2, ShardOf: byOffset})
			got := make([]byte, 0, size)
			ra, err := v.eng.Map(v.segPath, 0, half)
			if err != nil {
				t.Fatalf("trial %d: pristine Map failed: %v", trial, err)
			}
			rb, err := v.eng.Map(v.segPath, half, half)
			if err != nil {
				t.Fatalf("trial %d: pristine Map failed: %v", trial, err)
			}
			got = append(got, ra.Data()...)
			got = append(got, rb.Data()...)
			if !bytes.Equal(got, acked) && !bytes.Equal(got, attempted) {
				t.Fatalf("trial %d: recovered state matches neither the acknowledged state nor the whole in-flight transaction (cross-shard atomicity broken)", trial)
			}
			eng := v.eng
			v.eng = nil
			eng.closeFiles()
		})
	}
}
