package recovery

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/rvm-go/rvm/internal/obs"
	"github.com/rvm-go/rvm/internal/wal"
)

// TestRedoPathsAgree replays the same randomized multi-segment logs through
// every redo path and requires bit-identical segment images and equal
// counts — records replayed, distinct bytes applied — against a byte-array
// model that applies the records in log order: a later value wins per byte
// no matter how the work is divided.  The shapes are the ways a restart's
// scan can end up building: everything from the scan itself (a log of
// plain records; epoch truncation — one tree per segment, no workers —
// must agree too); from a second scan that starts at a checkpoint's stable
// LSN (what lies below must not be replayed); and from a checkpoint record
// whose stable LSN a truncation has since moved the head past (it bounds
// nothing, and the second scan must not start below the head).  Each at
// parallelism 1/2/4/8, over a log that is already open (RecoverParallel)
// and over a log a Restart opens itself, and built by the scan's goroutine,
// by workers, and by the one and then the others; the logs span several
// scan windows, which start small.
func TestRedoPathsAgree(t *testing.T) {
	const segLen = 1 << 17 // 2 stripes per segment, so ranges split
	const nsegs = 3
	type shape struct {
		name string
		// build appends to the log through rec and returns the sequence
		// number from which it is replayed (0: all of it).
		build func(l *wal.Log, rec func(tid uint64)) (stable uint64)
	}
	shapes := []shape{
		{"scan only", func(l *wal.Log, rec func(uint64)) uint64 {
			for i := 0; i < 100; i++ {
				rec(uint64(i + 1))
			}
			return 0
		}},
		{"from a checkpoint", func(l *wal.Log, rec func(uint64)) uint64 {
			var stable uint64
			for i := 0; i < 100; i++ {
				if i == 40 || i == 70 {
					// Pages still pinned hold the stable LSN a few records back.
					_, next := l.Tail()
					stable = next - 5
					if _, _, err := l.AppendCheckpoint(stable); err != nil {
						t.Fatal(err)
					}
				}
				rec(uint64(i + 1))
			}
			return stable
		}},
		{"from a checkpoint below the head", func(l *wal.Log, rec func(uint64)) uint64 {
			var ckpt uint64
			for i := 0; i < 100; i++ {
				if i == 40 {
					_, ckpt = l.Tail()
					if _, _, err := l.AppendCheckpoint(ckpt - 5); err != nil {
						t.Fatal(err)
					}
				}
				rec(uint64(i + 1))
			}
			// A truncation frees the log up to two records short of the
			// checkpoint record.
			pos, seq := l.Head()
			an, err := l.Scan(pos, seq, func(w *wal.Window) error { w.Release(); return nil })
			if err != nil {
				t.Fatal(err)
			}
			if err := l.SetHead(an.Pos(ckpt-2), ckpt-2); err != nil {
				t.Fatal(err)
			}
			return 0
		}},
	}
	// Who builds: the scan's own goroutine all the way (these logs are far
	// shorter than inlineBytes), workers from the middle of each log on, or
	// workers from the first window.
	for _, inline := range []int64{inlineBytes, 20 << 10, 0} {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("%s/inline %d", sh.name, inline), func(t *testing.T) {
				defer func(n int64) { inlineBytes = n }(inlineBytes)
				inlineBytes = inline
				for _, par := range []int{1, 2, 4, 8, -1, -2, -4, -8, 0} { // 0: epoch truncation; < 0: the Restart opens the log
					rnd := rand.New(rand.NewSource(7)) // identical log contents per run
					f := newFixture(t, nsegs, segLen)
					// What the log holds, for the model.
					type logged struct {
						seq uint64
						rg  wal.Range
					}
					var held []logged
					stable := sh.build(f.log, func(tid uint64) {
						rg := wal.Range{Seg: uint64(1 + rnd.Intn(nsegs)), Off: uint64(rnd.Intn(segLen - 2048)), Data: make([]byte, 1+rnd.Intn(1500))}
						rnd.Read(rg.Data)
						_, seq, _, err := f.log.Append(tid, 0, []wal.Range{rg})
						if err != nil {
							t.Fatal(err)
						}
						held = append(held, logged{seq, rg})
					})
					model := make([][]byte, nsegs)
					touched := make([][]bool, nsegs)
					for i := range model {
						model[i], touched[i] = make([]byte, segLen), make([]bool, segLen)
					}
					var want Stats
					_, head := f.log.Head()
					for _, r := range held {
						switch {
						case r.seq < head: // truncated
						case par != 0 && r.seq < stable: // an epoch replays what a checkpoint bounds away
						default:
							want.Records++
							copy(model[r.rg.Seg-1][r.rg.Off:], r.rg.Data)
							for i := range r.rg.Data {
								touched[r.rg.Seg-1][int(r.rg.Off)+i] = true
							}
						}
					}
					for _, seg := range touched {
						for _, b := range seg {
							if b {
								want.TreeBytes++
							}
						}
					}

					var st Stats
					var err error
					l := f.log
					if par > 0 {
						st, err = RecoverParallel(l, f.lookup, nil, Config{Parallelism: par})
					} else if par < 0 {
						r := NewRestart(Config{Parallelism: -par}, nil)
						dev, oerr := os.OpenFile(f.logPath, os.O_RDWR, 0)
						if oerr != nil {
							t.Fatal(oerr)
						}
						t.Cleanup(func() { dev.Close() })
						if l, err = r.Open(dev); err != nil {
							t.Fatalf("parallelism %d: %v", par, err)
						}
						st, err = r.Finish(f.lookup, nil)
					} else {
						var ep *Epoch
						if ep, err = CollectEpoch(f.log); err == nil {
							st, err = ep.Apply(f.lookup, nil)
						}
					}
					if err != nil {
						t.Fatalf("parallelism %d: %v", par, err)
					}
					if st.Records != want.Records || st.TreeBytes != want.TreeBytes {
						t.Fatalf("parallelism %d: %d records, %d distinct bytes; the model has %d and %d",
							par, st.Records, st.TreeBytes, want.Records, want.TreeBytes)
					}
					if l.Used() != 0 {
						t.Fatalf("parallelism %d left %d live bytes", par, l.Used())
					}
					for id := uint64(1); id <= nsegs; id++ {
						if !bytes.Equal(f.read(t, id, 0, segLen), model[id-1]) {
							t.Fatalf("parallelism %d: segment %d differs from the model", par, id)
						}
					}
				}
			})
		}
	}
}

// TestRecoverStartsAtCheckpoint puts wrong bytes UNDER the checkpoint
// cutoff: if recovery replayed the full log it would clobber the
// segment with the pre-checkpoint value, and if it honors the cutoff the
// deliberately divergent segment byte survives.
func TestRecoverStartsAtCheckpoint(t *testing.T) {
	f := newFixture(t, 1, 4096)
	// seq 1 says offset 0 holds 'O' (old). Pretend a checkpoint wrote the
	// page afterwards with a different, newer value the log never saw
	// again ('S' at offset 0 directly in the segment).
	f.log.Append(1, 0, rng1(1, 0, 'O', 8))
	// seq 2: a post-stable record recovery must replay.
	f.log.Append(2, 0, rng1(1, 100, 'N', 4))
	// Checkpoint (seq 3) declaring everything below seq 2 reflected.
	if _, _, err := f.log.AppendCheckpoint(2); err != nil {
		t.Fatal(err)
	}
	f.log.Force()
	if err := f.segs[1].WriteAt(bytes.Repeat([]byte{'S'}, 8), 0); err != nil {
		t.Fatal(err)
	}

	st, err := Recover(f.log, f.lookup, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.CheckpointSeq != 2 {
		t.Fatalf("CheckpointSeq = %d, want 2", st.CheckpointSeq)
	}
	if st.Records != 1 {
		t.Fatalf("replayed %d records, want only the post-stable one", st.Records)
	}
	if got := f.read(t, 1, 0, 8); !bytes.Equal(got, bytes.Repeat([]byte{'S'}, 8)) {
		t.Fatalf("pre-stable record was replayed over the segment: %q", got)
	}
	if got := f.read(t, 1, 100, 4); !bytes.Equal(got, bytes.Repeat([]byte{'N'}, 4)) {
		t.Fatalf("post-stable record not replayed: %q", got)
	}
	if f.log.Used() != 0 {
		t.Fatalf("recovery left %d live bytes", f.log.Used())
	}
}

// TestRecoverScannedBytesBounded: the analysis pass must visit only the
// suffix past the stable seq, so ScannedBytes stays well under the live
// log size when a checkpoint is present.
func TestRecoverScannedBytesBounded(t *testing.T) {
	f := newFixture(t, 1, 1<<16)
	for i := 1; i <= 50; i++ {
		f.log.Append(uint64(i), 0, rng1(1, uint64(i*16), byte(i), 512))
	}
	tailPos, next := f.log.Tail()
	_ = tailPos
	if _, _, err := f.log.AppendCheckpoint(next); err != nil {
		t.Fatal(err)
	}
	f.log.Append(uint64(60), 0, rng1(1, 0, 'z', 16))
	f.log.Force()

	live := f.log.Used()
	st, err := Recover(f.log, f.lookup, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.ScannedBytes >= uint64(live)/2 {
		t.Fatalf("scanned %d of %d live bytes; checkpoint did not bound the scan", st.ScannedBytes, live)
	}
	if st.Records != 1 {
		t.Fatalf("replayed %d records, want 1", st.Records)
	}
}

// TestRecoverPartialStatsOnError: when a segment write fails mid-apply,
// the returned Stats must still describe the progress made before the
// failure rather than coming back all-zero.
func TestRecoverPartialStatsOnError(t *testing.T) {
	f := newFixture(t, 2, 4096)
	f.log.Append(1, 0, rng1(1, 0, 'a', 256))
	// This range runs past segment 2's end, so its WriteAt fails during
	// the apply pass (the log itself imposes no segment-length check).
	f.log.Append(2, 0, rng1(2, 4000, 'b', 256))
	f.log.Force()

	st, err := Recover(f.log, f.lookup, nil)
	if err == nil {
		t.Fatal("recovery succeeded with a closed segment")
	}
	if st.Records != 2 || st.Ranges != 2 {
		t.Fatalf("analysis stats lost alongside the error: %+v", st)
	}
	// Apply order over segments is unspecified, so the healthy segment may
	// or may not have been written before the failure — but whatever
	// progress happened must be reported consistently, not zeroed.
	if st.TreeBytes != uint64(st.WritesMerged)*256 || st.WritesMerged > 1 {
		t.Fatalf("partial apply progress inconsistent: writes=%d bytes=%d",
			st.WritesMerged, st.TreeBytes)
	}
}

// TestRecoverParallelismConfigDefaults: zero/negative config values must
// behave like serial replay rather than crashing or spawning workers.
func TestRecoverParallelismConfigDefaults(t *testing.T) {
	for _, par := range []int{-1, 0, 1} {
		f := newFixture(t, 1, 4096)
		f.log.Append(1, 0, rng1(1, 0, 'q', 64))
		f.log.Force()
		st, err := RecoverParallel(f.log, f.lookup, nil, Config{Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if st.Records != 1 || st.TreeBytes != 64 {
			t.Fatalf("parallelism %d: %+v", par, st)
		}
		if got := f.read(t, 1, 0, 64); !bytes.Equal(got, bytes.Repeat([]byte{'q'}, 64)) {
			t.Fatalf("parallelism %d: segment bytes wrong", par)
		}
	}
}

// TestRecoveryPhasesAttributed: a long restart must be explainable from the
// engine's own metrics, so the three phases it reports — here the scan of a
// log already open, with the building it overlaps; the wait for the builders
// after it; apply — are consecutive stretches of wall time that account for
// at least 90 % of the recovery and never more than all of it, and the scan
// Open ran before them must be reported too.
func TestRecoveryPhasesAttributed(t *testing.T) {
	const segLen = 1 << 20
	f := newFixtureLog(t, 2, segLen, 8<<20)
	met := obs.NewMetrics()
	f.log.SetObs(nil, met)
	// The final head move's fsync belongs to no phase; without it the
	// test measures attribution, not the host's disk.
	f.log.SetNoSync(true)
	rnd := rand.New(rand.NewSource(11))
	d := make([]byte, 128)
	for i := 0; f.log.Used() < 6<<20; i++ {
		rnd.Read(d)
		ranges := []wal.Range{
			{Seg: 1, Off: uint64(rnd.Intn(segLen/128)) * 128, Data: d},
			{Seg: 2, Off: uint64(i%(segLen/64)) * 64, Data: d[:64]},
		}
		if _, _, _, err := f.log.Append(uint64(i+1), 0, ranges); err != nil {
			t.Fatal(err)
		}
	}
	t0 := time.Now()
	st, err := RecoverParallel(f.log, f.lookup, nil, Config{Parallelism: 2})
	wall := time.Since(t0).Nanoseconds()
	if err != nil {
		t.Fatal(err)
	}
	sn := met.Snapshot()
	for name, h := range map[string]obs.HistStat{
		"open scan": sn.OpenScanNs, "scan": sn.RecoveryScanNs, "build": sn.RecoveryBuildNs, "apply": sn.RecoveryApplyNs,
	} {
		if h.Count != 1 || h.Sum == 0 {
			t.Errorf("%s phase observed %d times, %d ns in all; want one non-zero observation", name, h.Count, h.Sum)
		}
	}
	sum := int64(sn.RecoveryScanNs.Sum + sn.RecoveryBuildNs.Sum + sn.RecoveryApplyNs.Sum)
	t.Logf("%d records, wall %d us = scan %d + build %d + apply %d + %d unattributed", st.Records, wall/1000,
		sn.RecoveryScanNs.Sum/1000, sn.RecoveryBuildNs.Sum/1000, sn.RecoveryApplyNs.Sum/1000, (wall-sum)/1000)
	if sum < wall*9/10 || sum > wall {
		t.Errorf("phases sum to %d ns of a %d ns recovery; want 90-100 %%", sum, wall)
	}
}
