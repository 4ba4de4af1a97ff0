package recovery

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/rvm-go/rvm/internal/iofault"
	"github.com/rvm-go/rvm/internal/obs"
	"github.com/rvm-go/rvm/internal/wal"
)

// TestRedoPathsAgree replays the same randomized multi-segment logs through
// every redo path and requires bit-identical segment images and equal
// counts — records replayed, distinct bytes applied — against a byte-array
// model that applies the records in log order from the head: a later value
// wins per byte no matter how the work is divided.  The shapes are a log of
// plain records from the head it was written with and behind a head a
// truncation moved.  Each at parallelism 1/2/4/8,
// over a log that is already open (RecoverParallel) and over a log a Restart
// opens itself (Redo, then Apply), and as an epoch truncation (CollectEpoch,
// the same builder at GOMAXPROCS); built by the scan's goroutine, by
// workers, and by the one and then the others; the logs span several scan
// windows, which start small.
func TestRedoPathsAgree(t *testing.T) {
	const segLen = 1 << 17 // 2 stripes per segment, so ranges split
	const nsegs = 3
	type shape struct {
		name string
		// build appends to the log through rec, which returns the record's
		// area offset and sequence number.
		build func(f *fixture, rec func(tid uint64) (int64, uint64))
	}
	shapes := []shape{
		{"scan only", func(f *fixture, rec func(uint64) (int64, uint64)) {
			for i := 0; i < 100; i++ {
				rec(uint64(i + 1))
			}
		}},
		{"from a checkpoint below the head", func(f *fixture, rec func(uint64) (int64, uint64)) {
			var headPos int64
			var headSeq uint64
			for i := 0; i < 100; i++ {
				if pos, seq := rec(uint64(i + 1)); i == 38 {
					headPos, headSeq = pos, seq
				}
			}
			// A truncation freed the log up to the 39th record.
			if err := f.log.SetHead(headPos, headSeq); err != nil {
				t.Fatal(err)
			}
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
					sh.build(f, func(tid uint64) (int64, uint64) {
						rg := wal.Range{Seg: uint64(1 + rnd.Intn(nsegs)), Off: uint64(rnd.Intn(segLen - 2048)), Data: make([]byte, 1+rnd.Intn(1500))}
						rnd.Read(rg.Data)
						pos, seq, _, err := f.log.Append(tid, 0, []wal.Range{rg})
						if err != nil {
							t.Fatal(err)
						}
						held = append(held, logged{seq, rg})
						return pos, seq
					})
					model := make([][]byte, nsegs)
					touched := make([][]bool, nsegs)
					for i := range model {
						model[i], touched[i] = make([]byte, segLen), make([]bool, segLen)
					}
					var want Stats
					_, head := f.log.Head()
					for _, r := range held {
						if r.seq < head {
							continue // truncated
						}
						want.Records++
						copy(model[r.rg.Seg-1][r.rg.Off:], r.rg.Data)
						for i := range r.rg.Data {
							touched[r.rg.Seg-1][int(r.rg.Off)+i] = true
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
						r := NewRestart(Config{Parallelism: -par}, nil, nil)
						dev, oerr := os.OpenFile(f.logPath, os.O_RDWR, 0)
						if oerr != nil {
							t.Fatal(oerr)
						}
						t.Cleanup(func() { dev.Close() })
						if l, err = r.Open(dev); err != nil {
							t.Fatalf("parallelism %d: %v", par, err)
						}
						var ep *Epoch
						if ep, st, err = r.Redo(f.lookup); err == nil {
							st, err = ep.Apply(f.lookup, nil)
						}
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

// TestRecoverScannedBytesBounded: recovery considers the log from its head,
// so a truncation that moved the head bounds the bytes it scans and the
// records it replays.
func TestRecoverScannedBytesBounded(t *testing.T) {
	f := newFixture(t, 1, 1<<16)
	for i := 1; i <= 50; i++ {
		f.log.Append(uint64(i), 0, rng1(1, uint64(i*16), byte(i), 512))
	}
	pos, next := f.log.Tail()
	if err := f.log.SetHead(pos, next); err != nil {
		t.Fatal(err)
	}
	f.log.Append(uint64(60), 0, rng1(1, 0, 'z', 16))
	f.log.Force()

	live := f.log.Used()
	st, err := RecoverParallel(f.log, f.lookup, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.ScannedBytes != uint64(live) {
		t.Fatalf("scanned %d bytes; want the %d from the head on", st.ScannedBytes, live)
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

	st, err := RecoverParallel(f.log, f.lookup, nil, Config{})
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

// TestRecoveryPhasesAttributed: a long restart must be explainable from its
// own metrics, so the four phases it reports — the scan Open runs, with the
// building it overlaps; the scan after it (next to nothing: Open scanned);
// the wait for the builders; apply — are consecutive stretches of wall time
// that account for at least 90 % of the restart and never more than all of
// it.
func TestRecoveryPhasesAttributed(t *testing.T) {
	const segLen = 1 << 20
	f := newFixtureLog(t, 2, segLen, 8<<20)
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
	// The final head move's fsync belongs to no phase; on a log in memory
	// it is free, and the test measures attribution, not the host's disk.
	mem, err := iofault.ReadMem(f.logPath)
	if err != nil {
		t.Fatal(err)
	}
	met := obs.NewMetrics()
	r := NewRestart(Config{Parallelism: 2}, nil, met)
	defer r.Abort()
	t0 := time.Now()
	l, err := r.Open(mem)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ep, st, err := r.Redo(f.lookup)
	if err == nil {
		st, err = ep.Apply(f.lookup, nil)
	}
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
	sum := int64(sn.OpenScanNs.Sum + sn.RecoveryScanNs.Sum + sn.RecoveryBuildNs.Sum + sn.RecoveryApplyNs.Sum)
	t.Logf("%d records, wall %d us = open scan %d + scan %d + build %d + apply %d + %d unattributed", st.Records, wall/1000,
		sn.OpenScanNs.Sum/1000, sn.RecoveryScanNs.Sum/1000, sn.RecoveryBuildNs.Sum/1000, sn.RecoveryApplyNs.Sum/1000, (wall-sum)/1000)
	if sum < wall*9/10 || sum > wall {
		t.Errorf("phases sum to %d ns of a %d ns recovery; want 90-100 %%", sum, wall)
	}
}
