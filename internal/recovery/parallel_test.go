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
// wins per byte whichever path builds it.  The shapes are a log of plain
// records from the head it was written with and behind a head a truncation
// moved.  Each over a log that is already open (RecoverParallel), over a log
// a Restart opens itself (Redo, then Apply), and as an epoch truncation
// (CollectEpoch, the same build); the logs span several scan windows, which
// start small.  The cases keep the names of the byte counts at which builds
// once passed from the scan's goroutine to workers; every build now runs on
// the scan's goroutine, so each case writes a log of its own instead.
func TestRedoPathsAgree(t *testing.T) {
	const segLen = 1 << 17
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
	for _, inline := range []int64{4 << 20, 20 << 10, 0} {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("%s/inline %d", sh.name, inline), func(t *testing.T) {
				for _, path := range []string{"recover", "restart", "epoch"} {
					rnd := rand.New(rand.NewSource(7 + inline)) // identical log contents per path
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
					switch path {
					case "recover":
						st, err = RecoverParallel(l, f.lookup, nil, Config{})
					case "restart":
						r := NewRestart(nil, nil)
						dev, oerr := os.OpenFile(f.logPath, os.O_RDWR, 0)
						if oerr != nil {
							t.Fatal(oerr)
						}
						t.Cleanup(func() { dev.Close() })
						if l, err = r.Open(dev); err != nil {
							t.Fatalf("%s: %v", path, err)
						}
						var ep *Epoch
						if ep, st, err = r.Redo(f.lookup); err == nil {
							st, err = ep.Apply(f.lookup, nil)
						}
					case "epoch":
						var ep *Epoch
						if ep, err = CollectEpoch(f.log); err == nil {
							st, err = ep.Apply(f.lookup, nil)
						}
					}
					if err != nil {
						t.Fatalf("%s: %v", path, err)
					}
					if st.Records != want.Records || st.TreeBytes != want.TreeBytes {
						t.Fatalf("%s: %d records, %d distinct bytes; the model has %d and %d",
							path, st.Records, st.TreeBytes, want.Records, want.TreeBytes)
					}
					if l.Used() != 0 {
						t.Fatalf("%s left %d live bytes", path, l.Used())
					}
					for id := uint64(1); id <= nsegs; id++ {
						if !bytes.Equal(f.read(t, id, 0, segLen), model[id-1]) {
							t.Fatalf("%s: segment %d differs from the model", path, id)
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

// TestRecoveryPhasesAttributed: a long restart must be explainable from its
// own metrics, so the two phases it reports — the scan Open runs, which
// builds the redo as it reads, and apply — are consecutive stretches of wall
// time that account for at least 90 % of the restart and never more than all
// of it.
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
	r := NewRestart(nil, met)
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
		"scan": sn.RecoveryScanNs, "apply": sn.RecoveryApplyNs,
	} {
		if h.Count != 1 || h.Sum == 0 {
			t.Errorf("%s phase observed %d times, %d ns in all; want one non-zero observation", name, h.Count, h.Sum)
		}
	}
	sum := int64(sn.RecoveryScanNs.Sum + sn.RecoveryApplyNs.Sum)
	t.Logf("%d records, wall %d us = scan %d + apply %d + %d unattributed", st.Records, wall/1000,
		sn.RecoveryScanNs.Sum/1000, sn.RecoveryApplyNs.Sum/1000, (wall-sum)/1000)
	if sum < wall*9/10 || sum > wall {
		t.Errorf("phases sum to %d ns of a %d ns recovery; want 90-100 %%", sum, wall)
	}
}
