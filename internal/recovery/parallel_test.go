package recovery

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"github.com/rvm-go/rvm/internal/obs"
	"github.com/rvm-go/rvm/internal/wal"
)

// TestRedoPathsAgree replays the same randomized multi-segment log through
// every redo path — crash recovery at several parallelism levels (newest
// first, KeepExisting, stripe-sharded trees) and epoch truncation (oldest
// first, OverwriteExisting, one tree per segment) — and requires
// bit-identical segment images and the same count of distinct bytes
// applied: newest-wins per byte must hold no matter how the work is
// divided or in which direction the log is read.  The second round cuts
// the build pass into batches of a few records, each decoded into the
// windows and records of the one before.
func TestRedoPathsAgree(t *testing.T) {
	defer func(n int64) { batchBytes = n }(batchBytes)
	const segLen = 1 << 17 // 2 stripes per segment, so ranges split
	rnd := rand.New(rand.NewSource(7))

	build := func(f *fixture) {
		for i := 0; i < 100; i++ {
			seg := uint64(1 + rnd.Intn(3))
			off := uint64(rnd.Intn(segLen - 2048))
			n := 1 + rnd.Intn(1500)
			d := make([]byte, n)
			rnd.Read(d)
			if _, _, _, err := f.log.Append(uint64(i+1), 0, []wal.Range{{Seg: seg, Off: off, Data: d}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.log.Force(); err != nil {
			t.Fatal(err)
		}
	}

	var want [][]byte
	var wantBytes uint64
	for _, par := range []int{1, 2, 4, 8, 0, -1, -2, -4, -8} { // 0: epoch truncation; negative: small batches
		if par < 0 {
			par, batchBytes = -par, 4<<10
		}
		rnd.Seed(7) // identical log contents per run
		f := newFixture(t, 3, segLen)
		build(f)
		var st Stats
		var err error
		if par > 0 {
			st, err = RecoverParallel(f.log, f.lookup, nil, Config{Parallelism: par})
		} else {
			var ep *Epoch
			if ep, err = CollectEpoch(f.log); err == nil {
				st, err = ep.Apply(f.lookup, nil)
			}
		}
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if st.Records != 100 {
			t.Fatalf("parallelism %d replayed %d records", par, st.Records)
		}
		if f.log.Used() != 0 {
			t.Fatalf("parallelism %d left %d live bytes", par, f.log.Used())
		}
		var got [][]byte
		for id := uint64(1); id <= 3; id++ {
			got = append(got, f.read(t, id, 0, segLen))
		}
		if want == nil {
			want, wantBytes = got, st.TreeBytes
			continue
		}
		if st.TreeBytes != wantBytes {
			t.Fatalf("parallelism %d applied %d distinct bytes, serial replay %d", par, st.TreeBytes, wantBytes)
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("parallelism %d: segment %d differs from serial replay", par, i+1)
			}
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
// engine's own metrics, so the three phases it reports — analysis, decode +
// tree build, apply — have to account for at least 90 % of the recovery's
// wall time, and the tail scan Open ran before them must be reported too.
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
