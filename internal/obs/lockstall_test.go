package obs

import (
	"encoding/json"
	"math"
	"testing"
)

func TestHistSingleObservation(t *testing.T) {
	var h Hist
	h.Observe(700)
	st := h.Snapshot()
	if st.Count != 1 || st.Sum != 700 {
		t.Fatalf("count/sum = %d/%d, want 1/700", st.Count, st.Sum)
	}
	// With one observation every quantile is that observation: the
	// interpolated bucket edge is clamped to the recorded max.
	if st.P50 != 700 || st.P90 != 700 || st.P99 != 700 || st.Max != 700 {
		t.Errorf("quantiles = p50=%d p90=%d p99=%d max=%d, want all 700",
			st.P50, st.P90, st.P99, st.Max)
	}
	if st.Mean != 700 {
		t.Errorf("mean = %v, want 700", st.Mean)
	}
}

func TestHistOverflowBucketClamped(t *testing.T) {
	var h Hist
	// All mass in the last bucket an int64 can reach, whose upper edge is
	// 2^63: interpolation must stay inside the bucket and inside int64.
	huge := int64(math.MaxInt64)
	for i := 0; i < 10; i++ {
		h.Observe(huge)
	}
	st := h.Snapshot()
	if lo := huge - huge/8; st.P50 < lo || st.P50 > huge || st.P99 < st.P50 || st.P99 > huge {
		t.Errorf("p50=%d p99=%d, want both in [%d, %d] and ordered", st.P50, st.P99, lo, huge)
	}
	if st.Max != huge {
		t.Errorf("max = %d, want %d", st.Max, huge)
	}
}

func TestHistQuantileNeverExceedsMax(t *testing.T) {
	var h Hist
	// A value near a bucket's lower edge: interpolation toward the upper
	// edge must still clamp at the true max.
	h.Observe(1025) // bucket [1024, 1280)
	h.Observe(1025)
	st := h.Snapshot()
	if st.P99 > st.Max {
		t.Errorf("p99 = %d exceeds max %d", st.P99, st.Max)
	}
}

func TestStallGatesAndRecord(t *testing.T) {
	m := NewMetrics()
	if got := m.OpActiveSince(StallForce); got != 0 {
		t.Fatalf("idle gate reports start %d, want 0", got)
	}
	m.OpEnter(StallForce)
	start := m.OpActiveSince(StallForce)
	if start == 0 {
		t.Fatal("entered gate reports idle")
	}
	// A nested entrant keeps the original start (documented over-estimate).
	m.OpEnter(StallForce)
	if got := m.OpActiveSince(StallForce); got != start {
		t.Errorf("nested enter moved start %d -> %d", start, got)
	}
	m.OpExit(StallForce)
	if got := m.OpActiveSince(StallForce); got != start {
		t.Errorf("gate idle after one of two exits")
	}
	m.OpExit(StallForce)
	if got := m.OpActiveSince(StallForce); got != 0 {
		t.Errorf("gate still active after all exits: %d", got)
	}

	if m.Snapshot().LastStall != nil {
		t.Error("LastStall set before any stall")
	}
	m.RecordStall(StallTruncation, 5_000_000)
	m.RecordStall(StallForce, 2_000_000)
	sn := m.Snapshot()
	counts := map[string]uint64{}
	for _, st := range sn.Stalls {
		counts[st.Class] = st.Count
	}
	if counts["truncation"] != 1 || counts["force"] != 1 {
		t.Errorf("stall counts = %v, want truncation=1 force=1", counts)
	}
	ls := sn.LastStall
	if ls == nil {
		t.Fatal("LastStall nil after stalls")
	}
	if ls.Class != "force" || ls.DurNs != 2_000_000 {
		t.Errorf("last stall = %+v, want force/2ms", ls)
	}
	if ls.AgoNs < 0 {
		t.Errorf("last stall age = %d, want >= 0", ls.AgoNs)
	}

	var nilM *Metrics
	nilM.OpEnter(StallForce)
	nilM.OpExit(StallForce)
	nilM.RecordStall(StallForce, 1)
	if nilM.OpActiveSince(StallForce) != 0 {
		t.Error("nil metrics gate should read 0")
	}
}

func TestObserveCommitPhases(t *testing.T) {
	m := NewMetrics()
	// A lone commit leads its own force: fsync observed.
	m.ObserveCommitPhases(10, 20, 30, 40, 50, 50, true)
	// Follower: no fsync of its own.
	m.ObserveCommitPhases(1, 2, 3, 4, 500, 0, false)
	// Leader of a shared force.
	m.ObserveCommitPhases(1, 2, 3, 4, 100, 80, true)

	sn := m.Snapshot()
	if sn.PhaseLockWaitNs.Count != 3 || sn.PhaseForceWaitNs.Count != 3 {
		t.Errorf("phase counts = %d/%d, want 3/3",
			sn.PhaseLockWaitNs.Count, sn.PhaseForceWaitNs.Count)
	}
	if sn.PhaseGCLeaderNs.Count != 2 || sn.PhaseGCFollowerNs.Count != 1 {
		t.Errorf("role counts = leader %d follower %d, want 2/1",
			sn.PhaseGCLeaderNs.Count, sn.PhaseGCFollowerNs.Count)
	}
	if sn.PhaseFsyncNs.Count != 2 {
		t.Errorf("fsync count = %d, want 2 (follower had none)", sn.PhaseFsyncNs.Count)
	}
	if sn.PhaseEncodeNs.Sum != 24 {
		t.Errorf("encode sum = %d, want 24", sn.PhaseEncodeNs.Sum)
	}
}

func TestRecoveryGauges(t *testing.T) {
	m := NewMetrics()
	m.SetRecoveryScanBytes(1 << 20)
	m.AddRecoveryReplayed(10)
	m.AddRecoveryReplayed(5)
	m.AddRecoveryApplyBytes(4096)
	sn := m.Snapshot()
	if sn.RecoveryScanBytes != 1<<20 || sn.RecoveryReplayed != 15 || sn.RecoveryApplyBytes != 4096 {
		t.Errorf("recovery gauges = %+v", sn)
	}
}

func TestLockStallSnapshotJSON(t *testing.T) {
	m := NewMetrics()
	m.RecordStall(StallGroupWait, 42)
	data, err := json.Marshal(m.Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back MetricsSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(back.Stalls) != 3 { // force, group_wait, truncation
		t.Errorf("stalls round trip = %d entries, want 3", len(back.Stalls))
	}
	if back.LastStall == nil || back.LastStall.Class != "group_wait" {
		t.Errorf("last stall round trip = %+v", back.LastStall)
	}
}
