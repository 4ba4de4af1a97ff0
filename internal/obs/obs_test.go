package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerRecordAndEvents(t *testing.T) {
	tr := NewTracer(128)
	tr.Record(EvTxBegin, 7, 0, 0)
	tr.SpanFor(EvCommitFlush, time.Now(), 3, 7, 512, 0)
	tr.Record(EvTxAbort, 8, 0, 0)

	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].Type != EvTxBegin || evs[0].TID != 7 {
		t.Errorf("event 0 = %+v, want tx-begin tid=7", evs[0])
	}
	if evs[1].Type != EvCommitFlush || evs[1].A != 512 || evs[1].Dur < 0 {
		t.Errorf("event 1 = %+v, want commit-flush a=512 dur>=0", evs[1])
	}
	if evs[2].Type != EvTxAbort {
		t.Errorf("event 2 = %+v, want tx-abort", evs[2])
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Errorf("events out of order: ts[%d]=%d < ts[%d]=%d", i, evs[i].TS, i-1, evs[i-1].TS)
		}
	}
	if evs[0].Name != "tx-begin" {
		t.Errorf("Name = %q, want tx-begin", evs[0].Name)
	}
}

func TestTracerWrapAround(t *testing.T) {
	tr := NewTracer(1) // rounds up to the 64 minimum
	if tr.Capacity() != 64 {
		t.Fatalf("capacity = %d, want 64", tr.Capacity())
	}
	for i := 0; i < 200; i++ {
		tr.Record(EvLogAppend, 0, uint64(i), 0)
	}
	if tr.Recorded() != 200 {
		t.Fatalf("recorded = %d, want 200", tr.Recorded())
	}
	evs := tr.Events()
	if len(evs) != 64 {
		t.Fatalf("retained %d events, want 64", len(evs))
	}
	// Oldest retained event is #137 (0-based 136); newest is #200.
	if evs[0].A != 136 || evs[len(evs)-1].A != 199 {
		t.Errorf("retained window [%d, %d], want [136, 199]", evs[0].A, evs[len(evs)-1].A)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(EvTxBegin, 1, 2, 3)
	tr.SpanFor(EvLogForce, time.Now(), 1, 0, 0, 0)
	if tr.Now() != 0 || tr.Recorded() != 0 || tr.Capacity() != 0 {
		t.Error("nil tracer accessors should return zero")
	}
	if tr.Events() != nil {
		t.Error("nil tracer Events should be nil")
	}
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf, FormatJSON); err != nil {
		t.Errorf("nil tracer WriteTrace: %v", err)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(256)
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	done := make(chan struct{})
	// One goroutine continuously snapshots while writers hammer the ring,
	// exercising the seqlock skip paths under the race detector.
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				tr.Events()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.Record(EvLogAppend, id, uint64(i), 0)
			}
		}(uint64(w))
	}
	wg.Wait()
	close(done)
	if got := tr.Recorded(); got != workers*perWorker {
		t.Fatalf("recorded = %d, want %d", got, workers*perWorker)
	}
	evs := tr.Events()
	if len(evs) == 0 || len(evs) > tr.Capacity() {
		t.Fatalf("snapshot has %d events, want 1..%d", len(evs), tr.Capacity())
	}
}

func TestHistObserve(t *testing.T) {
	var h Hist
	for _, v := range []int64{1, 2, 3, 100, 1000, -5} {
		h.Observe(v)
	}
	st := h.Snapshot()
	if st.Count != 6 {
		t.Fatalf("count = %d, want 6", st.Count)
	}
	if st.Sum != 1106 { // -5 clamps to 0
		t.Fatalf("sum = %d, want 1106", st.Sum)
	}
	if st.Max != 1000 {
		t.Errorf("max = %d, want 1000", st.Max)
	}
	if st.P99 > st.Max {
		t.Errorf("p99 = %d exceeds max %d", st.P99, st.Max)
	}
	if st.P50 != 2 { // rank 3 of {0, 1, 2, 3, 100, 1000}; values below 8 have a bucket each
		t.Errorf("p50 = %d, want 2", st.P50)
	}
	if st.Mean == 0 {
		t.Error("mean should be non-zero")
	}
}

func TestHistQuantileAccuracy(t *testing.T) {
	var h Hist
	// 99 fast observations around 1000, one slow outlier at 1<<20.
	for i := 0; i < 99; i++ {
		h.Observe(1000)
	}
	h.Observe(1 << 20)
	st := h.Snapshot()
	// 1000 lies in [896, 1024), a quarter of the octave [512, 1024).
	if st.P50 < 896 || st.P50 >= 1024 {
		t.Errorf("p50 = %d, want in 1000's bucket [896, 1024)", st.P50)
	}
	if st.P99 < 896 || st.P99 >= 1024 {
		t.Errorf("p99 = %d, want in 1000's bucket (rank 99 of 100)", st.P99)
	}
	if st.Max != 1<<20 {
		t.Errorf("max = %d, want %d", st.Max, 1<<20)
	}
}

func TestHistEmpty(t *testing.T) {
	var h Hist
	st := h.Snapshot()
	if st.Count != 0 || st.P50 != 0 || st.P99 != 0 || st.Max != 0 || st.Mean != 0 {
		t.Errorf("empty histogram snapshot = %+v, want zeroes", st)
	}
}

func TestHistConcurrent(t *testing.T) {
	var h Hist
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if n := h.Snapshot().Count; n != workers*perWorker {
		t.Fatalf("count = %d, want %d", n, workers*perWorker)
	}
}

func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	m.ObserveCommitFlush(1)
	m.ObserveCommitNoFlush(1)
	m.ObserveForce(1, 1)
	m.ObserveTruncPause(1)
	m.ObserveSpoolFlush(1)
	m.SetRecoveryScanBytes(1)
	m.AddRecoveryApplyBytes(1)
	m.AddRecoveryReplayed(1)
	if m.Snapshot() != nil {
		t.Error("nil metrics Snapshot should be nil")
	}
}

func TestMetricsSnapshotJSON(t *testing.T) {
	m := NewMetrics()
	m.ObserveCommitFlush(5000)
	m.ObserveForce(2000, 3)
	m.SetRecoveryScanBytes(4096)
	m.AddRecoveryReplayed(2)
	m.AddRecoveryReplayed(-1)

	snap := m.Snapshot()
	if snap.RecoveryReplayed != 1 || snap.RecoveryScanBytes != 4096 {
		t.Fatalf("gauges = %+v, want recovery_replayed=1 recovery_scan_bytes=4096", snap)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back MetricsSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.CommitFlushNs.Count != 1 || back.ForceBatch.Max != 3 {
		t.Errorf("round trip lost data: %+v", back)
	}
}

func TestWriteTraceJSON(t *testing.T) {
	tr := NewTracer(64)
	tr.Record(EvTxBegin, 1, 0, 0)
	tr.SpanFor(EvLogForce, time.Now(), 5, 0, 2, 9)

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf, FormatJSON); err != nil {
		t.Fatalf("WriteTrace json: %v", err)
	}
	var evs []Event
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("output is not a JSON event array: %v", err)
	}
	if len(evs) != 2 || evs[0].Name != "tx-begin" || evs[1].Name != "log-force" {
		t.Errorf("decoded %+v", evs)
	}
}

func TestWriteTraceChrome(t *testing.T) {
	tr := NewTracer(64)
	tr.Record(EvTxBegin, 1, 0, 0)
	tr.SpanFor(EvTruncEpoch, time.Now(), 5, 0, 4, 0)

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf, FormatChrome); err != nil {
		t.Fatalf("WriteTrace chrome: %v", err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not a JSON array: %v", err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d chrome events, want 2", len(out))
	}
	if out[0]["ph"] != "i" || out[0]["cat"] != "tx" {
		t.Errorf("instant event = %v", out[0])
	}
	if out[1]["ph"] != "X" || out[1]["cat"] != "truncation" {
		t.Errorf("span event = %v", out[1])
	}
}

func TestWriteTraceUnknownFormat(t *testing.T) {
	tr := NewTracer(64)
	err := tr.WriteTrace(&bytes.Buffer{}, "protobuf")
	if err == nil || !strings.Contains(err.Error(), "unknown trace format") {
		t.Fatalf("err = %v, want unknown-format error", err)
	}
}

func TestEventTypeString(t *testing.T) {
	if EvPoisoned.String() != "poisoned" {
		t.Errorf("EvPoisoned = %q", EvPoisoned.String())
	}
	if EventType(200).String() != "unknown" {
		t.Errorf("out-of-range type = %q", EventType(200).String())
	}
}
