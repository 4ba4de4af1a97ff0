package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// keepTx is how many transactions per client keep their full spans; later
// ones only add to the per-name sums.
const keepTx = 10000

// spanKind names what a span timed: a call into internal/core or one
// operation of a model device.
type spanKind uint8

const (
	spOpen spanKind = iota
	spMap
	spBegin
	spSetRange
	spCommit
	spFlush
	spClose
	spLogRead
	spLogWrite
	spLogSync
	spSegRead
	spSegWrite
	spSegSync
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"core.Open", "core.Map", "core.Begin", "core.SetRange", "core.Commit", "core.Flush", "core.Close",
	"logdev.ReadAt", "logdev.WriteAt", "logdev.Sync", "segdev.ReadAt", "segdev.WriteAt", "segdev.Sync",
}

// span is one timed call.  Spans of one transaction share tx; a device
// span names in during the engine call that was in flight when it began
// (the newest one, when two clients are inside the engine at once).
type span struct {
	kind       spanKind
	id         uint64
	tx         uint64
	during     uint64
	start, end int64
}

// spanTotals are a tracer's sums over a stretch of the run.
type spanTotals struct {
	ns, count, bytes [numSpanKinds]int64
}

// perCall is the mean duration in ns of the spans of one kind, 0 if there
// were none.
func (t *spanTotals) perCall(kind spanKind) float64 {
	if t.count[kind] == 0 {
		return 0
	}
	return float64(t.ns[kind]) / float64(t.count[kind])
}

// tracer records spans around the benchmark's calls into the engine and
// around the model devices' operations.  A nil tracer records nothing and
// reads no clock, so the untraced run pays one nil check per call.
type tracer struct {
	epoch    time.Time
	nextID   atomic.Uint64
	inflight atomic.Uint64 // id of the engine call in flight, 0 if none
	ns       [numSpanKinds]atomic.Int64
	count    [numSpanKinds]atomic.Int64
	bytes    [numSpanKinds]atomic.Int64 // device reads and writes only

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch).Nanoseconds()
}

// call opens a span around one engine call and marks it in flight.
func (t *tracer) call() (id uint64, start int64) {
	if t == nil {
		return 0, 0
	}
	id = t.nextID.Add(1)
	t.inflight.Store(id)
	return id, t.now()
}

// done closes the span that call opened.  keep says whether the span
// stays in memory for the trace file or only adds to the sums.
func (t *tracer) done(kind spanKind, id, tx uint64, start int64, keep bool) {
	if t == nil {
		return
	}
	end := t.now()
	t.inflight.CompareAndSwap(id, 0)
	t.record(span{kind: kind, id: id, tx: tx, start: start, end: end}, keep)
}

// device records one operation of a model device that began at start and
// moved n bytes.
func (t *tracer) device(kind spanKind, start int64, n int) {
	if t == nil {
		return
	}
	t.bytes[kind].Add(int64(n))
	during := t.inflight.Load()
	t.record(span{kind: kind, id: t.nextID.Add(1), during: during, start: start, end: t.now()}, true)
}

func (t *tracer) record(s span, keep bool) {
	t.ns[s.kind].Add(s.end - s.start)
	t.count[s.kind].Add(1)
	if !keep {
		return
	}
	t.mu.Lock()
	if len(t.spans) < 16*keepTx {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// take returns the sums since the last take and zeroes them, so each
// stretch of the run (set-up, window, restarts) gets its own.
func (t *tracer) take() (tot spanTotals) {
	if t == nil {
		return tot
	}
	for k := range t.ns {
		tot.ns[k] = t.ns[k].Swap(0)
		tot.count[k] = t.count[k].Swap(0)
		tot.bytes[k] = t.bytes[k].Swap(0)
	}
	return tot
}

// writeFile writes the kept spans as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		err := enc.Encode(struct {
			Name   string `json:"name"`
			ID     uint64 `json:"id"`
			Tx     uint64 `json:"tx,omitempty"`
			During uint64 `json:"during,omitempty"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{spanNames[s.kind], s.id, s.tx, s.during, s.start, s.end})
		if err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
