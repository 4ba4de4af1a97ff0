// Package obs is the engine's observability layer: a lock-free event
// tracer and an allocation-free metrics registry.
//
// The paper's entire evaluation (Tables 1-2, Figures 8-9) rests on
// measuring log traffic, force latency, and truncation overlap.  The
// engine's cumulative counters (core.Statistics) answer "how many", but
// not "how long" (commit p99 under group commit), "when" (does
// incremental truncation actually overlap forward processing?), or "now"
// (spool bytes, log head/tail, active transactions).  Package obs supplies
// those three missing views:
//
//   - Tracer: a fixed-capacity ring buffer of typed events with
//     nanosecond timestamps and durations, written lock-free from any
//     goroutine and exportable as JSON or Chrome trace_event format
//     (chrome://tracing, Perfetto).
//   - Metrics: log-linear latency/size histograms plus live gauges, all
//     updated with single atomic operations; declared once, as tagged
//     struct fields every surface is derived from (declare.go).
//
// Both types are nil-safe: a nil *Tracer or *Metrics accepts every call
// and does nothing, so instrumented code needs no "is observability on?"
// branches.  Neither the record path nor the observe path allocates; the
// rvmcheck obsleak analyzer enforces that emission sites stay
// allocation-free and outside fine-grained mutexes.
//
// Package obs sits at the bottom of the layering (stdlib only) so the
// WAL, recovery, fault, and engine layers can all emit into it.
package obs

import (
	"sync/atomic"
	"time"
)

// EventType identifies what an Event records.
type EventType uint8

// Event types.  Instant events have Dur == 0; span events carry the
// duration of the phase they close.
const (
	EvNone          EventType = iota
	EvTxBegin                 // instant: transaction begun; TID = tx id
	EvCommitFlush             // span: flush-mode commit (A = bytes logged)
	EvCommitNoFlush           // span: no-flush commit (A = bytes spooled)
	EvTxAbort                 // instant: explicit abort
	EvLogAppend               // instant: record appended (A = bytes, B = seq)
	EvLogForce                // span: log fsync (A = commits covered, B = forced-through seq)
	EvSpoolFlush              // span: spool drained + forced (A = bytes drained)
	EvTruncEpoch              // span: epoch truncation (A = records applied, B = road: 1 cleaner blocked by a pinned page, 2 log full)
	EvTruncate                // span: truncation call (A = pages written, B = 1 for a checkpoint)
	EvTruncPause              // span: forward processing paused by truncation (A = pages written)
	EvRecovScan               // span: recovery log scan (A = records)
	EvRecovApply              // span: recovery segment apply (A = bytes applied)
	EvRetry                   // instant: transient fault retried
	EvPoisoned                // instant: engine fail-stopped
	EvStall                   // instant: watchdog-detected stall (A = StallClass, B = ns in flight)
)

var eventNames = [...]string{
	EvNone:          "none",
	EvTxBegin:       "tx-begin",
	EvCommitFlush:   "commit-flush",
	EvCommitNoFlush: "commit-noflush",
	EvTxAbort:       "tx-abort",
	EvLogAppend:     "log-append",
	EvLogForce:      "log-force",
	EvSpoolFlush:    "spool-flush",
	EvTruncEpoch:    "trunc-epoch",
	EvTruncate:      "truncate",
	EvTruncPause:    "trunc-pause",
	EvRecovScan:     "recovery-scan",
	EvRecovApply:    "recovery-apply",
	EvRetry:         "retry",
	EvPoisoned:      "poisoned",
	EvStall:         "stall",
}

// String returns the event type's stable name (used in JSON exports).
func (t EventType) String() string {
	if int(t) < len(eventNames) {
		return eventNames[t]
	}
	return "unknown"
}

// Event is one decoded trace entry.  TS is nanoseconds since the
// tracer's creation; Dur is the span length (0 for instants).
type Event struct {
	TS   int64     `json:"ts_ns"`
	Dur  int64     `json:"dur_ns,omitempty"`
	Type EventType `json:"-"`
	Name string    `json:"type"`
	TID  uint64    `json:"tid,omitempty"`
	A    uint64    `json:"a,omitempty"`
	B    uint64    `json:"b,omitempty"`
}

// slot is one ring-buffer cell.  Writers claim a slot by incrementing the
// ring cursor, publish the payload with atomic stores, and seal the slot
// by storing its claim ticket into seq (a seqlock in miniature): readers
// accept a slot only when seq matches the ticket they expect, so a
// half-written or lapped slot is skipped rather than misread.  Every
// access is atomic — the tracer is clean under the race detector with any
// number of concurrent writers.
type slot struct {
	seq atomic.Uint64 // 0 = in flight; k = holds the k'th recorded event
	ts  atomic.Int64
	dur atomic.Int64
	typ atomic.Uint32
	tid atomic.Uint64
	a   atomic.Uint64
	b   atomic.Uint64
}

// Tracer is a lock-free ring buffer of events.  Recording is wait-free
// (one atomic increment plus eight atomic stores: the slot's sequence
// cleared, the six payload fields, the sequence sealed), never allocates,
// and never blocks: when the ring is full the oldest events are overwritten.
// A nil Tracer discards every call.
type Tracer struct {
	base  time.Time
	mask  uint64
	next  atomic.Uint64 // tickets issued; event k lives in slots[(k-1)&mask]
	slots []slot
}

// NewTracer returns a tracer retaining the most recent capacity events
// (rounded up to a power of two, minimum 64).
func NewTracer(capacity int) *Tracer {
	n := 64
	for n < capacity {
		n <<= 1
	}
	return &Tracer{base: time.Now(), mask: uint64(n - 1), slots: make([]slot, n)}
}

// Now returns the tracer's clock: nanoseconds since creation.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// Record appends an instant event.
func (t *Tracer) Record(typ EventType, tid, a, b uint64) {
	if t == nil {
		return
	}
	t.put(typ, t.Now(), 0, tid, a, b)
}

// SpanFor appends a span that started at the wall-clock time start and
// lasted dur nanoseconds: a caller that timed an operation feeds the one
// reading to both sinks.
func (t *Tracer) SpanFor(typ EventType, start time.Time, dur int64, tid, a, b uint64) {
	if t != nil {
		t.put(typ, int64(start.Sub(t.base)), max(dur, 0), tid, a, b)
	}
}

func (t *Tracer) put(typ EventType, ts, dur int64, tid, a, b uint64) {
	k := t.next.Add(1)
	s := &t.slots[(k-1)&t.mask]
	s.seq.Store(0) // invalidate while the payload is being replaced
	s.ts.Store(ts)
	s.dur.Store(dur)
	s.typ.Store(uint32(typ))
	s.tid.Store(tid)
	s.a.Store(a)
	s.b.Store(b)
	s.seq.Store(k)
}

// Recorded returns the total number of events ever recorded (including
// any overwritten by ring wrap-around).
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Load()
}

// Capacity returns the number of events the ring retains.
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return len(t.slots)
}

// Events returns a snapshot of the retained events, oldest first.  Slots
// being concurrently rewritten are skipped; the snapshot is consistent
// per event, not across events.  A nil tracer returns nil.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	hi := t.next.Load()
	lo := uint64(1)
	if n := uint64(len(t.slots)); hi > n {
		lo = hi - n + 1
	}
	out := make([]Event, 0, hi-lo+1)
	for k := lo; k <= hi; k++ {
		s := &t.slots[(k-1)&t.mask]
		if s.seq.Load() != k {
			continue // in flight or already lapped
		}
		ev := Event{
			TS:   s.ts.Load(),
			Dur:  s.dur.Load(),
			Type: EventType(s.typ.Load()),
			TID:  s.tid.Load(),
			A:    s.a.Load(),
			B:    s.b.Load(),
		}
		// Reject the payload if the slot was lapped mid-read.
		if s.seq.Load() != k {
			continue
		}
		ev.Name = ev.Type.String()
		out = append(out, ev)
	}
	return out
}
