package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Trace export formats accepted by WriteTrace.
const (
	FormatJSON   = "json"   // one JSON array of Event objects
	FormatChrome = "chrome" // Chrome trace_event format (chrome://tracing, Perfetto)
)

// WriteTrace writes the tracer's retained events to w in the named
// format.  A nil tracer writes an empty trace.
func (t *Tracer) WriteTrace(w io.Writer, format string) error {
	events := t.Events()
	switch format {
	case FormatJSON:
		return writeEventsJSON(w, events)
	case FormatChrome:
		return writeChromeTrace(w, events)
	default:
		return fmt.Errorf("obs: unknown trace format %q (want %q or %q)", format, FormatJSON, FormatChrome)
	}
}

func writeEventsJSON(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if events == nil {
		events = []Event{}
	}
	return enc.Encode(events)
}

// chromeEvent is one entry in the Chrome trace_event JSON array.
// Timestamps and durations are microseconds (floats, so sub-µs spans
// survive).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  uint64         `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeCat groups event types into trace categories so the viewer can
// filter commit traffic from truncation from recovery.
func chromeCat(t EventType) string {
	switch t {
	case EvTxBegin, EvCommitFlush, EvCommitNoFlush, EvTxAbort:
		return "tx"
	case EvLogAppend, EvLogForce, EvSpoolFlush:
		return "log"
	case EvTruncEpoch, EvTruncate, EvTruncPause:
		return "truncation"
	case EvRecovScan, EvRecovApply:
		return "recovery"
	case EvRetry, EvPoisoned:
		return "fault"
	case EvStall:
		return "stall"
	default:
		return "other"
	}
}

// chromeTID picks the track an event renders on.  Transaction events
// render on their transaction's track; engine-wide activities (forces,
// truncation, recovery, faults) each get a fixed high-numbered track so
// their spans visibly overlap — or fail to overlap — the commit tracks.
func chromeTID(ev Event) uint64 {
	if ev.TID != 0 {
		return ev.TID
	}
	return 100000 + uint64(ev.Type)
}

// writeChromeTrace emits the events as a Chrome trace_event JSON array:
// "X" (complete) events for spans, "i" (instant) events otherwise.
// Load the output in chrome://tracing or https://ui.perfetto.dev.
func writeChromeTrace(w io.Writer, events []Event) error {
	out := make([]chromeEvent, 0, len(events))
	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.Type.String(),
			Cat:  chromeCat(ev.Type),
			TS:   float64(ev.TS) / 1e3,
			PID:  1,
			TID:  chromeTID(ev),
		}
		if ev.Dur > 0 {
			ce.Ph = "X"
			ce.Dur = float64(ev.Dur) / 1e3
		} else {
			ce.Ph = "i"
			ce.S = "t"
		}
		if ev.A != 0 || ev.B != 0 || ev.TID != 0 {
			ce.Args = map[string]any{"a": ev.A, "b": ev.B, "tid": ev.TID}
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
