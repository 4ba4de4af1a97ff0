package obs

import (
	"sync/atomic"
	"time"
)

// StallClass identifies one operation class the stall watchdog watches.
// A stall is an instance of the class staying in flight past the
// engine's configured budget: a device fsync that hangs, a truncation
// that blocks forward processing, a group-commit window nobody closes.
type StallClass int

// Stall classes.  NumStallClasses bounds the gate and counter arrays.
const (
	StallForce StallClass = iota
	StallGroupWait
	StallTruncation
	NumStallClasses
)

var stallNames = [NumStallClasses]string{
	StallForce:      "force",
	StallGroupWait:  "group_wait",
	StallTruncation: "truncation",
}

// String returns the class's stable short name, used as the `class`
// label in the Prometheus exposition and in stall trace events.
func (c StallClass) String() string {
	if c < 0 || c >= NumStallClasses {
		return "unknown"
	}
	return stallNames[c]
}

// opGate tracks whether any goroutine is inside a watched operation and
// when the current busy episode began.  Entry and exit are two atomic
// ops each, cheap enough for the force path.  When several goroutines
// overlap in one class, start keeps the episode's first entry time, so
// the watchdog may over-estimate a later entrant's duration — an
// acceptable bias for a detector whose job is flagging multi-second
// outliers, not timing them precisely.
type opGate struct {
	active atomic.Int64
	start  atomic.Int64 // wall ns (UnixNano) of the 0->1 transition
}

// OpEnter marks entry into a watched operation of class c.
func (m *Metrics) OpEnter(c StallClass) {
	if m == nil || c < 0 || c >= NumStallClasses {
		return
	}
	g := &m.gates[c]
	if g.active.Add(1) == 1 {
		g.start.Store(time.Now().UnixNano())
	}
}

// OpExit marks exit from a watched operation of class c.
func (m *Metrics) OpExit(c StallClass) {
	if m == nil || c < 0 || c >= NumStallClasses {
		return
	}
	g := &m.gates[c]
	if g.active.Add(-1) == 0 {
		g.start.Store(0)
	}
}

// OpActiveSince returns the wall-clock time (UnixNano) when the current
// busy episode of class c began, or 0 when the class is idle.  The
// watchdog polls this.
func (m *Metrics) OpActiveSince(c StallClass) int64 {
	if m == nil || c < 0 || c >= NumStallClasses {
		return 0
	}
	g := &m.gates[c]
	if g.active.Load() <= 0 {
		return 0
	}
	return g.start.Load()
}

// RecordStall tallies one detected stall of class c that has been in
// flight for durNs so far.  Called by the watchdog, never by the
// stalled operation itself.
func (m *Metrics) RecordStall(c StallClass, durNs int64) {
	if m == nil || c < 0 || c >= NumStallClasses {
		return
	}
	m.stalls[c].Add(1)
	m.lastStallAt.Store(time.Now().UnixNano())
	m.lastStallDur.Store(durNs)
	m.lastStallClass.Store(int64(c) + 1) // +1 so 0 means "never stalled"
}

// StallStat is the JSON-marshalable stall tally of one class.
type StallStat struct {
	Class string `json:"class" label:"class"`
	Count uint64 `json:"count" prom:"rvm_stalls_total" help:"Operations the watchdog saw exceed the stall budget."`
}

// LastStall describes the most recently detected stall.
type LastStall struct {
	Class string `json:"class" label:"class"`
	DurNs int64  `json:"dur_ns" prom:"rvm_last_stall_duration_ns" help:"In-flight time of the most recent stall when detected."`
	AgoNs int64  `json:"ago_ns" prom:"rvm_last_stall_age_ns" help:"Nanoseconds since the most recent stall was detected."`
}

// stallStats summarizes the per-class tallies, in class order.
func (m *Metrics) stallStats() []StallStat {
	out := make([]StallStat, NumStallClasses)
	for c := StallClass(0); c < NumStallClasses; c++ {
		out[c] = StallStat{Class: c.String(), Count: m.stalls[c].Load()}
	}
	return out
}

// lastStall returns the most recent stall, or nil if none was ever
// detected.
func (m *Metrics) lastStall() *LastStall {
	cls := m.lastStallClass.Load()
	if cls == 0 {
		return nil
	}
	ago := time.Now().UnixNano() - m.lastStallAt.Load()
	if ago < 0 {
		ago = 0
	}
	return &LastStall{
		Class: StallClass(cls - 1).String(),
		DurNs: m.lastStallDur.Load(),
		AgoNs: ago,
	}
}
