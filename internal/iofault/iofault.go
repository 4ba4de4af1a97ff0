// Package iofault is the storage seam shared by the WAL and segment layers,
// and the three devices that tests put behind it.
//
// The paper factors media resilience out of RVM (§2): the library assumes
// the log force and segment writes either succeed or the process dies.
// Every byte RVM persists flows through the Device interface below, so one
// seam simulates a messier storage stack against both the log and the
// external data segments:
//
//   - Injector fails operations on a schedule — transient errors that clear
//     on retry, permanent failures, torn writes, fsync failures — counts
//     operations and bytes, and runs a test's hook before each one.
//   - Cache is a volatile write cache: what a crash keeps of the writes
//     since the last Sync.  The log and the segments join one machine,
//     which loses power after a write budget; Crash then keeps every
//     unsynced sector (KeepAll: the crossing write torn as a prefix), none
//     (DropAll), each with a seeded probability, or a chosen set.
//   - Mem is a device in memory.
//
// Fault classification: an error that wraps ErrTransient (or EINTR/EAGAIN
// from a real kernel) is worth retrying; anything else is treated as
// non-recoverable and poisons the engine (see internal/core).
package iofault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"syscall"
)

// Device is the storage a log or segment runs on.  *os.File satisfies it.
type Device interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
	Close() error
}

var (
	// ErrTransient marks an injected fault that may clear on retry.
	ErrTransient = errors.New("iofault: transient I/O error")
	// ErrPermanent marks an injected fault that never clears.
	ErrPermanent = errors.New("iofault: permanent I/O error")
)

// IsTransient reports whether err is worth retrying: an injected transient
// fault, or one of the kernel errnos that mean "try again".
func IsTransient(err error) bool {
	return errors.Is(err, ErrTransient) ||
		errors.Is(err, syscall.EINTR) ||
		errors.Is(err, syscall.EAGAIN)
}

// Op selects the device operations a Fault applies to.
type Op uint8

const (
	OpRead Op = 1 << iota
	OpWrite
	OpSync
)

// Fault is one injected failure mode.  The zero value of each field is the
// benign default; combine fields freely.
type Fault struct {
	// Ops selects which operation classes the fault intercepts.
	Ops Op
	// After lets that many matching operations through before the fault
	// becomes active.
	After int
	// Count is how many operations fail before the fault clears — the
	// "transient error that clears after N ops" shape.  Negative means the
	// fault is permanent and never clears.
	Count int
	// Prob, when in (0,1), makes each eligible operation fail only with
	// that probability, using the injector's seeded RNG.  0 (or >= 1)
	// means every eligible operation fails deterministically.
	Prob float64
	// Torn applies to writes: the fault writes a prefix of the buffer to
	// the backing device before failing, simulating a torn sector write.
	Torn bool
	// TornFrac is the fraction of the buffer a torn write persists;
	// 0 means half.  The prefix is always strictly shorter than the buffer.
	TornFrac float64
}

// err returns the error this fault injects: ErrPermanent for a permanent
// fault (Count < 0), ErrTransient otherwise.
func (f *Fault) err() error {
	if f.Count < 0 {
		return fmt.Errorf("%w (injected)", ErrPermanent)
	}
	return fmt.Errorf("%w (injected)", ErrTransient)
}

// Stats counts injector activity.
type Stats struct {
	Reads      uint64 // read operations attempted
	Writes     uint64 // write operations attempted
	Syncs      uint64 // sync operations attempted
	ReadBytes  uint64 // bytes the reads asked for
	WriteBytes uint64 // bytes the writes offered
	Faults     uint64 // operations that were failed by a fault
}

// Injector wraps a Device and applies a configured schedule of faults.
// All methods are safe for concurrent use.  The hook and the device call
// run outside the injector's lock: the injector wraps the WAL device, and
// group commit depends on a sync (or a hook holding one up) never
// serializing concurrent appends through the wrapper, the discipline
// wal.Log.Force follows with its own mutex.  It traces nothing: a fault it
// injects reaches the engine as an error, which the engine records as a
// retry or as the fault that poisoned it.
type Injector struct {
	mu     sync.Mutex
	dev    Device
	rng    *rand.Rand
	faults []*Fault
	stats  Stats
	hook   func(op Op, off int64, n int)
}

// SetHook makes h run before every operation, with the operation's class,
// offset and length (0, 0 for a sync), in place of any earlier hook.
func (in *Injector) SetHook(h func(op Op, off int64, n int)) {
	in.mu.Lock()
	in.hook = h
	in.mu.Unlock()
}

// NewInjector wraps dev; seed drives the probabilistic faults.
func NewInjector(dev Device, seed int64) *Injector {
	return &Injector{dev: dev, rng: rand.New(rand.NewSource(seed))}
}

// Add appends a fault to the schedule.  Faults are consulted in insertion
// order; the first active fault matching an operation fires.
func (in *Injector) Add(f Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.faults = append(in.faults, &f)
}

// Clear drops the whole fault schedule (the operator replaced the disk).
func (in *Injector) Clear() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.faults = nil
}

// Stats returns a snapshot of the activity counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// begin counts one operation, runs the hook and returns a copy of the fault
// that fires for it, or nil.  Skip counters and fault budgets are consumed
// here, under mu; the copy is what the caller may read without it.
func (in *Injector) begin(op Op, off int64, n int) *Fault {
	in.mu.Lock()
	switch op {
	case OpRead:
		in.stats.Reads++
		in.stats.ReadBytes += uint64(n)
	case OpWrite:
		in.stats.Writes++
		in.stats.WriteBytes += uint64(n)
	default:
		in.stats.Syncs++
	}
	var fired *Fault
	for _, f := range in.faults {
		if f.Ops&op == 0 {
			continue
		}
		if f.After > 0 {
			f.After--
			continue
		}
		if f.Count == 0 {
			continue // exhausted: the transient condition cleared
		}
		if f.Prob > 0 && f.Prob < 1 && in.rng.Float64() >= f.Prob {
			continue
		}
		if f.Count > 0 {
			f.Count--
		}
		c := *f
		fired = &c
		in.stats.Faults++
		break
	}
	hook := in.hook
	in.mu.Unlock()
	if hook != nil {
		hook(op, off, n)
	}
	return fired
}

// ReadAt reads through to the device unless a read fault fires.
func (in *Injector) ReadAt(p []byte, off int64) (int, error) {
	if f := in.begin(OpRead, off, len(p)); f != nil {
		return 0, f.err()
	}
	return in.dev.ReadAt(p, off)
}

// WriteAt writes through to the device unless a write fault fires; a torn
// fault persists a strict prefix of p first.
func (in *Injector) WriteAt(p []byte, off int64) (int, error) {
	f := in.begin(OpWrite, off, len(p))
	if f == nil {
		return in.dev.WriteAt(p, off)
	}
	if f.Torn && len(p) > 1 {
		frac := f.TornFrac
		if frac <= 0 || frac >= 1 {
			frac = 0.5
		}
		if n := min(int(float64(len(p))*frac), len(p)-1); n > 0 {
			if _, werr := in.dev.WriteAt(p[:n], off); werr != nil {
				return 0, werr
			}
			return n, f.err()
		}
	}
	return 0, f.err()
}

// Sync syncs the device unless a sync fault fires.
func (in *Injector) Sync() error {
	if f := in.begin(OpSync, 0, 0); f != nil {
		return f.err()
	}
	return in.dev.Sync()
}

// Close closes the backing device; faults never block release of resources.
func (in *Injector) Close() error { return in.dev.Close() }
