// The machine-readable lock-hierarchy table.  This file is the single
// source of truth for the engine's lock order: DESIGN.md §12 documents
// it, the lockorder analyzer enforces it, and new engine locks must be
// added here (with a level) before they ship.
package lockorder

import (
	"sort"
	"strings"

	"github.com/rvm-go/rvm/internal/analysis/framework"
)

// An Entry places one lock class in the hierarchy.  Levels strictly
// increase inward: with a level-L lock held, only classes of level > L
// may be acquired.
type Entry struct {
	// Pkg is the defining package's import path, matched by suffix
	// ("internal/core" matches github.com/rvm-go/rvm/internal/core).
	Pkg string
	// Type is the named type owning the mutex field ("" for a
	// package-level mutex variable).
	Type string
	// Field is the mutex field or variable name.
	Field string
	// Level is the position in the hierarchy; larger is further inward.
	Level int
	// Ordered allows same-class nesting under an intra-class discipline
	// the table cannot express statically: Region locks nest in
	// ascending index order (asserted at runtime by core.lockRegions),
	// and stacked fault injectors nest in wrap order, outer before
	// inner, fixed at construction.
	Ordered bool
	// Name is the human name used in diagnostics and DESIGN.md.
	Name string
}

// Hierarchy is an ordered set of lock classes plus the set of packages
// it claims: any mutex owned by a covered package that is not in the
// table is an "unknown edge" when it interacts with a table lock.
type Hierarchy struct {
	Entries []Entry
}

// DefaultHierarchy is the engine's lock order from DESIGN.md §12,
// outermost first:
//
//	Engine.mu → Region.mu (ascending index) →
//	pipeline.mu → groupCommit.mu → wal.Log.mu →
//	iofault.machine.mu (wrap order) → iofault.Injector.mu (wrap order)
//
// Engine.mu is the truncation claim's lock, held only to take, give back
// or wait for the claim; the claim's holder owns the segment table and
// the regions slice with no lock held.  Region locks are held
// across the commit pipeline section; pipeline.mu is the innermost
// engine-side lock; the group-commit window and the WAL's own mutex sit
// below the engine (a commit holding no engine lock may take them); a
// write cache's machine lock is held across its device's operations, and
// the fault injector's mutex is the innermost leaf: both are taken by the
// WAL's and the segments' device operations.
//
// An engine has one pipeline and one group-commit lock, so nesting two
// of either class is two engines' locks taken in no fixed order, and is
// flagged.  Injector and machine are Ordered because devices stack: an
// Injector's or a Cache's inner device may itself be one, and same-class
// nesting then follows the wrap order fixed at construction.
var DefaultHierarchy = &Hierarchy{Entries: []Entry{
	{Pkg: "internal/core", Type: "Engine", Field: "mu", Level: 10, Name: "truncation-claim lock"},
	{Pkg: "internal/core", Type: "Region", Field: "mu", Level: 20, Ordered: true, Name: "region lock"},
	{Pkg: "internal/core", Type: "pipeline", Field: "mu", Level: 30, Name: "log-pipeline lock"},
	{Pkg: "internal/core", Type: "groupCommit", Field: "mu", Level: 40, Name: "group-commit window lock"},
	{Pkg: "internal/wal", Type: "Log", Field: "mu", Level: 50, Name: "WAL mutex"},
	{Pkg: "internal/iofault", Type: "machine", Field: "mu", Level: 55, Ordered: true, Name: "write-cache lock"},
	{Pkg: "internal/iofault", Type: "Injector", Field: "mu", Level: 60, Ordered: true, Name: "fault-injector lock"},
}}

// Lookup resolves a lock class to its table entry, or nil.
func (h *Hierarchy) Lookup(key framework.LockKey) *Entry {
	for i := range h.Entries {
		e := &h.Entries[i]
		if e.Type != key.Type || e.Field != key.Field {
			continue
		}
		if key.Pkg == e.Pkg || strings.HasSuffix(key.Pkg, e.Pkg) {
			return e
		}
	}
	return nil
}

// Covers reports whether key's defining package is claimed by the
// table: its locks must either be in the table or never interact with
// table locks.
func (h *Hierarchy) Covers(key framework.LockKey) bool {
	for i := range h.Entries {
		e := &h.Entries[i]
		if key.Pkg == e.Pkg || strings.HasSuffix(key.Pkg, e.Pkg) {
			return true
		}
	}
	return false
}

// Order renders the hierarchy for diagnostics, outermost first.
func (h *Hierarchy) Order() string {
	entries := append([]Entry(nil), h.Entries...)
	sort.Slice(entries, func(i, j int) bool { return entries[i].Level < entries[j].Level })
	var parts []string
	for _, e := range entries {
		parts = append(parts, e.Name)
	}
	return strings.Join(parts, " → ")
}
