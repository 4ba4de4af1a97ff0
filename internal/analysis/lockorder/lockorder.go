// Package lockorder verifies the engine's lock hierarchy (DESIGN.md
// §12) against every interprocedural acquisition path.
//
// The hierarchy is encoded once, as the machine-readable table in
// DefaultHierarchy — the single source of truth the design document
// cross-references.  The rule is strict descent: with a class-A lock
// held, only classes with a strictly greater level may be acquired.
// Two kinds of edge are flagged:
//
//   - an inversion: acquiring a lower-or-equal-level class while a
//     higher one is held (for Ordered classes, same-class nesting is
//     allowed — Region locks nest in ascending index order, which the
//     engine asserts dynamically in lockRegions);
//   - an unknown edge: a mutex that belongs to one of the hierarchy's
//     packages but is not in the table, interacting with a table lock
//     in either direction.  New engine locks must be placed in the
//     table deliberately, not discovered in a deadlock.
//
// Acquisitions are found both lexically (a Lock call under a held
// table lock) and through the whole-program summaries: a call made
// under a held lock is charged with every lock class the callee
// transitively acquires, excluding goroutine boundaries.  Locks owned
// by packages outside the table (applications wrapping the engine in
// their own mutexes) are ignored; locksync's sync/force rules cover
// those.
package lockorder

import (
	"go/ast"
	"go/token"

	"github.com/rvm-go/rvm/internal/analysis/framework"
)

// Analyzer is the lockorder pass over the default (engine) hierarchy.
var Analyzer = NewAnalyzer(DefaultHierarchy)

// NewAnalyzer builds a lockorder pass over an explicit hierarchy table;
// tests use it with a table scoped to their golden package.
func NewAnalyzer(h *Hierarchy) *framework.Analyzer {
	return &framework.Analyzer{
		Name: "lockorder",
		Doc:  "lock acquisitions must descend the DESIGN.md §12 hierarchy; unknown engine locks must be added to the table",
		Run: func(pass *framework.Pass) error {
			return run(pass, h)
		},
	}
}

func run(pass *framework.Pass, h *Hierarchy) error {
	w := &walker{pass: pass, h: h}
	hw := &framework.HeldWalker{Info: pass.TypesInfo, Prog: pass.Prog, Lock: w.checkLock, Call: w.checkCall}
	hw.Files(pass.Files)
	return nil
}

type walker struct {
	pass *framework.Pass
	h    *Hierarchy
}

// checkLock checks a lexical Lock against every lock held around it.
func (w *walker) checkLock(h framework.Held, held []framework.Held) {
	for _, hold := range held {
		w.checkEdge(hold, h.Key, h.Path, "", h.Pos)
	}
}

// checkCall charges a call under the held locks with the lock classes its
// callee transitively acquires.
func (w *walker) checkCall(call *ast.CallExpr, held []framework.Held) {
	if len(held) == 0 {
		return
	}
	fn := framework.Callee(w.pass.TypesInfo, call.Fun)
	for _, sum := range w.pass.Prog.SummariesOf(fn) {
		for key, eff := range sum.Acquires {
			for _, hold := range held {
				w.checkEdge(hold, key, key.String(), eff.Path, call.Pos())
			}
		}
	}
}

// checkEdge validates acquiring key while hold is held.  via names the
// call chain for summary-derived acquisitions ("" for lexical ones).
func (w *walker) checkEdge(hold framework.Held, key framework.LockKey, path, via string, pos token.Pos) {
	entry, holdEntry := w.h.Lookup(key), w.h.Lookup(hold.Key)
	chain := ""
	if via != "" {
		chain = " (via " + via + ")"
	}
	switch {
	case holdEntry != nil && entry != nil:
		if entry.Level > holdEntry.Level {
			return
		}
		if entry == holdEntry {
			// Reacquiring the same class is legal only for Ordered classes;
			// identical lexical paths would self-deadlock, but that is go
			// vet's domain, not ordering's.
			if entry.Ordered {
				return
			}
			w.pass.Reportf(pos, "lock %s%s acquired while already holding %s-class lock %s (locked at %s); class %s is not ordered — same-class nesting deadlocks",
				path, chain, holdEntry.Name, hold.Path, w.pass.Fset.Position(hold.Pos), entry.Name)
			return
		}
		w.pass.Reportf(pos, "lock-order inversion: %s (level %d, %s)%s acquired while holding %s (level %d, %s, locked at %s); the §12 hierarchy descends %s",
			path, entry.Level, entry.Name, chain, hold.Path, holdEntry.Level, holdEntry.Name, w.pass.Fset.Position(hold.Pos), w.h.Order())
	case holdEntry != nil && entry == nil && w.h.Covers(key):
		w.pass.Reportf(pos, "unknown lock edge: %s%s is not in the §12 hierarchy table but is acquired while holding %s (%s, locked at %s); add the new lock class to lockorder.DefaultHierarchy deliberately",
			path, chain, hold.Path, holdEntry.Name, w.pass.Fset.Position(hold.Pos))
	case holdEntry == nil && entry != nil && w.h.Covers(hold.Key):
		w.pass.Reportf(pos, "unknown lock edge: table lock %s (%s)%s acquired while holding %s, which belongs to an engine package but is not in the §12 hierarchy table; add it to lockorder.DefaultHierarchy deliberately",
			path, entry.Name, chain, hold.Path)
	}
}
