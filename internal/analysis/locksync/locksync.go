// Package locksync flags device syncs performed while holding a mutex —
// the invariant behind PR 2's group commit.
//
// An fsync is the slowest operation in the system (the paper's entire
// design revolves around amortizing it); serializing it under a
// fine-grained mutex collapses group commit back to one-writer-at-a-time
// and can deadlock followers waiting on the same lock.  The repo's own
// discipline, established in PR 2, is explicit: wal.Log.Force releases
// l.mu around dev.Sync(), and the group-commit leader forces holding
// neither gc.mu nor e.mu.
//
// Three rules:
//
//   - Rule A: a raw device sync — (*os.File).Sync, a Sync method on a
//     Device interface, or syscall.Fsync/Fdatasync — under ANY held
//     mutex.  There is never a reason to hold a lock across the raw
//     syscall.
//   - Rule B: a module method named Force or Sync (which syncs
//     transitively) under ANY held mutex.  Since the engine-lock
//     decomposition there is no exception: the engine forces the log
//     after releasing the truncation-claim lock, the region locks, and the
//     pipeline lock, so a force under wal.Log.mu, groupCommit.mu,
//     iofault.Injector.mu, Engine.mu, Region.mu, or pipeline.mu is
//     always a regression that re-serializes group commit.
//   - Rule C: time.Sleep, such as a retry's back-off, under a lock of
//     the engine's hierarchy (lockorder.DefaultHierarchy), where it
//     stalls every committer waiting on that lock.  A modelled device
//     may sleep under its own lock to serve one sync at a time.
//
// Lock order — a Region lock taken under the pipeline lock, say — is the
// lockorder analyzer's.
//
// All three rules are interprocedural: each call site under a held
// mutex is checked against the callee's whole-program effect summary
// (framework.Summary), so a sync reached through any chain of helpers —
// SetHead → setHeadLocked → persistStatusLocked → Device.Sync — is
// flagged at the outermost call made under the lock, with the chain in
// the message.  Method values count as calls: `e.retryIO(e.log.Force)`
// invokes Force right there for this analysis's purposes.
//
// The held-set tracking itself is framework.HeldWalker's path-insensitive
// under-approximation.
package locksync

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/rvm-go/rvm/internal/analysis/framework"
	"github.com/rvm-go/rvm/internal/analysis/lockorder"
)

// Analyzer is the locksync pass, with Rule C over the engine's hierarchy.
var Analyzer = NewAnalyzer(lockorder.DefaultHierarchy)

// NewAnalyzer builds a locksync pass whose Rule C covers the locks of h;
// tests use it with a table scoped to their golden package.
func NewAnalyzer(h *lockorder.Hierarchy) *framework.Analyzer {
	return &framework.Analyzer{
		Name: "locksync",
		Doc:  "no fsync/Force under a held mutex, no sleep under an engine lock",
		Run: func(pass *framework.Pass) error {
			w := &walker{pass: pass, h: h}
			hw := &framework.HeldWalker{Info: pass.TypesInfo, Prog: pass.Prog, Call: w.checkCall}
			hw.Files(pass.Files)
			return nil
		},
	}
}

type walker struct {
	pass *framework.Pass
	h    *lockorder.Hierarchy
}

// checkCall applies the rules to one call: its callee, and any
// method values passed as arguments (e.retryIO(e.log.Force) forces).
func (w *walker) checkCall(call *ast.CallExpr, held []framework.Held) {
	if len(held) == 0 {
		return
	}
	info := w.pass.TypesInfo
	w.checkFunc(framework.Callee(info, call.Fun), call.Pos(), held)
	for _, arg := range call.Args {
		if sel, ok := ast.Unparen(arg).(*ast.SelectorExpr); ok {
			if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				w.checkFunc(framework.Callee(info, sel), arg.Pos(), held)
			}
		}
	}
}

// checkFunc reports fn if it is a sync target forbidden under the held
// mutexes (the first one is named), or a sleep under an engine lock —
// directly, or transitively through its whole-program effect summary.
func (w *walker) checkFunc(fn *types.Func, pos token.Pos, held []framework.Held) {
	if fn == nil {
		return
	}
	w.checkSleep(fn, pos, held)
	h, at := held[0], w.pass.Fset.Position(held[0].Pos)
	if framework.IsRawSyncFunc(fn) {
		w.pass.Reportf(pos, "%s called while holding %s (locked at %s); release the mutex around the device sync — fsync under a lock serializes group commit",
			fn.Name(), h.Path, at)
		return
	}
	if framework.IsForceMethod(fn) {
		w.pass.Reportf(pos, "%s.%s called while holding %s (locked at %s); the engine forces the log holding no lock — release the mutex first or group commit re-serializes",
			framework.RecvName(fn), fn.Name(), h.Path, at)
		return
	}
	// Interprocedural rules: consult the callee's effect summaries.  An
	// interface method contributes the summary of every loaded
	// implementer — dispatch is not a blind spot.
	for _, sum := range w.pass.Prog.SummariesOf(fn) {
		if sum.Syncs != nil {
			w.pass.Reportf(pos, "call to %s performs a device sync (via %s) while holding %s (locked at %s); release the mutex around the chain — fsync under a lock serializes group commit",
				fn.Name(), sum.Syncs.Path, h.Path, at)
			return
		}
		if sum.Forces != nil {
			w.pass.Reportf(pos, "call to %s forces the log (via %s) while holding %s (locked at %s); the engine forces holding no lock — release the mutex first or group commit re-serializes",
				fn.Name(), sum.Forces.Path, h.Path, at)
			return
		}
	}
}

// checkSleep is Rule C: fn reaching time.Sleep under a lock of w.h.
func (w *walker) checkSleep(fn *types.Func, pos token.Pos, held []framework.Held) {
	what := ""
	if framework.IsSleepFunc(fn) {
		what = "time.Sleep called"
	}
	for _, sum := range w.pass.Prog.SummariesOf(fn) {
		if sum.Sleeps != nil {
			what = "call to " + fn.Name() + " sleeps (via " + sum.Sleeps.Path + ")"
		}
	}
	for _, h := range held {
		if what != "" && w.h.Lookup(h.Key) != nil {
			w.pass.Reportf(pos, "%s while holding %s (locked at %s); back off with the engine's locks released — a sleep under one stalls every committer waiting on it",
				what, h.Path, w.pass.Fset.Position(h.Pos))
			return
		}
	}
}
