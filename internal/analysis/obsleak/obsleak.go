// Package obsleak guards the observability layer's two hot-path
// promises: emission is allocation-free, and emission never runs under a
// fine-grained protocol mutex.
//
// PR 4's instrumentation (internal/obs) is designed so that enabling
// tracing and metrics costs a handful of atomic stores per event — cheap
// enough to leave on in production.  Both promises are programming
// discipline the compiler never checks, so this analyzer does:
//
//   - Rule A: a call to an obs emission method (Record, Span, Observe*,
//     Set*, Add*, and the heavier Snapshot/Events/WriteTrace exports)
//     while holding ANY mutex.  Since the engine-lock decomposition
//     there is no Engine exception: the commit hot path holds region
//     locks and the log-pipeline lock, and every mutex in the system
//     (wal.Log.mu, groupCommit.mu, iofault.Injector.mu, Engine.mu,
//     Region.mu, pipeline.mu) must be released before emitting —
//     capture the handle and the values under the lock, emit after
//     unlocking.  Reading the tracer clock (Now) and the gauge and
//     tracer read accessors are exempt: they are single atomic loads.
//   - Rule B: an argument to an emission call that allocates — a fmt or
//     strconv call, string concatenation, a string/[]byte conversion, a
//     composite literal, make/new/append, or a closure.  Event payloads
//     are fixed-width integers precisely so instrumentation sites never
//     build strings; an allocating argument silently reintroduces the
//     cost (and GC pressure) the ring buffer exists to avoid.
//
// The held-set tracking is framework.HeldWalker's path-insensitive
// under-approximation, shared with locksync.
package obsleak

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/rvm-go/rvm/internal/analysis/framework"
)

// Analyzer is the obsleak pass.
var Analyzer = &framework.Analyzer{
	Name: "obsleak",
	Doc:  "obs emission must not allocate or run under any held mutex",
	Run:  run,
}

func run(pass *framework.Pass) error {
	w := &walker{pass: pass}
	hw := &framework.HeldWalker{Info: pass.TypesInfo, Prog: pass.Prog, Call: w.checkCall}
	hw.Files(pass.Files)
	return nil
}

type walker struct {
	pass *framework.Pass
}

// checkCall applies both rules to one call.
func (w *walker) checkCall(call *ast.CallExpr, held []framework.Held) {
	info := w.pass.TypesInfo
	fn := framework.Callee(info, call.Fun)
	if !isObsEmit(fn) {
		return
	}
	// Rule B: allocating arguments, reported wherever the emission sits.
	for _, arg := range call.Args {
		if what, pos := allocates(info, arg); what != "" {
			w.pass.Reportf(pos, "argument to %s.%s allocates (%s); obs emission is hot-path code and must stay allocation-free — precompute integers outside the instrumentation call",
				framework.RecvName(fn), fn.Name(), what)
		}
	}
	// Rule A: emission under any held mutex.
	for _, h := range held {
		w.pass.Reportf(call.Pos(), "%s.%s called while holding %s (locked at %s); capture values under the lock and emit after unlocking",
			framework.RecvName(fn), fn.Name(), h.Path, w.pass.Fset.Position(h.Pos))
		return
	}
}

// isObsEmit reports whether fn is a method on one of internal/obs's
// instrument types, excluding the single-atomic-load read accessors that
// are safe anywhere.
func isObsEmit(fn *types.Func) bool {
	recv := framework.RecvOf(fn)
	if recv == nil {
		return false
	}
	obsType := framework.TypeIs(recv, "internal/obs", "Tracer") ||
		framework.TypeIs(recv, "internal/obs", "Metrics") ||
		framework.TypeIs(recv, "internal/obs", "Hist") ||
		framework.TypeIs(recv, "internal/obs", "Gauge")
	if !obsType {
		return false
	}
	switch fn.Name() {
	case "Now", "Capacity", "Recorded", "Load":
		return false
	}
	return true
}

// allocates finds the first allocating sub-expression of an emission
// argument and names it; ("", NoPos) means the argument is clean.
// Constant expressions never allocate, whatever their shape.
func allocates(info *types.Info, arg ast.Expr) (what string, pos token.Pos) {
	ast.Inspect(arg, func(n ast.Node) bool {
		if what != "" {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := info.Types[e]; ok && tv.Value != nil {
			return false // constant-folded: no runtime allocation
		}
		switch e := e.(type) {
		case *ast.CompositeLit:
			what, pos = "composite literal", e.Pos()
		case *ast.FuncLit:
			what, pos = "closure", e.Pos()
		case *ast.BinaryExpr:
			if e.Op == token.ADD && isString(info, e) {
				what, pos = "string concatenation", e.Pos()
			}
		case *ast.CallExpr:
			what, pos = callAllocates(info, e)
		}
		return what == ""
	})
	return what, pos
}

// callAllocates classifies one call inside an emission argument.
func callAllocates(info *types.Info, call *ast.CallExpr) (string, token.Pos) {
	// Conversions: string <-> []byte/[]rune copy their operand.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		t := tv.Type.Underlying()
		if _, isSlice := t.(*types.Slice); isSlice || isStringType(t) {
			return "string/slice conversion", call.Pos()
		}
		return "", token.NoPos
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "make", "new", "append":
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				return id.Name, call.Pos()
			}
		}
	}
	if fn := framework.Callee(info, call.Fun); fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "fmt", "strconv":
			return fn.Pkg().Path() + "." + fn.Name(), call.Pos()
		}
	}
	return "", token.NoPos
}

func isString(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Type != nil && isStringType(tv.Type.Underlying())
}

func isStringType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
