// Package uncheckedcommit flags discarded errors from RVM's durability
// API and code that retries past ErrPoisoned.
//
// A Commit(Flush) return is the acknowledgement point of the whole
// design: the transaction is durable if and only if the call returned
// nil.  Dropping that error (or the error of Flush, Force, Truncate,
// Checkpoint, CreateLog, CreateSegment) turns a reported storage failure into silent
// data loss.  Blank-discarding the error of Begin or Map is flagged too:
// both return a nil handle on failure, so the discard converts a clean
// error into a later nil dereference — and after the engine has
// fail-stopped (PR 1), Begin is exactly where ErrPoisoned surfaces.
//
// The second check preserves the fail-stop model itself: ErrPoisoned is
// terminal.  A loop that observes it and keeps going (continue, or simply
// falling through to the next attempt) is wrong by construction — the
// engine refuses all further mutation, so the retry can only spin.
package uncheckedcommit

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/rvm-go/rvm/internal/analysis/framework"
)

// Analyzer is the uncheckedcommit pass.
var Analyzer = &framework.Analyzer{
	Name: "uncheckedcommit",
	Doc:  "errors from Commit/Flush/Force/Truncate/Checkpoint must be checked; ErrPoisoned must not be retried",
	Run:  run,
}

// mustCheck are module methods whose error result is an acknowledgement
// that must not be dropped even explicitly.
func isMustCheckMethod(name string) bool {
	switch name {
	case "Commit", "CommitUndo", "Flush", "Force", "Truncate", "TruncateIncremental", "Checkpoint":
		return true
	}
	return false
}

// mustCheck package-level functions (setup primitives).
func isMustCheckFunc(name string) bool {
	return name == "CreateLog" || name == "CreateSegment"
}

// nilOnError are module methods returning (handle, error) where blanking
// the error leaves a nil handle in play.
func isNilOnError(name string) bool {
	return name == "Begin" || name == "Map"
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				reportDropped(pass, n.X, "")
			case *ast.DeferStmt:
				reportDropped(pass, n.Call, "deferred ")
			case *ast.GoStmt:
				reportDropped(pass, n.Call, "spawned ")
			case *ast.AssignStmt:
				checkBlankAssign(pass, n)
			case *ast.IfStmt:
				checkPoisonRetry(pass, f, n)
			}
			return true
		})
	}
	return nil
}

// target classifies a call against the checked API; returns the flagged
// name and whether the error is the sole result.
func target(info *types.Info, e ast.Expr) (fn *types.Func, kind string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	f := framework.Callee(info, call.Fun)
	if f == nil || !framework.IsModuleFunc(f) {
		return nil, ""
	}
	if framework.RecvOf(f) != nil {
		if isMustCheckMethod(f.Name()) && returnsError(f) {
			return f, "must"
		}
		if isNilOnError(f.Name()) && returnsError(f) {
			return f, "nil"
		}
		return nil, ""
	}
	if isMustCheckFunc(f.Name()) && returnsError(f) {
		return f, "must"
	}
	return nil, ""
}

// returnsError reports whether fn's last result is error.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

// reportDropped flags a statement that discards every result of a checked
// call.
func reportDropped(pass *framework.Pass, e ast.Expr, prefix string) {
	fn, kind := target(pass.TypesInfo, e)
	if fn == nil || kind != "must" {
		return
	}
	pass.Reportf(e.Pos(), "%serror of %s is discarded; a failed %s means the data is not durable (fail-stop: check for ErrPoisoned)",
		prefix, fn.Name(), fn.Name())
}

// checkBlankAssign flags assignments that blank the error result of a
// checked call: `_ = tx.Commit(...)`, `tx, _ := db.Begin(...)`,
// `undo, _ := tx.CommitUndo(...)`.
func checkBlankAssign(pass *framework.Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	fn, kind := target(pass.TypesInfo, as.Rhs[0])
	if fn == nil {
		return
	}
	// The error is the last result; the corresponding LHS must not be _.
	last := as.Lhs[len(as.Lhs)-1]
	id, ok := ast.Unparen(last).(*ast.Ident)
	if !ok || id.Name != "_" {
		return
	}
	switch kind {
	case "must":
		pass.Reportf(as.Pos(), "error of %s is blanked; a failed %s means the data is not durable", fn.Name(), fn.Name())
	case "nil":
		pass.Reportf(as.Pos(), "error of %s is blanked; %s returns a nil handle on failure (and ErrPoisoned after a fail-stop), so this hides the failure until a nil dereference", fn.Name(), fn.Name())
	}
}

// checkPoisonRetry flags an ErrPoisoned test inside a loop whose branch
// does not leave the loop.
func checkPoisonRetry(pass *framework.Pass, file *ast.File, ifStmt *ast.IfStmt) {
	if !condTestsPoisoned(pass.TypesInfo, ifStmt.Cond) {
		return
	}
	loop := enclosingLoopOf(file, ifStmt)
	if loop == nil {
		return
	}
	if branchExitsLoop(ifStmt.Body) {
		return
	}
	pass.Reportf(ifStmt.Pos(), "ErrPoisoned is observed but the loop continues; the engine has fail-stopped and every retry will fail (return the error instead)")
}

// condTestsPoisoned matches errors.Is(err, ErrPoisoned) and
// err == ErrPoisoned (possibly under ! or &&/||).
func condTestsPoisoned(info *types.Info, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.NOT {
				return false // !errors.Is(...) guards the non-poisoned path
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Is" && len(n.Args) == 2 {
				if isPoisonedVar(info, n.Args[1]) {
					found = true
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL && (isPoisonedVar(info, n.X) || isPoisonedVar(info, n.Y)) {
				found = true
			}
			if n.Op == token.NEQ {
				return false
			}
		}
		return !found
	})
	return found
}

func isPoisonedVar(info *types.Info, e ast.Expr) bool {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false
	}
	obj := info.Uses[id]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	_, isVar := obj.(*types.Var)
	return isVar && obj.Name() == "ErrPoisoned"
}

// enclosingLoopOf finds the innermost for/range statement containing n.
func enclosingLoopOf(file *ast.File, n ast.Node) ast.Stmt {
	var stack []ast.Node
	var found ast.Stmt
	ast.Inspect(file, func(m ast.Node) bool {
		if m == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, m)
		if m == n {
			for i := len(stack) - 2; i >= 0; i-- {
				switch s := stack[i].(type) {
				case *ast.ForStmt:
					found = s
					return false
				case *ast.RangeStmt:
					found = s
					return false
				case *ast.FuncLit:
					// The loop, if any, is outside this closure's frame.
					return false
				}
			}
			return false
		}
		return true
	})
	return found
}

// branchExitsLoop reports whether the if-body unconditionally leaves the
// loop: it ends in (or consists of) return, break, goto, panic, or a
// Fatal-style call.
func branchExitsLoop(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return last.Tok == token.BREAK || last.Tok == token.GOTO
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				return fun.Name == "panic"
			case *ast.SelectorExpr:
				name := fun.Sel.Name
				return name == "Fatal" || name == "Fatalf" || name == "Exit"
			}
		}
	}
	return false
}
