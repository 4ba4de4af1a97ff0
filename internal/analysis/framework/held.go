// The lexical held-mutex walk shared by the analyzers whose rules read
// "not X while holding Y" (locksync, obsleak, lockorder).
package framework

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// Held is one lexically acquired, not-yet-released mutex.
type Held struct {
	Key  LockKey // lock class; Key.Type names the owner ("Engine", "Log"), "" for a bare mutex
	Path string  // lexical path ("gc.mu"), or the class when the receiver is richer than a path
	Pos  token.Pos
}

// HeldWalker walks function bodies keeping the stack of held mutexes.  The
// tracking is a path-insensitive under-approximation: branch and loop
// bodies are explored with a copy of the stack (their lock/unlock effects
// don't leak out), closures and goroutines start with an empty one, and a
// deferred Unlock keeps the mutex held to the end of the function — other
// deferred work runs with this frame's locks in an unknown state, so it is
// not visited.  What counts as a mutex is MutexRef's decision.
//
// A call statement also applies its callee's lock hand-offs, from Prog's
// summaries: the classes the callee locks and never unlocks join held, and
// those it unlocks and never locks leave it (Summary.Leaves and Drops).
// Only a static callee whose body is loaded counts — under go vet, a helper
// from another package is not seen.
type HeldWalker struct {
	Info *types.Info
	Prog *Program
	// Lock, when set, sees each Lock/RLock statement before the mutex
	// joins held.
	Lock func(h Held, held []Held)
	// Call sees every other call expression with the mutexes held around it.
	Call func(call *ast.CallExpr, held []Held)
}

// Files walks every function declared in files.
func (w *HeldWalker) Files(files []*ast.File) {
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				w.stmts(fd.Body.List, nil)
			}
		}
	}
}

func (w *HeldWalker) stmts(list []ast.Stmt, held []Held) []Held {
	for _, s := range list {
		held = w.stmt(s, held)
	}
	return held
}

// branch walks a body whose lock effects stay inside it.
func (w *HeldWalker) branch(list []ast.Stmt, held []Held) {
	w.stmts(list, slices.Clone(held))
}

func (w *HeldWalker) stmt(s ast.Stmt, held []Held) []Held {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if recv, op := MutexRef(w.Info, s.X); op != "" {
			return w.mutexOp(recv, op, s.X.Pos(), held)
		}
		w.calls(s.X, held)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			return w.handOff(call, held)
		}
	case *ast.GoStmt:
		w.calls(s.Call, nil)
	case *ast.AssignStmt, *ast.ReturnStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.DeclStmt:
		w.calls(s, held)
	case *ast.BlockStmt:
		return w.stmts(s.List, held)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		w.calls(s.Cond, held)
		w.branch(s.Body.List, held)
		if s.Else != nil {
			w.stmt(s.Else, slices.Clone(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		w.calls(s.Cond, held)
		w.branch(s.Body.List, held)
	case *ast.RangeStmt:
		w.calls(s.X, held)
		w.branch(s.Body.List, held)
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		w.calls(s.Tag, held)
		w.clauses(s.Body, held)
	case *ast.TypeSwitchStmt:
		w.clauses(s.Body, held)
	case *ast.SelectStmt:
		w.clauses(s.Body, held)
	}
	return held
}

func (w *HeldWalker) clauses(body *ast.BlockStmt, held []Held) {
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			w.branch(c.Body, held)
		case *ast.CommClause:
			w.branch(c.Body, held)
		}
	}
}

// mutexOp pushes a Lock onto held or drops the matching entry on Unlock.
// A mutex with neither a path nor a class cannot be matched up again and is
// not tracked.
func (w *HeldWalker) mutexOp(recv ast.Expr, op string, pos token.Pos, held []Held) []Held {
	h := Held{Key: LockKeyOf(w.Info, recv), Path: ExprPath(recv), Pos: pos}
	if h.Path == "" {
		if h.Key.IsZero() {
			return held
		}
		h.Path = h.Key.String()
	}
	switch op {
	case "Lock", "RLock":
		if w.Lock != nil {
			w.Lock(h, held)
		}
		return append(held, h)
	default:
		for i := len(held) - 1; i >= 0; i-- {
			if held[i].Path == h.Path {
				return append(slices.Clone(held[:i]), held[i+1:]...)
			}
		}
	}
	return held
}

// handOff applies the lock hand-offs of call's callee to held.  An entry a
// helper left has its class for a path.
func (w *HeldWalker) handOff(call *ast.CallExpr, held []Held) []Held {
	sum := w.Prog.SummaryOf(Callee(w.Info, call.Fun))
	if sum == nil {
		return held
	}
	for _, key := range sum.Drops {
		held = slices.DeleteFunc(slices.Clone(held), func(h Held) bool { return h.Key == key })
	}
	for _, key := range sum.Leaves {
		held = append(held, Held{Key: key, Path: key.String(), Pos: call.Pos()})
	}
	return held
}

// calls reports the call expressions under n; a closure inside is walked as
// a function of its own.
func (w *HeldWalker) calls(n ast.Node, held []Held) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			w.stmts(m.Body.List, nil)
			return false
		case *ast.CallExpr:
			w.Call(m, held)
		}
		return true
	})
}
