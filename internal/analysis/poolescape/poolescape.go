// Package poolescape checks the lifecycle of pooled buffers: a value
// obtained from a sync.Pool must not be used after it is Put back, and
// must not be retained — returned or stored into longer-lived state —
// past a deferred Put.
//
// The WAL's encode buffers are the motivating case: appendLocked takes
// an encBuf from the pool and defers its release; once release runs,
// the pool may hand the same buffer to another goroutine, so any alias
// that outlives the function (a returned chunk, a slice stashed in a
// struct field) is a cross-transaction data race that only manifests
// under load.  The trace ring in internal/obs has the same shape with a
// different mechanism: a *slot points into the ring and is recycled
// when the ring wraps, so slot pointers must stay function-local and
// payloads must be copied out (obs.Events does exactly that).
//
// Tracked sources:
//
//   - x := pool.Get() / pool.Get().(*T) for any sync.Pool;
//   - s := &r.slots[i] where the element's named type is `slot` — a
//     ring-slot pointer, treated as if its Put were always pending.
//
// A Put is (*sync.Pool).Put(x) directly, or a call to a module function
// whose whole-program summary records that it Puts the corresponding
// parameter or receiver (framework.Summary.Puts) — so `defer
// eb.release()` counts, through any depth of helpers.
//
// Rules, walked path-insensitively like locksync (branches see a copy
// of the tracked state):
//
//   - use after Put: any appearance of x after a non-deferred Put of x;
//   - escape past Put: with a Put pending (deferred, or implicit for
//     ring slots), returning x or an alias rooted at x (x.field,
//     x.buf[i:j]), or assigning one to anything other than a plain
//     local variable.
package poolescape

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/rvm-go/rvm/internal/analysis/framework"
)

// Analyzer is the poolescape pass.
var Analyzer = &framework.Analyzer{
	Name: "poolescape",
	Doc:  "pooled buffers must not be used after Put or escape past a deferred Put",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &walker{pass: pass}
			w.stmtList(fd.Body.List, state{})
		}
	}
	return nil
}

// tracked is the lifecycle state of one pooled variable.
type tracked struct {
	getPos      token.Pos // where it came from the pool
	putPos      token.Pos // non-deferred Put position (0 while live)
	deferredPut bool      // a Put is pending at function exit
	ringSlot    bool      // &ring.slots[i]: recycled implicitly
	reported    bool      // one report per variable is enough
}

type state map[types.Object]*tracked

func (s state) clone() state {
	c := make(state, len(s))
	for k, v := range s {
		cp := *v
		c[k] = &cp
	}
	return c
}

type walker struct {
	pass *framework.Pass
}

func (w *walker) stmtList(list []ast.Stmt, st state) {
	for _, s := range list {
		w.stmt(s, st)
	}
}

func (w *walker) stmt(s ast.Stmt, st state) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		w.assign(s, st)
	case *ast.ExprStmt:
		if !w.put(s.X, st, false) {
			w.checkUses(s.X, st)
		}
	case *ast.DeferStmt:
		w.put(s.Call, st, true)
	case *ast.GoStmt:
		// The goroutine outlives this frame's deferred Puts; treat a
		// pooled variable captured by a go statement as an escape.
		for obj, t := range st {
			if t.reported || t.putPos != 0 || !(t.deferredPut || t.ringSlot) {
				continue
			}
			if usesObj(w.pass.TypesInfo, s.Call, obj) {
				t.reported = true
				w.report(s.Pos(), obj, t, "captured by a goroutine")
			}
		}
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			w.checkEscape(res, st, "returned")
		}
		w.checkUses(s, st)
	case *ast.BlockStmt:
		w.stmtList(s.List, st)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		w.checkUses(s.Cond, st)
		w.stmtList(s.Body.List, st.clone())
		if s.Else != nil {
			w.stmt(s.Else, st.clone())
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		if s.Cond != nil {
			w.checkUses(s.Cond, st)
		}
		w.stmtList(s.Body.List, st.clone())
	case *ast.RangeStmt:
		w.checkUses(s.X, st)
		w.stmtList(s.Body.List, st.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		if s.Tag != nil {
			w.checkUses(s.Tag, st)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmtList(cc.Body, st.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmtList(cc.Body, st.clone())
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmtList(cc.Body, st.clone())
			}
		}
	case *ast.SendStmt:
		w.checkEscape(s.Value, st, "sent on a channel")
		w.checkUses(s, st)
	default:
		w.checkUses(s, st)
	}
}

// assign handles pooled-source definitions, escapes through stores, and
// ordinary uses.
func (w *walker) assign(s *ast.AssignStmt, st state) {
	info := w.pass.TypesInfo
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		rhs := s.Rhs[i]
		// New pooled value? (x := pool.Get().(*T), s := &r.slots[i])
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && s.Tok == token.DEFINE {
			if obj := info.Defs[id]; obj != nil {
				if ringSlot := isRingSlotAddr(info, rhs); ringSlot || isPoolGetExpr(info, rhs) {
					st[obj] = &tracked{getPos: rhs.Pos(), ringSlot: ringSlot}
					continue
				}
			}
		}
		// A store whose target is not a plain local escapes the value.
		if !isLocalTarget(info, lhs) {
			w.checkEscape(rhs, st, "stored")
		}
	}
	w.checkUses(s, st)
}

// put recognizes a Put of a tracked variable: pool.Put(x), or a module
// call whose summary Puts the receiver/parameter x.  It updates state
// and reports nothing itself (uses after it do).
func (w *walker) put(e ast.Expr, st state, deferred bool) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	info := w.pass.TypesInfo
	fn := framework.Callee(info, call.Fun)
	if fn == nil {
		return false
	}
	mark := func(arg ast.Expr) bool {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok {
			return false
		}
		t := st[info.Uses[id]]
		if t == nil {
			return false
		}
		if deferred {
			t.deferredPut = true
		} else {
			t.putPos = call.Pos()
		}
		return true
	}
	if fn.Name() == "Put" && framework.TypeIs(framework.RecvOf(fn), "sync", "Pool") && len(call.Args) == 1 {
		return mark(call.Args[0])
	}
	sum := w.pass.Prog.SummaryOf(fn)
	if sum == nil {
		return false
	}
	put := false
	if sum.Puts[-1] {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			put = mark(sel.X) || put
		}
	}
	for i, arg := range call.Args {
		if sum.Puts[i] {
			put = mark(arg) || put
		}
	}
	return put
}

// checkUses reports any appearance of a variable after its Put.
func (w *walker) checkUses(n ast.Node, st state) {
	if n == nil {
		return
	}
	info := w.pass.TypesInfo
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		t := st[info.Uses[id]]
		if t == nil || t.reported || t.putPos == 0 {
			return true
		}
		t.reported = true
		w.pass.Reportf(id.Pos(), "pooled buffer %s used after it was Put back (at %s); the pool may already have handed it to another goroutine",
			id.Name, w.pass.Fset.Position(t.putPos))
		return true
	})
}

// checkEscape reports e if it aliases a tracked variable whose Put is
// pending (deferred or implicit).
func (w *walker) checkEscape(e ast.Expr, st state, how string) {
	if e == nil {
		return
	}
	obj := aliasRoot(w.pass.TypesInfo, e)
	t := st[obj]
	if t == nil || t.reported {
		return
	}
	if t.deferredPut || t.ringSlot {
		t.reported = true
		w.report(e.Pos(), obj, t, how)
	}
}

func (w *walker) report(pos token.Pos, obj types.Object, t *tracked, how string) {
	if t.ringSlot {
		w.pass.Reportf(pos, "ring-slot pointer %s %s; the slot is recycled when the ring wraps — copy the payload out instead of retaining the pointer",
			obj.Name(), how)
		return
	}
	w.pass.Reportf(pos, "pooled buffer %s (or an alias into it) %s past its deferred Put (buffer from pool at %s); the pool will reuse it — copy the bytes out instead",
		obj.Name(), how, w.pass.Fset.Position(t.getPos))
}

// usesObj reports whether obj appears anywhere under n.
func usesObj(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// aliasRoot unwraps alias-producing expressions (selectors, index and
// slice expressions, &, *, parens) to the root identifier's object, or
// nil when the expression is not a pure alias (a call result is a copy).
func aliasRoot(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

// isLocalTarget reports whether an assignment target is a plain local
// variable (aliasing into one does not extend the value's lifetime
// beyond the frame the walker already tracks).
func isLocalTarget(info *types.Info, lhs ast.Expr) bool {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return false
	}
	if id.Name == "_" {
		return true
	}
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	return ok && !v.IsField() && v.Pkg() != nil && v.Parent() != v.Pkg().Scope()
}

// isPoolGetExpr matches pool.Get() and pool.Get().(*T).
func isPoolGetExpr(info *types.Info, e ast.Expr) bool {
	x := ast.Unparen(e)
	if ta, ok := x.(*ast.TypeAssertExpr); ok {
		x = ast.Unparen(ta.X)
	}
	call, ok := x.(*ast.CallExpr)
	if !ok {
		return false
	}
	return framework.IsPoolGet(framework.Callee(info, call.Fun))
}

// isRingSlotAddr matches &expr.slots[i] (any depth of base) where the
// element's named type is `slot` — the obs trace ring's shape.
func isRingSlotAddr(info *types.Info, e ast.Expr) bool {
	u, ok := ast.Unparen(e).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return false
	}
	ix, ok := ast.Unparen(u.X).(*ast.IndexExpr)
	if !ok {
		return false
	}
	tv, ok := info.Types[ix]
	if !ok {
		return false
	}
	n := framework.NamedOf(tv.Type)
	return n != nil && n.Obj().Name() == "slot"
}
