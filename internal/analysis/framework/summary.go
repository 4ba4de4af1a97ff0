// Per-function effect summaries, propagated bottom-up over the call
// graph.  A Summary answers, for one function, the questions the
// discipline analyzers ask about whole call chains:
//
//   - does calling this function (transitively) perform a raw device
//     sync, call a module Force/Sync method, or sleep?
//   - which lock classes does it (transitively) acquire?
//   - which lock classes does its own body hand to its caller — locked
//     and never unlocked, or unlocked and never locked?
//
// Effects are "at any point" facts: a function that acquires and then
// releases a lock still Acquires it, because a caller holding another
// lock across the call creates that lock-order edge.  Propagation
// excludes go edges — a spawned goroutine does not run under the
// caller's locks — and includes defer edges, which run before the
// function returns.  Summaries are computed by a worklist fixpoint, so
// recursion and mutual recursion converge (the facts are monotone).
package framework

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// A LockKey identifies a lock class: the mutex field of a named type
// ("internal/core", "Engine", "mu"), or a package-level mutex variable
// (Type empty).  Locks held in local variables have no class and no key.
type LockKey struct {
	Pkg   string // defining package import path
	Type  string // owning named type, "" for package-level vars
	Field string // field or variable name
}

// IsZero reports an unclassifiable lock.
func (k LockKey) IsZero() bool { return k == LockKey{} }

func (k LockKey) String() string {
	pkg := k.Pkg
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		pkg = pkg[i+1:]
	}
	if k.Type == "" {
		return pkg + "." + k.Field
	}
	return pkg + "." + k.Type + "." + k.Field
}

// An Effect is one transitive fact with a witness: the position in the
// summarized function where the chain starts, and the human-readable
// call path to the primitive operation.
type Effect struct {
	Pos  token.Pos // site in the summarized function
	Path string    // "setHeadLocked → persistStatusLocked → Device.Sync"
}

// Summary is the effect summary of one function.
type Summary struct {
	// Syncs is non-nil when the function transitively performs a raw
	// device sync ((*os.File).Sync, Device.Sync, syscall.Fsync).
	Syncs *Effect
	// Forces is non-nil when the function transitively calls a module
	// method named Force or Sync.
	Forces *Effect
	// Sleeps is non-nil when the function transitively calls time.Sleep.
	Sleeps *Effect
	// Acquires maps each lock class the function transitively acquires
	// to a witness effect.
	Acquires map[LockKey]Effect
	// Leaves lists the lock classes the function's own body locks and
	// never unlocks (Tx.lockRegions), Drops those it unlocks and never
	// locks (Tx.unlockRegions): a helper that hands a lock to its caller or
	// takes one back.  They are not transitive; HeldWalker applies them at
	// the call.
	Leaves, Drops []LockKey
}

// Program is the whole-program view handed to every analyzer pass: the
// loaded packages, the call graph over them, and the per-function
// summaries.  Under rvmcheck the program spans every matched package; in
// analysistest it is a single package, and cross-package effects degrade
// to what the name-based lexical rules can see.
type Program struct {
	Fset  *token.FileSet
	Pkgs  []*Package
	Graph *CallGraph
}

// SummaryOf returns the summary for fn, or nil when fn has no body in
// the loaded packages.
func (p *Program) SummaryOf(fn *types.Func) *Summary {
	if node := p.Graph.NodeOf(fn); node != nil {
		return node.Sum
	}
	return nil
}

// SummariesOf returns every summary a call to fn may execute: the
// function's own summary for a concrete function, or the summary of
// every loaded implementer for an interface method.  Analyzers that
// charge call sites against callee effects use this so that interface
// dispatch (dev.WriteAt on a wal.Device, which may be an iofault
// Injector) is as visible as a static call.
func (p *Program) SummariesOf(fn *types.Func) []*Summary {
	if fn == nil {
		return nil
	}
	if !IsInterfaceMethod(fn) {
		if sum := p.SummaryOf(fn); sum != nil {
			return []*Summary{sum}
		}
		return nil
	}
	var sums []*Summary
	for _, impl := range p.Graph.implementers(fn) {
		if impl.Sum != nil {
			sums = append(sums, impl.Sum)
		}
	}
	return sums
}

// BuildProgram constructs the call graph and computes summaries.
func BuildProgram(fset *token.FileSet, pkgs []*Package) *Program {
	p := &Program{Fset: fset, Pkgs: pkgs, Graph: buildCallGraph(pkgs)}
	for _, node := range p.Graph.Nodes {
		node.Sum = directEffects(node)
	}
	propagate(p.Graph)
	return p
}

// --- shared effect predicates (also used by the lexical rules) ---

// IsRawSyncFunc matches the raw device syncs: (*os.File).Sync, a Sync
// method on a Device interface, and syscall.Fsync/Fdatasync.
func IsRawSyncFunc(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if recv := RecvOf(fn); recv != nil {
		if fn.Name() != "Sync" {
			return false
		}
		if TypeIs(recv, "os", "File") {
			return true
		}
		if n := NamedOf(recv); n != nil && n.Obj().Name() == "Device" {
			if _, ok := n.Underlying().(*types.Interface); ok {
				return true
			}
		}
		return false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "syscall" {
		return fn.Name() == "Fsync" || fn.Name() == "Fdatasync"
	}
	return false
}

// IsForceMethod matches module methods named Force or Sync, which sync a
// device transitively by contract.
func IsForceMethod(fn *types.Func) bool {
	return IsMethodNamed(fn, "Force", "Sync")
}

// IsSleepFunc matches time.Sleep.
func IsSleepFunc(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Sleep"
}

// FuncDesc names fn for diagnostics: "(*Log).Force", "syscall.Fsync".
func FuncDesc(fn *types.Func) string {
	if recv := RecvOf(fn); recv != nil {
		if n := NamedOf(recv); n != nil {
			return "(*" + n.Obj().Name() + ")." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// LockKeyOf classifies the receiver of a Lock/Unlock selector ("e.mu",
// "e.pipe.mu", package-level "reglk") into a lock class.
func LockKeyOf(info *types.Info, recv ast.Expr) LockKey {
	switch r := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		// base.field — the class is (type of base, field name).
		if tv, ok := info.Types[r.X]; ok {
			if n := NamedOf(tv.Type); n != nil && n.Obj().Pkg() != nil {
				return LockKey{Pkg: n.Obj().Pkg().Path(), Type: n.Obj().Name(), Field: r.Sel.Name}
			}
		}
	case *ast.Ident:
		if obj, ok := info.Uses[r].(*types.Var); ok && obj.Pkg() != nil {
			// Package-level mutex variables form their own class; locals
			// and parameters are unclassifiable.
			if obj.Parent() == obj.Pkg().Scope() {
				return LockKey{Pkg: obj.Pkg().Path(), Field: obj.Name()}
			}
		}
	}
	return LockKey{}
}

// MutexRef recognizes a call expression path.Lock()/RLock()/Unlock()/
// RUnlock() on a mutex-typed receiver, returning the receiver expression
// and the operation name ("" when e is not a mutex operation).
func MutexRef(info *types.Info, e ast.Expr) (recv ast.Expr, op string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, ""
	}
	tv, ok := info.Types[sel.X]
	if !ok || !IsMutexType(tv.Type) {
		return nil, ""
	}
	return sel.X, sel.Sel.Name
}

// --- direct (intra-function) effect collection ---

// directEffects computes node's own effects, not yet including callees.
func directEffects(node *Node) *Summary {
	info := node.Pkg.TypesInfo
	sum := &Summary{Acquires: map[LockKey]Effect{}}
	var locked, unlocked []LockKey
	ast.Inspect(node.Body(), func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if recv, op := MutexRef(info, n); op != "" {
				key := LockKeyOf(info, recv)
				switch {
				case key.IsZero():
				case op == "Unlock" || op == "RUnlock":
					unlocked = append(unlocked, key)
				case !slices.Contains(locked, key):
					locked = append(locked, key)
					sum.Acquires[key] = Effect{Pos: n.Pos(), Path: key.String() + ".Lock"}
				}
				return true
			}
			fn := Callee(info, n.Fun)
			if IsRawSyncFunc(fn) && sum.Syncs == nil {
				sum.Syncs = &Effect{Pos: n.Pos(), Path: FuncDesc(fn)}
			}
			if IsForceMethod(fn) && sum.Forces == nil {
				sum.Forces = &Effect{Pos: n.Pos(), Path: FuncDesc(fn)}
			}
			if IsSleepFunc(fn) && sum.Sleeps == nil {
				sum.Sleeps = &Effect{Pos: n.Pos(), Path: FuncDesc(fn)}
			}
			// Method values passed as arguments count as calls
			// (e.retryIO(e.log.Force) forces right there).
			for _, arg := range n.Args {
				if afn := Callee(info, ast.Unparen(arg)); afn != nil && isFuncValued(info, ast.Unparen(arg)) {
					if IsRawSyncFunc(afn) && sum.Syncs == nil {
						sum.Syncs = &Effect{Pos: arg.Pos(), Path: FuncDesc(afn)}
					}
					if IsForceMethod(afn) && sum.Forces == nil {
						sum.Forces = &Effect{Pos: arg.Pos(), Path: FuncDesc(afn)}
					}
				}
			}
		}
		return true
	})
	for _, key := range locked {
		if !slices.Contains(unlocked, key) {
			sum.Leaves = append(sum.Leaves, key)
		}
	}
	for _, key := range unlocked {
		if !slices.Contains(locked, key) && !slices.Contains(sum.Drops, key) {
			sum.Drops = append(sum.Drops, key)
		}
	}
	return sum
}

// propagate runs the bottom-up fixpoint: callee effects flow to callers
// until nothing changes.  Go edges are excluded throughout.
func propagate(g *CallGraph) {
	for changed := true; changed; {
		changed = false
		for _, node := range g.Nodes {
			sum := node.Sum
			for _, e := range node.Edges {
				if e.Kind == EdgeGo {
					continue
				}
				cs := e.Callee.Sum
				if cs.Syncs != nil && sum.Syncs == nil {
					sum.Syncs = &Effect{Pos: e.Pos, Path: e.Callee.Name() + " → " + cs.Syncs.Path}
					changed = true
				}
				if cs.Forces != nil && sum.Forces == nil {
					sum.Forces = &Effect{Pos: e.Pos, Path: e.Callee.Name() + " → " + cs.Forces.Path}
					changed = true
				}
				if cs.Sleeps != nil && sum.Sleeps == nil {
					sum.Sleeps = &Effect{Pos: e.Pos, Path: e.Callee.Name() + " → " + cs.Sleeps.Path}
					changed = true
				}
				for key, eff := range cs.Acquires {
					if _, ok := sum.Acquires[key]; !ok {
						sum.Acquires[key] = Effect{Pos: e.Pos, Path: e.Callee.Name() + " → " + eff.Path}
						changed = true
					}
				}
			}
		}
	}
}
