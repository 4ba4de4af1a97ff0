// Package framework is a self-contained reimplementation of the core of
// golang.org/x/tools/go/analysis, built only on the standard library.
//
// RVM's correctness rests on programming discipline the Go compiler never
// checks — every store to a mapped region must be covered by a SetRange in
// an enclosing transaction, commit errors are acknowledgement points that
// must not be dropped, and the PR 2 group-commit protocol depends on no
// fsync ever running under a fine-grained protocol mutex.  Package
// framework lets us write analyzers that know those invariants and run
// them over the whole tree, without pulling x/tools into the module: the
// build environment is fully offline, so the framework loads dependency
// type information from the `go list -export` build cache instead of
// go/packages (see load.go).
//
// The API deliberately mirrors x/tools: an Analyzer has a Name, a Doc
// string, and a Run function over a Pass carrying the parsed files and
// full type information for one package.  Should the module ever vendor
// x/tools, the analyzers port by changing one import.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// ModulePath is the import path prefix of this module; analyzers use it to
// recognize "our" types (Region, Tx, Log, ...) in whatever package the
// analyzed code aliases them from.
const ModulePath = "github.com/rvm-go/rvm"

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string
	// Doc is the help text: first line is a one-line summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass provides one analyzed package to an Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Prog is the whole-program view — call graph and per-function
	// summaries over every loaded package (see summary.go).  An analyzer
	// must still report only diagnostics positioned in this pass's
	// Files; the driver runs it once per package.
	Prog *Program
	// Report delivers one diagnostic.  The driver supplies it.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// --- type-matching helpers shared by the analyzers ---

// Callee resolves the *types.Func a call or method-value expression refers
// to, or nil.  It accepts a CallExpr's Fun as well as a bare SelectorExpr
// used as a method value (e.g. the e.log.Force passed to retryIO).
func Callee(info *types.Info, fun ast.Expr) *types.Func {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Qualified identifier (pkg.Func).
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// NamedOf unwraps pointers and aliases and returns the named type of t, or
// nil for unnamed types.
func NamedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// TypeIs reports whether t (possibly a pointer) is the named type
// pkgSuffix.name, where pkgSuffix is matched against the end of the
// defining package's import path ("internal/core", "os", ...).
func TypeIs(t types.Type, pkgSuffix, name string) bool {
	n := NamedOf(t)
	if n == nil || n.Obj() == nil {
		return false
	}
	if n.Obj().Name() != name {
		return false
	}
	pkg := n.Obj().Pkg()
	if pkg == nil {
		return false
	}
	return pkg.Path() == pkgSuffix || strings.HasSuffix(pkg.Path(), pkgSuffix)
}

// RecvOf returns the receiver type of a method, or nil for non-methods.
func RecvOf(fn *types.Func) types.Type {
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// RecvName returns the name of a method's receiver type for diagnostics,
// "?" when it has none.
func RecvName(fn *types.Func) string {
	if n := NamedOf(RecvOf(fn)); n != nil {
		return n.Obj().Name()
	}
	return "?"
}

// IsModuleFunc reports whether fn is declared in this module.
func IsModuleFunc(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && strings.HasPrefix(fn.Pkg().Path(), ModulePath)
}

// IsMethodNamed reports whether fn is a method with one of the given names
// whose receiver's named type is declared in this module.
func IsMethodNamed(fn *types.Func, names ...string) bool {
	if fn == nil {
		return false
	}
	recv := RecvOf(fn)
	if recv == nil {
		return false
	}
	n := NamedOf(recv)
	if n == nil || n.Obj().Pkg() == nil || !strings.HasPrefix(n.Obj().Pkg().Path(), ModulePath) {
		return false
	}
	for _, name := range names {
		if fn.Name() == name {
			return true
		}
	}
	return false
}

// ExprPath canonicalizes a chain of identifiers and field selections
// ("b.accounts", "h.reg") to a dotted path, or "" when the expression is
// anything richer (calls, indexing, ...).  Analyzers use it to compare
// "the same region" conservatively: an empty path compares equal to
// everything.
func ExprPath(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := ExprPath(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

// PathCovers reports whether a covering declaration on path cover extends
// to a use on path use: equal paths, a prefix (h covers h.reg), or either
// side unresolvable (conservative).
func PathCovers(cover, use string) bool {
	if cover == "" || use == "" || cover == use {
		return true
	}
	return strings.HasPrefix(use, cover+".")
}

// IsMutexType reports whether t is sync.Mutex or sync.RWMutex (or a pointer
// to one).
func IsMutexType(t types.Type) bool {
	return TypeIs(t, "sync", "Mutex") || TypeIs(t, "sync", "RWMutex")
}

// --- suppression directives ---

// A comment of the form
//
//	//rvmcheck:allow locksync -- one fsync per update is this design's cost
//
// suppresses diagnostics of the named analyzers (comma-separated) on the
// same line and on the line immediately below it.  The directive demands
// a named analyzer: there is no blanket allow, and the convention is to
// give a reason after " -- ".
var allowRE = regexp.MustCompile(`^//rvmcheck:allow\s+([a-z,]+)`)

// Suppressions records which (file, line) pairs waive which analyzers.
type Suppressions map[string]map[int]map[string]bool

// CollectSuppressions scans the comments of files for rvmcheck:allow
// directives.
func CollectSuppressions(fset *token.FileSet, files []*ast.File) Suppressions {
	s := Suppressions{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := s[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					s[pos.Filename] = byLine
				}
				for _, name := range strings.Split(m[1], ",") {
					for _, line := range []int{pos.Line, pos.Line + 1} {
						if byLine[line] == nil {
							byLine[line] = map[string]bool{}
						}
						byLine[line][name] = true
					}
				}
			}
		}
	}
	return s
}

// Allows reports whether a diagnostic from analyzer name at pos is waived.
func (s Suppressions) Allows(fset *token.FileSet, name string, pos token.Pos) bool {
	p := fset.Position(pos)
	return s[p.Filename][p.Line][name]
}
