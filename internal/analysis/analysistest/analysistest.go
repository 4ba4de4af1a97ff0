// Package analysistest runs an analyzer over golden test packages and
// checks its diagnostics against expectations written in the sources, in
// the style of golang.org/x/tools/go/analysis/analysistest (which the
// offline build cannot vendor).
//
// A test package lives in testdata/src/<name>/ beside the analyzer, is
// ignored by the go tool (testdata), and may import this module and the
// standard library; its dependency types are resolved from the
// `go list -export` build cache, exactly like the main driver.
//
// Expectations are trailing comments of the form
//
//	d[8] = 1 // want `not covered by a preceding SetRange`
//	tx.Commit(rvm.Flush) // want `commit error` `second expectation`
//
// Each backquoted or double-quoted string is a regular expression that
// must match a diagnostic reported on that line; every diagnostic must
// match an expectation and vice versa.
package analysistest

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/rvm-go/rvm/internal/analysis/framework"
)

var (
	exportOnce sync.Once
	exportMap  map[string]string
	exportErr  error
)

// moduleExports builds (once per process) the import-path → export-data
// map for this module and everything it depends on.
func moduleExports(t *testing.T) map[string]string {
	t.Helper()
	exportOnce.Do(func() {
		exportMap, exportErr = framework.Exports("", framework.ModulePath+"/...")
	})
	if exportErr != nil {
		t.Fatalf("analysistest: loading module export data: %v", exportErr)
	}
	return exportMap
}

// Run loads testdata/src/<pkg> for each named package (relative to the
// caller's directory), applies the analyzer, and reports mismatches
// between diagnostics and // want expectations as test errors.
func Run(t *testing.T, a *framework.Analyzer, pkgNames ...string) {
	t.Helper()
	if testing.Short() {
		t.Skip("analysistest builds export data; skipped in -short")
	}
	exports := moduleExports(t)
	for _, name := range pkgNames {
		dir := filepath.Join("testdata", "src", name)
		runOne(t, a, dir, name, exports)
	}
}

func runOne(t *testing.T, a *framework.Analyzer, dir, name string, exports map[string]string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	var goFiles []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			goFiles = append(goFiles, e.Name())
		}
	}
	if len(goFiles) == 0 {
		t.Fatalf("%s: no Go files in %s", a.Name, dir)
	}
	sort.Strings(goFiles)

	fset := token.NewFileSet()
	imp := framework.ExportImporter(fset, exports)
	pkg, err := framework.Check(fset, imp, name, dir, goFiles)
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}

	var diags []framework.Diagnostic
	sup := framework.CollectSuppressions(fset, pkg.Files)
	// The golden package is the whole program: interprocedural rules see
	// its helpers, while module imports resolve through export data only
	// (no cross-package summaries).
	prog := framework.BuildProgram(fset, []*framework.Package{pkg})
	pass := &framework.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		Prog:      prog,
		Report: func(d framework.Diagnostic) {
			if sup.Allows(fset, a.Name, d.Pos) {
				return
			}
			diags = append(diags, d)
		},
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: Run: %v", a.Name, err)
	}

	checkExpectations(t, a.Name, fset, pkg.Files, diags)
}

// expectation is one // want regexp, keyed by file and line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRE = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

func checkExpectations(t *testing.T, name string, fset *token.FileSet, files []*ast.File, diags []framework.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(text, -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
						continue
					}
					wants = append(wants, &expectation{
						file: filepath.Base(pos.Filename), line: pos.Line, re: re, raw: pat,
					})
				}
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		file, line := filepath.Base(pos.Filename), pos.Line
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == file && w.line == line && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: %s:%d: unexpected diagnostic: %s", name, file, line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: %s:%d: expected diagnostic matching %q, got none", name, w.file, w.line, w.raw)
		}
	}
}
