package rvm_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"github.com/rvm-go/rvm/internal/analysis"
)

// TestRvmcheckClean gates the tree on its own static-analysis suite: all
// six rvmcheck analyzers (unloggedstore, txlifecycle, uncheckedcommit,
// locksync, obsleak, lockorder) must report nothing.  A finding either
// reveals a real discipline violation — fix the code — or, for the rare
// intentional exception, demands an explicit
// `//rvmcheck:allow <analyzer> -- reason` at the site, so every waiver
// is visible in review.
func TestRvmcheckClean(t *testing.T) {
	if testing.Short() {
		t.Skip("rvmcheck builds export data for the whole tree; skipped in -short")
	}
	out, err := exec.Command("go", "run", "./cmd/rvmcheck", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("rvmcheck found violations:\n%s", out)
	}
	if len(out) != 0 {
		t.Fatalf("rvmcheck produced unexpected output:\n%s", out)
	}
}

// TestWaiverBudget pins the number of `//rvmcheck:allow` waivers in
// shipping code (test files and analyzer testdata excluded) and demands
// a reason on every one.  The 2026-08 audit of the standing waivers:
//
//   - birrell/birrell.go (2, locksync): the single-writer baseline
//     fsyncs under its coarse DB lock by design — per-update in Update,
//     full-image in Checkpoint; both are the documented costs the
//     ablation benchmarks exist to measure.  Still required.
//   - examples/quickstart/main.go (1, txlifecycle): the example's final
//     commit intentionally leaves the transaction variable live for the
//     closing println of its stats.  Still required.
//   - rvmnest/rvmnest.go (1, unloggedstore): the nested-transaction
//     demo pokes a byte outside any SetRange to show the checker
//     catching it at runtime.  Still required.
//   - rvmdist/rvmdist.go (10, locksync): two-phase commit flushes
//     decision and vote records while holding the coordinator/
//     subordinate mutex — the durable write must be atomic with the
//     in-memory protocol state, and each site serializes rounds by
//     design; in-process transports run the peer's flush inline under
//     the same round.
//
// Raising this number is a design decision, not a convenience: a new
// waiver means a new place where an fsync-under-lock (or worse) is
// declared intentional.  Lower it freely.
func TestWaiverBudget(t *testing.T) {
	const budget = 14
	allowLine := regexp.MustCompile(`^\s*//rvmcheck:allow\s`)
	withReason := regexp.MustCompile(`^\s*//rvmcheck:allow\s+[a-z,]+\s+--\s+\S`)
	var waivers []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			if !allowLine.MatchString(text) {
				continue
			}
			waivers = append(waivers, path)
			if !withReason.MatchString(text) {
				t.Errorf("%s:%d: waiver without a `-- reason`", path, line)
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(waivers) != budget {
		sort.Strings(waivers)
		t.Errorf("waiver count = %d, budget = %d; sites:\n\t%s\nre-audit before moving the budget",
			len(waivers), budget, strings.Join(waivers, "\n\t"))
	}
}

// TestNoRetiredShapes keeps out of shipping code the two shapes whose
// analyzers were deleted once nothing had them: a call of a package-level
// sync/atomic function (atomicfield checked the fields such calls touch;
// typed atomics need no check, the compiler forbids plain access), and a
// sync.Pool (poolescape checked that pooled buffers neither outlive their
// Put nor are used after it).  It also keeps out TryLock and TryRLock, whose
// locks the lock walkers do not see.
func TestNoRetiredShapes(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		names := map[string]string{} // local import name -> path
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			names[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && pkgIs(names, sel, "sync/atomic") {
					t.Errorf("%s: atomic.%s is back; atomicfield, which checked that fields touched through sync/atomic functions are never accessed plainly, was deleted when the last such call went — bringing the shape back means bringing the check back (or use a typed atomic)",
						fset.Position(sel.Pos()), sel.Sel.Name)
				}
			case *ast.SelectorExpr:
				if n.Sel.Name == "TryLock" || n.Sel.Name == "TryRLock" {
					t.Errorf("%s: %s is back; the held-lock walker and the summaries model only Lock and RLock, so a lock taken this way is held by nothing locksync, obsleak or lockorder can see — bringing it back means teaching the walker to see it",
						fset.Position(n.Pos()), n.Sel.Name)
				}
				if n.Sel.Name == "Pool" && pkgIs(names, n, "sync") {
					t.Errorf("%s: sync.Pool is back; poolescape, which checked that pooled buffers neither outlive their Put nor are used after it, was deleted when the last pool went — bringing the shape back means bringing the check back",
						fset.Position(n.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// pkgIs reports whether sel selects from the package imported as path.
func pkgIs(names map[string]string, sel *ast.SelectorExpr, path string) bool {
	id, ok := sel.X.(*ast.Ident)
	return ok && names[id.Name] == path
}

// TestAnalyzerRegistryComplete keeps analysis.All() in sync with the
// analyzer subpackages on disk: adding a new analyzer package without
// registering it would silently drop it from rvmcheck and CI.
func TestAnalyzerRegistryComplete(t *testing.T) {
	registered := map[string]bool{}
	for _, a := range analysis.All() {
		if registered[a.Name] {
			t.Errorf("analyzer %q registered twice", a.Name)
		}
		registered[a.Name] = true
	}
	entries, err := os.ReadDir("internal/analysis")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		if name == "framework" || name == "analysistest" {
			continue // infrastructure, not analyzers
		}
		if !registered[name] {
			t.Errorf("internal/analysis/%s is not registered in analysis.All()", name)
		}
		delete(registered, name)
	}
	for name := range registered {
		t.Errorf("analysis.All() registers %q but internal/analysis/%s does not exist", name, name)
	}
}

// TestLintToolVersionsPinned keeps the two places that name external lint
// tool versions — the Makefile (local `make lint`) and the CI workflow —
// from drifting apart.  The tools themselves cannot be vendored (the
// build environment is offline), so the pin lives in these files.
func TestLintToolVersionsPinned(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for _, tool := range []struct{ name, makeVar, module string }{
		{"staticcheck", "STATICCHECK_VERSION", "honnef.co/go/tools/cmd/staticcheck"},
		{"govulncheck", "GOVULNCHECK_VERSION", "golang.org/x/vuln/cmd/govulncheck"},
	} {
		mkRE := regexp.MustCompile(tool.makeVar + `\s*:?=\s*(\S+)`)
		m := mkRE.FindSubmatch(makefile)
		if m == nil {
			t.Errorf("Makefile does not pin %s (missing %s)", tool.name, tool.makeVar)
			continue
		}
		want := string(m[1])
		ciRE := regexp.MustCompile(regexp.QuoteMeta(tool.module) + `@(\S+)`)
		cm := ciRE.FindSubmatch(ci)
		if cm == nil {
			t.Errorf("ci.yml does not install %s by pinned version", tool.name)
			continue
		}
		if got := string(cm[1]); got != want {
			t.Errorf("%s version drift: Makefile pins %s, ci.yml installs %s", tool.name, want, got)
		}
	}
}
