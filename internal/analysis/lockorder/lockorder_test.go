package lockorder_test

import (
	"testing"

	"github.com/rvm-go/rvm/internal/analysis/analysistest"
	"github.com/rvm-go/rvm/internal/analysis/framework"
	"github.com/rvm-go/rvm/internal/analysis/lockorder"
	"github.com/rvm-go/rvm/internal/obs"
)

// testHierarchy mirrors the engine's table, scoped to the golden
// package: Engine (10) → Region (20, ordered) → pipeline (30) → Log (50).
var testHierarchy = &lockorder.Hierarchy{Entries: []lockorder.Entry{
	{Pkg: "a", Type: "Engine", Field: "mu", Level: 10, Name: "engine lock"},
	{Pkg: "a", Type: "Region", Field: "mu", Level: 20, Ordered: true, Name: "region lock"},
	{Pkg: "a", Type: "pipeline", Field: "mu", Level: 30, Name: "pipeline lock"},
	{Pkg: "a", Type: "Log", Field: "mu", Level: 50, Name: "log lock"},
}}

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, lockorder.NewAnalyzer(testHierarchy), "a")
}

// TestDefaultHierarchyShape pins the structural invariants the analyzer
// relies on: levels strictly increase outermost-first, and names are
// unique (they appear verbatim in diagnostics and DESIGN.md §12).
func TestDefaultHierarchyShape(t *testing.T) {
	prev := 0
	names := map[string]bool{}
	for _, e := range lockorder.DefaultHierarchy.Entries {
		if e.Level <= prev {
			t.Errorf("entry %s.%s.%s: level %d does not increase past %d", e.Pkg, e.Type, e.Field, e.Level, prev)
		}
		prev = e.Level
		if names[e.Name] {
			t.Errorf("duplicate class name %q", e.Name)
		}
		names[e.Name] = true
	}
}

// TestHierarchyMatchesLockClasses pins the 1:1 correspondence between
// the static table and the runtime contention classes: every
// obs.LockClass appears exactly once in DefaultHierarchy, and each
// entry's Level is the class's.  The contention profile
// (Metrics.LockAcquired/LockContended) and the lockorder analyzer
// share one source of truth or this test fails.
func TestHierarchyMatchesLockClasses(t *testing.T) {
	seen := map[obs.LockClass]int{}
	for _, e := range lockorder.DefaultHierarchy.Entries {
		seen[e.Class]++
		if e.Level != e.Class.Level() {
			t.Errorf("entry %s.%s.%s: level %d != class %q level %d",
				e.Pkg, e.Type, e.Field, e.Level, e.Class, e.Class.Level())
		}
	}
	if len(lockorder.DefaultHierarchy.Entries) != int(obs.NumLockClasses) {
		t.Errorf("table has %d entries, obs declares %d lock classes",
			len(lockorder.DefaultHierarchy.Entries), obs.NumLockClasses)
	}
	for c := obs.LockClass(0); c < obs.NumLockClasses; c++ {
		if seen[c] != 1 {
			t.Errorf("lock class %q appears %d times in DefaultHierarchy, want exactly once", c, seen[c])
		}
		if c.String() == "unknown" || c.Level() == 0 {
			t.Errorf("lock class %d has no name/level registered", c)
		}
	}
}

// TestHierarchyLookup pins the suffix matching that lets the table name
// packages by their module-relative path.
func TestHierarchyLookup(t *testing.T) {
	h := lockorder.DefaultHierarchy
	walLog := framework.LockKey{Pkg: "github.com/rvm-go/rvm/internal/wal", Type: "Log", Field: "mu"}
	if e := h.Lookup(walLog); e == nil || e.Level != 50 {
		t.Errorf("Lookup(wal.Log.mu) = %+v, want the level-50 WAL entry", e)
	}
	foreign := framework.LockKey{Pkg: "example.com/app/internal/core2", Type: "Engine", Field: "mu"}
	if e := h.Lookup(foreign); e != nil {
		t.Errorf("Lookup of a foreign package's Engine.mu matched %+v", e)
	}
	if !h.Covers(framework.LockKey{Pkg: "github.com/rvm-go/rvm/internal/core", Type: "helper", Field: "mu"}) {
		t.Error("Covers should claim every internal/core mutex")
	}
	if h.Covers(framework.LockKey{Pkg: "example.com/app", Type: "helper", Field: "mu"}) {
		t.Error("Covers should ignore packages outside the table")
	}
}
