package obs

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os/exec"
	"strings"
	"sync/atomic"
	"testing"
)

// TestHistBucketsLogLinear: every value lands in a bucket that contains
// it, buckets tile the range in order, and from 8 up a bucket is a
// quarter of its octave — so a value is known to within a quarter of
// itself, against a factor of two for whole octaves.
func TestHistBucketsLogLinear(t *testing.T) {
	var next uint64
	for i := 0; i < numBuckets; i++ {
		lo, width := bucketRange(i)
		if lo != next {
			t.Fatalf("bucket %d starts at %d, the one before ended at %d", i, lo, next)
		}
		if lo >= 8 && width*4 > lo {
			t.Fatalf("bucket %d = [%d, +%d) is wider than a quarter of its values", i, lo, width)
		}
		for _, v := range []uint64{lo, lo + width/2, lo + width - 1} {
			if got := bucketOf(v); got != i {
				t.Fatalf("bucketOf(%d) = %d, want %d", v, got, i)
			}
		}
		next = lo + width // wraps to 0 after the last bucket
	}
	if next != 0 {
		t.Fatalf("the buckets end at %d, not at 2^64", next)
	}

	// The measured case: a device whose force takes 1.17 ms must not read
	// as 1.57 ms (the middle of the octave [2^20, 2^21)).
	var h Hist
	for i := 0; i < 1000; i++ {
		h.Observe(1_170_000 + int64(i))
	}
	if p50 := h.Snapshot().P50; p50 < 1_100_000 || p50 > 1_250_000 {
		t.Errorf("p50 of a thousand 1.17 ms observations = %d ns", p50)
	}
}

// TestObserveEntryPointsInline: DESIGN.md §11 promises that an engine
// without metrics pays a nil check per instrumentation site, not a call.
// That holds only while every nil-safe entry point that feeds one
// histogram or gauge is within the inliner's budget, which the compiler
// is asked about here.  The entry points are found in the source, not
// listed: the exported *Metrics methods taking one int64.
func TestObserveEntryPointsInline(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "metrics.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var entry []string
	for _, d := range file.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || !fn.Name.IsExported() || fn.Type.Results != nil {
			continue
		}
		star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
		if !ok || star.X.(*ast.Ident).Name != "Metrics" {
			continue
		}
		if ps := fn.Type.Params.List; len(ps) == 1 && len(ps[0].Names) == 1 {
			if id, ok := ps[0].Type.(*ast.Ident); ok && id.Name == "int64" {
				entry = append(entry, fn.Name.Name)
			}
		}
	}
	if len(entry) < 9 {
		t.Fatalf("found only %v; the scan of metrics.go is broken", entry)
	}
	out, err := exec.Command("go", "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, name := range entry {
		if !bytes.Contains(out, []byte("can inline (*Metrics)."+name+"\n")) {
			t.Errorf("(*Metrics).%s does not inline: a metrics-off engine pays a call there", name)
		}
	}
	if bytes.Contains(out, []byte("can inline (*Hist).Observe\n")) {
		t.Error("(*Hist).Observe inlines; the entry points around it then cannot")
	}
}

// TestDeclarationErrors: a field that would reach JSON but not /metrics
// (no prom tag), or /metrics without HELP, fails the walk, and so every
// surface built on it.
func TestDeclarationErrors(t *testing.T) {
	for name, v := range map[string]any{
		"no prom tag": struct {
			A uint64 `json:"a"`
		}{},
		"no help tag": struct {
			A uint64 `json:"a" prom:"rvm_a_total"`
		}{},
		"continues no family": struct {
			A uint64 `json:"a" prom:",phase=x"`
		}{},
		"nested": struct {
			In []struct {
				C string `json:"c" label:"class"`
				A uint64 `json:"a"`
			} `json:"in"`
		}{},
	} {
		if err := WritePrometheus(io.Discard, v); err == nil {
			t.Errorf("%s: the walk accepted %T", name, v)
		}
		if err := WriteText(io.Discard, v); err == nil {
			t.Errorf("%s: the text view accepted %T", name, v)
		}
	}
	ok := struct {
		A uint64 `json:"a" prom:"rvm_a_total,kind=x" help:"A."`
		B uint64 `json:"b" prom:",kind=y"`
	}{A: 1, B: 2}
	var b strings.Builder
	if err := WritePrometheus(&b, ok); err != nil {
		t.Fatal(err)
	}
	want := "# HELP rvm_a_total A.\n# TYPE rvm_a_total counter\nrvm_a_total{kind=\"x\"} 1\nrvm_a_total{kind=\"y\"} 2\n"
	if b.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestLoadIsPositional: Load fills the snapshot twin of a live struct
// field by field, last field first.
func TestLoadIsPositional(t *testing.T) {
	type pair[C, H, G any] struct {
		N C
		L H
		G G
	}
	var live pair[atomic.Uint64, Hist, Gauge]
	live.N.Store(7)
	live.L.Observe(5)
	live.G.Set(-3)
	var snap pair[uint64, HistStat, int64]
	Load(&snap, &live)
	if snap.N != 7 || snap.L.Count != 1 || snap.L.Max != 5 || snap.G != -3 {
		t.Errorf("loaded %+v", snap)
	}
}
