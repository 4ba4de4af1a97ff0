package itree

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func fill(b byte, n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = b
	}
	return d
}

func treeBytes(t *Tree, lo, hi uint64) []byte {
	out := make([]byte, hi-lo)
	for i := lo; i < hi; i++ {
		if b, ok := t.Get(i); ok {
			out[i-lo] = b
		} else {
			out[i-lo] = 0xEE // sentinel for "uncovered"
		}
	}
	return out
}

func TestEmptyTree(t *testing.T) {
	var tr Tree
	if tr.Len() != 0 || tr.Bytes() != 0 {
		t.Fatalf("empty tree reports Len=%d Bytes=%d", tr.Len(), tr.Bytes())
	}
	if _, ok := tr.Get(0); ok {
		t.Fatal("Get on empty tree succeeded")
	}
	if err := tr.Walk(func(Interval) error { t.Fatal("Walk on empty tree called back"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestInsertDisjoint(t *testing.T) {
	var tr Tree
	tr.Insert(10, fill('a', 5), OverwriteExisting)
	tr.Insert(30, fill('b', 5), OverwriteExisting)
	tr.CheckInvariants()
	if tr.Len() != 2 || tr.Bytes() != 10 {
		t.Fatalf("got Len=%d Bytes=%d, want 2/10", tr.Len(), tr.Bytes())
	}
	if _, ok := tr.Get(14); !ok {
		t.Fatal("byte 14 not covered")
	}
	if _, ok := tr.Get(15); ok {
		t.Fatal("byte 15 in the gap is covered")
	}
}

func TestInsertAdjacentMerges(t *testing.T) {
	var tr Tree
	tr.Insert(10, fill('a', 5), OverwriteExisting)
	tr.Insert(15, fill('b', 5), OverwriteExisting)
	tr.Insert(5, fill('c', 5), OverwriteExisting)
	tr.CheckInvariants()
	if tr.Len() != 1 {
		t.Fatalf("adjacent intervals not merged: Len=%d", tr.Len())
	}
	want := append(append(fill('c', 5), fill('a', 5)...), fill('b', 5)...)
	if got := treeBytes(&tr, 5, 20); !bytes.Equal(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestOverwritePolicy(t *testing.T) {
	var tr Tree
	tr.Insert(10, fill('a', 10), OverwriteExisting)
	tr.Insert(12, fill('b', 3), OverwriteExisting)
	tr.CheckInvariants()
	want := []byte("aabbbaaaaa")
	if got := treeBytes(&tr, 10, 20); !bytes.Equal(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestKeepPolicy(t *testing.T) {
	var tr Tree
	tr.Insert(12, fill('b', 3), KeepExisting)
	tr.Insert(10, fill('a', 10), KeepExisting)
	tr.CheckInvariants()
	// The 'b' bytes were inserted first (they are "newer"), so they win.
	want := []byte("aabbbaaaaa")
	if got := treeBytes(&tr, 10, 20); !bytes.Equal(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
	if tr.Len() != 1 {
		t.Fatalf("expected one merged interval, got %d", tr.Len())
	}
}

func TestKeepPolicySpansMultipleIntervals(t *testing.T) {
	var tr Tree
	tr.Insert(0, fill('x', 2), KeepExisting)
	tr.Insert(4, fill('y', 2), KeepExisting)
	tr.Insert(8, fill('z', 2), KeepExisting)
	tr.Insert(0, fill('n', 12), KeepExisting)
	tr.CheckInvariants()
	want := []byte("xxnnyynnzznn")
	if got := treeBytes(&tr, 0, 12); !bytes.Equal(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestOverwriteSpansMultipleIntervals(t *testing.T) {
	var tr Tree
	tr.Insert(0, fill('x', 4), OverwriteExisting)
	tr.Insert(8, fill('y', 4), OverwriteExisting)
	tr.Insert(2, fill('n', 8), OverwriteExisting)
	tr.CheckInvariants()
	want := []byte("xxnnnnnnnnyy")
	if got := treeBytes(&tr, 0, 12); !bytes.Equal(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
	if tr.Len() != 1 {
		t.Fatalf("expected full merge, got %d intervals", tr.Len())
	}
}

func TestInsertEmptyIsNoop(t *testing.T) {
	var tr Tree
	tr.Insert(10, nil, OverwriteExisting)
	tr.Insert(10, []byte{}, KeepExisting)
	if tr.Len() != 0 {
		t.Fatal("empty insert modified the tree")
	}
}

func TestInsertCopiesData(t *testing.T) {
	var tr Tree
	buf := fill('a', 4)
	tr.Insert(0, buf, OverwriteExisting)
	buf[0] = 'z'
	if b, _ := tr.Get(0); b != 'a' {
		t.Fatal("tree aliases caller buffer")
	}
}

func TestWalkOrderAndEarlyStop(t *testing.T) {
	var tr Tree
	tr.Insert(20, fill('b', 2), OverwriteExisting)
	tr.Insert(0, fill('a', 2), OverwriteExisting)
	tr.Insert(40, fill('c', 2), OverwriteExisting)
	var offs []uint64
	err := tr.Walk(func(iv Interval) error {
		offs = append(offs, iv.Off)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) != 3 || offs[0] != 0 || offs[1] != 20 || offs[2] != 40 {
		t.Fatalf("walk order wrong: %v", offs)
	}
	sentinel := errSentinel{}
	n := 0
	err = tr.Walk(func(iv Interval) error { n++; return sentinel })
	if err != sentinel || n != 1 {
		t.Fatalf("early stop failed: err=%v n=%d", err, n)
	}
}

type errSentinel struct{}

func (errSentinel) Error() string { return "sentinel" }

// op is a single randomized insertion for model-based testing.
type op struct {
	Off  uint16
	Len  uint8
	Seed byte
}

// opBase places the ops' window so that it straddles two bucket
// boundaries: offsets fall in [opBase, opBase+opSpan+255).
const (
	opBase = 2*pageSize - 700
	opSpan = pageSize + 1400
)

func (o op) at() uint64 { return opBase + uint64(o.Off)%opSpan }

func (o op) data() []byte {
	d := make([]byte, o.Len)
	for i := range d {
		d[i] = o.Seed + byte(i)
	}
	return d
}

// applyModel mirrors the tree semantics on a flat map.
func applyModel(model map[uint64]byte, o op, p Policy) {
	for i, b := range o.data() {
		off := o.at() + uint64(i)
		_, exists := model[off]
		if p == OverwriteExisting || !exists {
			model[off] = b
		}
	}
}

// checkAgainstModel compares the tree with the model byte for byte, through
// Get and through Walk, and checks that Walk's intervals are maximal.
func checkAgainstModel(t *testing.T, tr *Tree, model map[uint64]byte) {
	t.Helper()
	tr.CheckInvariants()
	if got, want := tr.Bytes(), uint64(len(model)); got != want {
		t.Fatalf("Bytes=%d model=%d", got, want)
	}
	for off, want := range model {
		if got, ok := tr.Get(off); !ok || got != want {
			t.Fatalf("off %d got (%d,%v) want %d", off, got, ok, want)
		}
	}
	ivs := tr.Intervals()
	if len(ivs) != tr.Len() {
		t.Fatalf("Walk delivered %d intervals, Len=%d", len(ivs), tr.Len())
	}
	var walked uint64
	for i, iv := range ivs {
		if i > 0 && ivs[i-1].End() >= iv.Off {
			t.Fatalf("intervals %d and %d overlap, touch or are out of order", i-1, i)
		}
		for j, b := range iv.Data {
			if want, ok := model[iv.Off+uint64(j)]; !ok || want != b {
				t.Fatalf("Walk byte at %d = %d, model (%d,%v)", iv.Off+uint64(j), b, want, ok)
			}
		}
		walked += uint64(len(iv.Data))
	}
	if walked != uint64(len(model)) {
		t.Fatalf("Walk delivered %d bytes, model has %d", walked, len(model))
	}
	// Overlay onto a window that cuts chunks at both ends.
	const lo = opBase + 300
	dst := bytes.Repeat([]byte{0xEE}, opSpan-200)
	tr.Overlay(dst, lo)
	for i, got := range dst {
		want, ok := model[lo+uint64(i)]
		if !ok {
			want = 0xEE
		}
		if got != want {
			t.Fatalf("Overlay byte at %d = %d, want %d", lo+uint64(i), got, want)
		}
	}
}

func runModelTest(t *testing.T, p Policy) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		var tr Tree
		model := map[uint64]byte{}
		nops := rng.Intn(60)
		for k := 0; k < nops; k++ {
			o := op{Off: uint16(rng.Intn(1 << 16)), Len: uint8(rng.Intn(256)), Seed: byte(rng.Intn(256))}
			tr.Insert(o.at(), o.data(), p)
			applyModel(model, o, p)
			tr.CheckInvariants()
		}
		checkAgainstModel(t, &tr, model)
	}
}

func TestModelOverwrite(t *testing.T) { runModelTest(t, OverwriteExisting) }
func TestModelKeep(t *testing.T)      { runModelTest(t, KeepExisting) }

// TestNewestFirstEqualsOldestLast is the recovery-direction equivalence:
// inserting a sequence newest-first with KeepExisting must produce the same
// final bytes as inserting it oldest-first with OverwriteExisting.
func TestNewestFirstEqualsOldestLast(t *testing.T) {
	f := func(ops []op) bool {
		var fwd, rev Tree
		for _, o := range ops { // oldest first
			fwd.Insert(o.at(), o.data(), OverwriteExisting)
		}
		for i := len(ops) - 1; i >= 0; i-- { // newest first
			rev.Insert(ops[i].at(), ops[i].data(), KeepExisting)
		}
		fwd.CheckInvariants()
		rev.CheckInvariants()
		if fwd.Bytes() != rev.Bytes() || fwd.Len() != rev.Len() {
			return false
		}
		return reflect.DeepEqual(fwd.Intervals(), rev.Intervals())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestStraddlesBuckets: one range over three buckets, then inserts that
// overlap it across each boundary under both policies.
func TestStraddlesBuckets(t *testing.T) {
	for _, p := range []Policy{KeepExisting, OverwriteExisting} {
		var tr Tree
		model := map[uint64]byte{}
		ins := func(off uint64, b byte, n int) {
			tr.Insert(off, fill(b, n), p)
			for i := 0; i < n; i++ {
				if _, ok := model[off+uint64(i)]; p == OverwriteExisting || !ok {
					model[off+uint64(i)] = b
				}
			}
		}
		ins(pageSize-10, 'a', 2*pageSize+20) // ends 10 bytes into the fourth bucket
		ins(pageSize-20, 'b', 30)            // across the first boundary, 10 new bytes in front
		ins(2*pageSize-1, 'c', 2)            // exactly one byte each side
		ins(3*pageSize+5, 'd', 10)           // overlaps the tail, 5 new bytes behind
		ins(0, 'e', pageSize-20)             // adjacent in front: one interval from 0
		checkAgainstModel(t, &tr, model)
		if tr.Len() != 1 || tr.Bytes() != 3*pageSize+15 {
			t.Fatalf("policy %d: Len=%d Bytes=%d, want one interval of %d", p, tr.Len(), tr.Bytes(), 3*pageSize+15)
		}
	}
}

// TestEndOfAddressSpace: a range may end at the last representable offset;
// one that would wrap is a caller bug.
func TestEndOfAddressSpace(t *testing.T) {
	const top = ^uint64(0)
	var tr Tree
	tr.Insert(top-8, fill('x', 8), KeepExisting)                 // off+len == top
	tr.Insert(top-pageSize-8, fill('y', pageSize), KeepExisting) // straddles the last boundary, adjacent
	tr.Insert(top-20, fill('z', 20), KeepExisting)               // overlaps both, fills nothing
	tr.CheckInvariants()
	ivs := tr.Intervals()
	if len(ivs) != 1 || ivs[0].Off != top-pageSize-8 || ivs[0].End() != top {
		t.Fatalf("got %d intervals, first [%d,%d)", len(ivs), ivs[0].Off, ivs[0].End())
	}
	if b, ok := tr.Get(top - 1); !ok || b != 'x' {
		t.Fatalf("last byte = (%c,%v)", b, ok)
	}
	if b, ok := tr.Get(top - 9); !ok || b != 'y' {
		t.Fatalf("byte before the first insert = (%c,%v)", b, ok)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("range wrapping past the end of the address space did not panic")
		}
	}()
	tr.Insert(top-3, fill('w', 8), KeepExisting)
}

// Insert patterns shared by the cost-bound test and the benchmarks: n
// adjacent 64-byte ranges, the shape of TPC-A's audit trail as epoch
// truncation (ascending) and crash recovery (descending) see it, and the
// paper's localized account access (70 % of ranges on 5 % of the pages,
// 25 % on 15 %, 5 % on the rest).
const recLen = 64

func insertAppendRun(tr *Tree, n int) {
	d := fill('a', recLen)
	for i := 0; i < n; i++ {
		tr.Insert(uint64(i)*recLen, d, OverwriteExisting)
	}
}

func insertPrependRun(tr *Tree, n int) {
	d := fill('p', recLen)
	for i := n - 1; i >= 0; i-- {
		tr.Insert(uint64(i)*recLen, d, KeepExisting)
	}
}

func insertLocalized(tr *Tree, n int) {
	const pages = 1024
	rng := rand.New(rand.NewSource(7))
	d := fill('l', recLen)
	for i := 0; i < n; i++ {
		var pg int
		switch r := rng.Intn(100); {
		case r < 70:
			pg = rng.Intn(pages * 5 / 100)
		case r < 95:
			pg = pages*5/100 + rng.Intn(pages*15/100)
		default:
			pg = pages*20/100 + rng.Intn(pages*80/100)
		}
		tr.Insert(uint64(pg)*pageSize+uint64(rng.Intn(pageSize/recLen))*recLen, d, KeepExisting)
	}
}

// TestInsertCostBound asserts the cost model, not a timing: building a tree
// four times as large allocates at most five times as much, so no insert
// pays for the tree or the run it extends.  (A structure that reallocates
// its index or copies a neighbour per insert allocates sixteen times as
// much.)
func TestInsertCostBound(t *testing.T) {
	allocated := func(build func(*Tree, int), n int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var tr Tree
		build(&tr, n)
		runtime.ReadMemStats(&after)
		if tr.Bytes() == 0 {
			t.Fatal("empty tree")
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, c := range []struct {
		name  string
		build func(*Tree, int)
	}{
		{"append", insertAppendRun}, {"prepend", insertPrependRun}, {"localized", insertLocalized},
	} {
		small, large := allocated(c.build, 10000), allocated(c.build, 40000)
		t.Logf("%s: 10k inserts allocate %d B, 40k allocate %d B (%.1fx)", c.name, small, large, float64(large)/float64(small))
		if large > 5*small {
			t.Errorf("%s: 40k inserts allocate %d B, more than 5x the %d B of 10k", c.name, large, small)
		}
	}
}

// TestTreeHoldsNoPointers pins what the garbage collector sees of a tree:
// the bytes are in slabs, so an insert that fills a gap allocates nothing of
// its own (a slab now and then, a chunk list when it grows), and a chunk
// header, holding a position and not a slice, is nothing to trace.
func TestTreeHoldsNoPointers(t *testing.T) {
	if k := reflect.TypeOf(chunk{}); k.Size() != 16 {
		t.Fatalf("a chunk header is %d bytes", k.Size())
	}
	for i := 0; i < reflect.TypeOf(chunk{}).NumField(); i++ {
		switch reflect.TypeOf(chunk{}).Field(i).Type.Kind() {
		case reflect.Uint32, reflect.Uint64:
		default:
			t.Fatalf("chunk field %d is not a plain integer", i)
		}
	}
	const n = 40000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var tr Tree
	insertLocalized(&tr, n)
	runtime.ReadMemStats(&after)
	tr.CheckInvariants()
	chunks := 0
	for _, cs := range tr.pages {
		chunks += len(cs)
	}
	if mallocs := after.Mallocs - before.Mallocs; mallocs > uint64(chunks)/2 {
		t.Fatalf("%d allocations for a tree of %d chunks", mallocs, chunks)
	}
	t.Logf("%d chunks, %d allocations", chunks, after.Mallocs-before.Mallocs)
}

func benchInsert(b *testing.B, build func(*Tree, int)) {
	const n = 40000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var tr Tree
		build(&tr, n)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/insert")
}

func BenchmarkInsertAppendRun(b *testing.B)  { benchInsert(b, insertAppendRun) }
func BenchmarkInsertPrependRun(b *testing.B) { benchInsert(b, insertPrependRun) }
func BenchmarkInsertLocalized(b *testing.B)  { benchInsert(b, insertLocalized) }

var walkSink uint64

// BenchmarkWalk walks a tree holding one long run (the audit trail) and the
// localized scatter, the two shapes recovery applies.
func BenchmarkWalk(b *testing.B) {
	var tr Tree
	insertLocalized(&tr, 40000)
	insertPrependRun(&tr, 40000)
	b.SetBytes(int64(tr.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Walk(func(iv Interval) error { walkSink += uint64(len(iv.Data)); return nil })
	}
}
