package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestRangesetAddDisjoint(t *testing.T) {
	var s rangeset
	a := s.add(10, 20, nil)
	if len(a) != 1 || a[0] != (span{10, 20}) {
		t.Fatalf("added %v", a)
	}
	a = s.add(30, 40, nil)
	if len(a) != 1 || len(s.spans) != 2 {
		t.Fatalf("spans %v", s.spans)
	}
}

func TestRangesetAddDuplicate(t *testing.T) {
	var s rangeset
	s.add(10, 20, nil)
	if a := s.add(10, 20, nil); len(a) != 0 {
		t.Fatalf("duplicate added %v", a)
	}
	if a := s.add(12, 18, nil); len(a) != 0 {
		t.Fatalf("contained added %v", a)
	}
	if len(s.spans) != 1 {
		t.Fatalf("spans %v", s.spans)
	}
}

func TestRangesetAddOverlap(t *testing.T) {
	var s rangeset
	s.add(10, 20, nil)
	a := s.add(15, 25, nil)
	if len(a) != 1 || a[0] != (span{20, 25}) {
		t.Fatalf("added %v", a)
	}
	if len(s.spans) != 1 || s.spans[0] != (span{10, 25}) {
		t.Fatalf("spans %v", s.spans)
	}
}

func TestRangesetAddAdjacentMerges(t *testing.T) {
	var s rangeset
	s.add(10, 20, nil)
	s.add(20, 30, nil)
	if len(s.spans) != 1 || s.spans[0] != (span{10, 30}) {
		t.Fatalf("adjacent not merged: %v", s.spans)
	}
	s.add(0, 10, nil)
	if len(s.spans) != 1 || s.spans[0] != (span{0, 30}) {
		t.Fatalf("left-adjacent not merged: %v", s.spans)
	}
}

func TestRangesetBridgesGap(t *testing.T) {
	var s rangeset
	s.add(0, 10, nil)
	s.add(20, 30, nil)
	a := s.add(5, 25, nil)
	if len(a) != 1 || a[0] != (span{10, 20}) {
		t.Fatalf("added %v", a)
	}
	if len(s.spans) != 1 || s.spans[0] != (span{0, 30}) {
		t.Fatalf("spans %v", s.spans)
	}
}

// covers reports whether [off,end) is fully covered: a test's view of the
// set, which the engine does not need.
func (s *rangeset) covers(off, end int64) bool {
	i := sort.Search(len(s.spans), func(i int) bool { return s.spans[i].end > off })
	return i < len(s.spans) && s.spans[i].off <= off && s.spans[i].end >= end
}

func TestRangesetCovers(t *testing.T) {
	var s rangeset
	s.add(10, 20, nil)
	s.add(30, 40, nil)
	cases := []struct {
		off, end int64
		want     bool
	}{
		{10, 20, true}, {12, 15, true}, {10, 11, true},
		{9, 11, false}, {19, 21, false}, {10, 40, false}, {25, 26, false},
	}
	for _, c := range cases {
		if got := s.covers(c.off, c.end); got != c.want {
			t.Errorf("covers(%d,%d)=%v want %v", c.off, c.end, got, c.want)
		}
	}
}

// TestRangesetModel compares against a bitmap model under random adds.
func TestRangesetModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		var s rangeset
		model := make([]bool, 1<<11)
		for step := 0; step < 50; step++ {
			off := int64(rng.Intn(1000))
			end := off + 1 + int64(rng.Intn(64))
			added := s.add(off, end, nil)
			// Added spans must exactly equal the previously uncovered bits.
			covered := make([]bool, len(model))
			for _, sp := range added {
				for i := sp.off; i < sp.end; i++ {
					if model[i] {
						t.Fatalf("added already-covered byte %d", i)
					}
					covered[i] = true
				}
			}
			for i := off; i < end; i++ {
				if !model[i] && !covered[i] {
					t.Fatalf("byte %d newly covered but not reported", i)
				}
				model[i] = true
			}
			// Structural invariants: sorted, disjoint, non-adjacent.
			for k := 1; k < len(s.spans); k++ {
				if s.spans[k-1].end >= s.spans[k].off {
					t.Fatalf("spans overlap/touch: %v", s.spans)
				}
			}
			// covers agrees with the model on random probes.
			for probe := 0; probe < 10; probe++ {
				o := int64(rng.Intn(1000))
				e := o + 1 + int64(rng.Intn(32))
				want := true
				for i := o; i < e && int(i) < len(model); i++ {
					if !model[i] {
						want = false
						break
					}
				}
				if got := s.covers(o, e); got != want {
					t.Fatalf("covers(%d,%d)=%v want %v", o, e, got, want)
				}
			}
		}
	}
}

// TestRangesetAddAllocs pins the in-place splice: a warm set absorbs
// fully-covered adds without allocating, and a merging add reuses the
// existing backing array instead of building a fresh slice per call.
func TestRangesetAddAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	var s rangeset
	for i := int64(0); i < 64; i++ {
		s.add(i*100, i*100+50, nil)
	}
	if n := testing.AllocsPerRun(200, func() {
		if got := s.add(1200, 1240, nil); len(got) != 0 {
			t.Fatalf("unexpectedly added %v", got)
		}
	}); n != 0 {
		t.Fatalf("fully-covered add allocated %.1f times per run, want 0", n)
	}
	// A bridging add collapses all 64 spans to one; the splice must shrink
	// the slice in place, not reallocate.
	c0 := cap(s.spans)
	s.add(0, 6400, nil)
	if len(s.spans) != 1 || s.spans[0] != (span{0, 6400}) {
		t.Fatalf("bridge add left spans %v", s.spans)
	}
	if cap(s.spans) != c0 {
		t.Fatalf("merge reallocated backing array: cap %d -> %d", c0, cap(s.spans))
	}
	// And further covered adds on the collapsed set stay allocation-free.
	if n := testing.AllocsPerRun(200, func() {
		s.add(100, 6300, nil)
	}); n != 0 {
		t.Fatalf("covered add after merge allocated %.1f times per run, want 0", n)
	}
}

// TestRangesetTotalBytesQuick: total covered bytes equal the union size.
func TestRangesetTotalBytesQuick(t *testing.T) {
	f := func(pairs []uint16) bool {
		var s rangeset
		model := map[int64]bool{}
		for i := 0; i+1 < len(pairs); i += 2 {
			off := int64(pairs[i] % 2048)
			n := int64(pairs[i+1]%128) + 1
			s.add(off, off+n, nil)
			for j := off; j < off+n; j++ {
				model[j] = true
			}
		}
		var total int64
		for _, sp := range s.spans {
			total += sp.end - sp.off
		}
		return total == int64(len(model))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
