package pagevec

import (
	"math/rand"
	"slices"
	"testing"
)

func TestQueueFIFOAndNoDuplicates(t *testing.T) {
	var q Queue
	a := PageID{0, 1}
	b := PageID{0, 2}
	if !q.Push(a, 100, 1) {
		t.Fatal("first push rejected")
	}
	if q.Push(a, 200, 2) {
		t.Fatal("duplicate push accepted")
	}
	q.Push(b, 200, 2)
	if q.Len() != 2 {
		t.Fatalf("Len=%d", q.Len())
	}
	d, ok := q.First()
	if !ok || d.ID != a || d.Pos != 100 || d.Seq != 1 {
		t.Fatalf("First=%+v", d)
	}
	if got := q.PopFirst(); got.ID != a {
		t.Fatal("PopFirst wrong")
	}
	if d, _ := q.First(); d.ID != b {
		t.Fatal("order wrong")
	}
	q.PopFirst()
	if _, ok := q.First(); ok || q.Len() != 0 {
		t.Fatal("queue not empty")
	}
	// Page can re-enter after being popped.
	if !q.Push(a, 300, 3) {
		t.Fatal("re-push after pop rejected")
	}
}

func TestPopEmptyPanics(t *testing.T) {
	var q Queue
	defer func() {
		if recover() == nil {
			t.Fatal("PopFirst on empty queue did not panic")
		}
	}()
	q.PopFirst()
}

func TestPromote(t *testing.T) {
	var q Queue
	a, b := PageID{0, 1}, PageID{0, 2}
	q.Push(a, 100, 1)
	q.Push(b, 200, 2)
	q.Promote(a, 300, 3)
	if q.Len() != 2 {
		t.Fatalf("Len=%d after promote", q.Len())
	}
	d, _ := q.First()
	if d.ID != b {
		t.Fatal("promote did not move page to back")
	}
	q.PopFirst()
	d, _ = q.First()
	if d.ID != a || d.Pos != 300 || d.Seq != 3 {
		t.Fatalf("promoted descriptor wrong: %+v", d)
	}
	// Promote of an unqueued page behaves like Push.
	var q2 Queue
	q2.Promote(a, 1, 1)
	if q2.Len() != 1 {
		t.Fatal("promote-as-push failed")
	}
}

func TestRemove(t *testing.T) {
	var q Queue
	a, b, c := PageID{0, 1}, PageID{1, 1}, PageID{0, 3}
	q.Push(a, 1, 1)
	q.Push(b, 2, 2)
	q.Push(c, 3, 3)
	if !q.Remove(b) || q.Remove(b) {
		t.Fatal("Remove semantics wrong")
	}
	if q.Len() != 2 {
		t.Fatalf("Len=%d", q.Len())
	}
	// Removing the head advances to the next live entry.
	q.Remove(a)
	d, _ := q.First()
	if d.ID != c {
		t.Fatal("head removal wrong")
	}
}

func TestRemoveRegion(t *testing.T) {
	var q Queue
	q.Push(PageID{0, 1}, 1, 1)
	q.Push(PageID{1, 1}, 2, 2)
	q.Push(PageID{0, 2}, 3, 3)
	q.Push(PageID{2, 5}, 4, 4)
	if n := q.RemoveRegion(0); n != 2 {
		t.Fatalf("RemoveRegion removed %d", n)
	}
	if q.Len() != 2 {
		t.Fatalf("Len=%d", q.Len())
	}
	var ids []PageID
	q.Walk(func(d Descriptor) { ids = append(ids, d.ID) })
	if len(ids) != 2 || ids[0] != (PageID{1, 1}) || ids[1] != (PageID{2, 5}) {
		t.Fatalf("survivors wrong: %v", ids)
	}
}

func TestDropOlderThan(t *testing.T) {
	var q Queue
	q.Push(PageID{0, 1}, 1, 1)
	q.Push(PageID{0, 2}, 2, 5)
	q.Push(PageID{0, 3}, 3, 9)
	if n := q.DropOlderThan(6); n != 2 {
		t.Fatalf("dropped %d", n)
	}
	d, ok := q.First()
	if !ok || d.Seq != 9 {
		t.Fatalf("survivor wrong: %+v ok=%v", d, ok)
	}
}

func TestQueueCompaction(t *testing.T) {
	var q Queue
	// Push and pop enough to trigger compaction several times.
	for i := 0; i < 1000; i++ {
		q.Push(PageID{0, int64(i)}, int64(i), uint64(i+1))
		if i%2 == 1 {
			q.PopFirst()
		}
	}
	if q.Len() != 500 {
		t.Fatalf("Len=%d", q.Len())
	}
	// All survivors must still be findable and ordered.
	var prev uint64
	q.Walk(func(d Descriptor) {
		if d.Seq <= prev {
			t.Fatalf("order broken at seq %d", d.Seq)
		}
		prev = d.Seq
	})
	// Index must still be consistent: removing each by ID works.
	for i := 500; i < 1000; i++ {
		if !q.Remove(PageID{0, int64(i)}) {
			t.Fatalf("lost descriptor %d after compaction", i)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len=%d at end", q.Len())
	}
}

func TestQueueRandomizedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var q Queue
	model := map[PageID]uint64{} // id -> seq
	seq := uint64(0)
	for step := 0; step < 5000; step++ {
		id := PageID{rng.Intn(3), int64(rng.Intn(40))}
		switch rng.Intn(4) {
		case 0, 1:
			seq++
			if q.Push(id, int64(seq), seq) {
				model[id] = seq
			}
		case 2:
			if q.Remove(id) {
				delete(model, id)
			}
		case 3:
			if q.Len() > 0 {
				d := q.PopFirst()
				want := uint64(1 << 62)
				var wantID PageID
				for mid, ms := range model {
					if ms < want {
						want, wantID = ms, mid
					}
				}
				if d.ID != wantID || d.Seq != want {
					t.Fatalf("step %d: popped %+v want %v/%d", step, d, wantID, want)
				}
				delete(model, d.ID)
			}
		}
		if q.Len() != len(model) {
			t.Fatalf("step %d: Len=%d model=%d", step, q.Len(), len(model))
		}
	}
	t.Run("all operations across compactions", func(t *testing.T) { queueModelAllOps(t, rand.New(rand.NewSource(33))) })
}

// queueModelAllOps drives every mutating operation of a Queue against a
// list kept in queue order, and checks every lookup and the whole order as
// it goes, across many compactions of the page-indexed slots.
func queueModelAllOps(t *testing.T, rng *rand.Rand) {
	var q Queue
	var model []Descriptor
	find := func(id PageID) int {
		for i, d := range model {
			if d.ID == id {
				return i
			}
		}
		return -1
	}
	remove := func(keep func(Descriptor) bool) int {
		kept := model[:0]
		for _, d := range model {
			if keep(d) {
				kept = append(kept, d)
			}
		}
		n := len(model) - len(kept)
		model = kept
		return n
	}
	seq, compactions, base := uint64(0), 0, 0
	for step := 0; step < 40000; step++ {
		id := PageID{rng.Intn(4), int64(rng.Intn(64))}
		seq++
		switch op := rng.Intn(16); {
		case op < 6:
			i := find(id)
			if q.Push(id, int64(seq), seq) != (i < 0) {
				t.Fatalf("step %d: Push(%v) disagrees with the model", step, id)
			}
			if i < 0 {
				model = append(model, Descriptor{id, int64(seq), seq, seq})
			} else {
				model[i].Last = seq
			}
		case op < 8:
			q.Promote(id, int64(seq), seq)
			remove(func(d Descriptor) bool { return d.ID != id })
			model = append(model, Descriptor{id, int64(seq), seq, seq})
		case op < 9:
			if q.Remove(id) != (remove(func(d Descriptor) bool { return d.ID != id }) == 1) {
				t.Fatalf("step %d: Remove(%v) disagrees with the model", step, id)
			}
		case op < 14:
			if len(model) > 0 {
				if d := q.PopFirst(); d != model[0] {
					t.Fatalf("step %d: popped %+v, want %+v", step, d, model[0])
				}
				model = model[1:]
			}
		case op < 15 && rng.Intn(8) == 0:
			below := seq - uint64(rng.Intn(200))
			if n, want := q.DropOlderThan(below), remove(func(d Descriptor) bool { return d.Seq >= below }); n != want {
				t.Fatalf("step %d: DropOlderThan(%d) removed %d, want %d", step, below, n, want)
			}
		case op == 15 && rng.Intn(8) == 0:
			if n, want := q.RemoveRegion(id.Region), remove(func(d Descriptor) bool { return d.ID.Region != id.Region }); n != want {
				t.Fatalf("step %d: RemoveRegion(%d) removed %d, want %d", step, id.Region, n, want)
			}
		}
		if q.base != base {
			compactions, base = compactions+1, q.base
		}
		probe := PageID{rng.Intn(5), int64(rng.Intn(70))}
		if d, ok := q.Get(probe); ok != (find(probe) >= 0) || ok && d != model[find(probe)] || q.Has(probe) != ok {
			t.Fatalf("step %d: Get(%v) = %+v, %v disagrees with the model", step, probe, d, ok)
		}
		if q.Len() != len(model) {
			t.Fatalf("step %d: Len=%d model=%d", step, q.Len(), len(model))
		}
		if step%97 == 0 {
			var got []Descriptor
			q.Walk(func(d Descriptor) { got = append(got, d) })
			if !slices.Equal(got, model) {
				t.Fatalf("step %d: queue order %v, want %v", step, got, model)
			}
		}
	}
	if compactions < 20 {
		t.Fatalf("%d compactions: the walk does not test them", compactions)
	}
	t.Logf("%d compactions", compactions)
}

// BenchmarkQueuePush measures the truncation queue's hot call on 1 024
// pages of three regions, what a Flush on tpca_noflush enqueues: a hit (the
// page is queued; Push notes its newest reference) and a miss (the page is
// queued anew; the queue is drained, off the clock, once all are in).
func BenchmarkQueuePush(b *testing.B) {
	const pages = 1024
	id := func(i int) PageID { return PageID{i % 3, int64(i % pages)} }
	b.Run("hit", func(b *testing.B) {
		var q Queue
		for i := 0; i < pages; i++ {
			q.Push(id(i), int64(i), uint64(i)+1)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Push(id(i), int64(i), uint64(i)+1)
		}
	})
	b.Run("miss", func(b *testing.B) {
		var q Queue
		for i := 0; i < b.N; i++ {
			if i%pages == 0 && i > 0 {
				b.StopTimer()
				for q.Len() > 0 {
					q.PopFirst()
				}
				b.StartTimer()
			}
			q.Push(id(i), int64(i), uint64(i)+1)
		}
	})
}
