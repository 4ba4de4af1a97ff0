package rbtree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	rvm "github.com/rvm-go/rvm"
	"github.com/rvm-go/rvm/rds"
)

type fixture struct {
	db      *rvm.RVM
	heap    *rds.Heap
	tree    *Tree
	logPath string
	segPath string
	pages   int
}

func newFixture(t *testing.T, pages int) *fixture {
	t.Helper()
	dir := t.TempDir()
	f := &fixture{
		logPath: filepath.Join(dir, "t.log"),
		segPath: filepath.Join(dir, "t.seg"),
		pages:   pages,
	}
	if err := rvm.CreateLog(f.logPath, 1<<22); err != nil {
		t.Fatal(err)
	}
	if err := rvm.CreateSegment(f.segPath, 1, int64(pages)*int64(rvm.PageSize)); err != nil {
		t.Fatal(err)
	}
	db, err := rvm.Open(rvm.Options{LogPath: f.logPath})
	if err != nil {
		t.Fatal(err)
	}
	f.db = db
	t.Cleanup(func() { db.Close() })
	reg, err := db.Map(f.segPath, 0, int64(pages)*int64(rvm.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	heap, err := rds.Format(db, reg)
	if err != nil {
		t.Fatal(err)
	}
	f.heap = heap
	tx, _ := db.Begin(rvm.Restore)
	tree, err := Create(db, heap, tx)
	if err != nil {
		t.Fatal(err)
	}
	if err := heap.SetRoot(tx, tree.Anchor()); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(rvm.Flush); err != nil {
		t.Fatal(err)
	}
	f.tree = tree
	return f
}

// reopen simulates a crash and re-attaches to the tree via the heap root.
func (f *fixture) reopen(t *testing.T) {
	t.Helper()
	db, err := rvm.Open(rvm.Options{LogPath: f.logPath})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	reg, err := db.Map(f.segPath, 0, int64(f.pages)*int64(rvm.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	heap, err := rds.Attach(db, reg)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Open(db, heap, heap.Root())
	if err != nil {
		t.Fatal(err)
	}
	f.db, f.heap, f.tree = db, heap, tree
}

func (f *fixture) put(t *testing.T, key string, val uint64) {
	t.Helper()
	tx, _ := f.db.Begin(rvm.Restore)
	if _, err := f.tree.Put(tx, []byte(key), val); err != nil {
		tx.Abort()
		t.Fatal(err)
	}
	if err := tx.Commit(rvm.NoFlush); err != nil {
		t.Fatal(err)
	}
}

func (f *fixture) del(t *testing.T, key string) bool {
	t.Helper()
	tx, _ := f.db.Begin(rvm.Restore)
	ok, err := f.tree.Delete(tx, []byte(key))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(rvm.NoFlush); err != nil {
		t.Fatal(err)
	}
	return ok
}

func TestPutGetUpdate(t *testing.T) {
	f := newFixture(t, 32)
	f.put(t, "alpha", 1)
	f.put(t, "beta", 2)
	if v, ok, _ := f.tree.Get([]byte("alpha")); !ok || v != 1 {
		t.Fatalf("alpha: %d %v", v, ok)
	}
	f.put(t, "alpha", 99) // update
	if v, _, _ := f.tree.Get([]byte("alpha")); v != 99 {
		t.Fatalf("updated alpha: %d", v)
	}
	if f.tree.Len() != 2 {
		t.Fatalf("Len=%d", f.tree.Len())
	}
	if _, ok, _ := f.tree.Get([]byte("gamma")); ok {
		t.Fatal("phantom key")
	}
}

func TestKeyValidation(t *testing.T) {
	f := newFixture(t, 32)
	tx, _ := f.db.Begin(rvm.Restore)
	defer tx.Commit(rvm.NoFlush)
	if _, err := f.tree.Put(tx, nil, 1); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("empty key: %v", err)
	}
	long := bytes.Repeat([]byte{'k'}, MaxKeyLen+1)
	if _, err := f.tree.Put(tx, long, 1); !errors.Is(err, ErrKeyTooLong) {
		t.Fatalf("long key: %v", err)
	}
	if _, _, err := f.tree.Get(long); !errors.Is(err, ErrKeyTooLong) {
		t.Fatalf("long get: %v", err)
	}
	exact := bytes.Repeat([]byte{'k'}, MaxKeyLen)
	if _, err := f.tree.Put(tx, exact, 1); err != nil {
		t.Fatalf("max-length key rejected: %v", err)
	}
}

func TestSplitsGrowHeight(t *testing.T) {
	f := newFixture(t, 512)
	n := 2000
	for i := 0; i < n; i++ {
		f.put(t, fmt.Sprintf("key-%06d", i), uint64(i))
	}
	if f.tree.Len() != n {
		t.Fatalf("Len=%d", f.tree.Len())
	}
	if f.tree.Height() < 3 {
		t.Fatalf("height %d after %d inserts", f.tree.Height(), n)
	}
	if err := f.tree.Check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 97 {
		key := fmt.Sprintf("key-%06d", i)
		if v, ok, _ := f.tree.Get([]byte(key)); !ok || v != uint64(i) {
			t.Fatalf("%s: %d %v", key, v, ok)
		}
	}
}

func TestAscendRange(t *testing.T) {
	f := newFixture(t, 64)
	for i := 0; i < 300; i++ {
		f.put(t, fmt.Sprintf("k%04d", i*2), uint64(i*2)) // even keys
	}
	var got []string
	err := f.tree.Ascend([]byte("k0100"), []byte("k0120"), func(k []byte, v uint64) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"k0100", "k0102", "k0104", "k0106", "k0108", "k0110", "k0112", "k0114", "k0116", "k0118"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
	// Full scan is globally sorted and complete.
	count := 0
	var prev string
	f.tree.Ascend(nil, nil, func(k []byte, v uint64) bool {
		if prev != "" && string(k) <= prev {
			t.Fatalf("scan out of order at %q", k)
		}
		prev = string(k)
		count++
		return true
	})
	if count != 300 {
		t.Fatalf("full scan saw %d", count)
	}
	// Early stop.
	count = 0
	f.tree.Ascend(nil, nil, func(k []byte, v uint64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop: %d", count)
	}
}

func TestDelete(t *testing.T) {
	f := newFixture(t, 64)
	for i := 0; i < 500; i++ {
		f.put(t, fmt.Sprintf("d%04d", i), uint64(i))
	}
	for i := 0; i < 500; i += 2 {
		if !f.del(t, fmt.Sprintf("d%04d", i)) {
			t.Fatalf("delete d%04d failed", i)
		}
	}
	if f.del(t, "d0000") {
		t.Fatal("double delete succeeded")
	}
	if f.tree.Len() != 250 {
		t.Fatalf("Len=%d", f.tree.Len())
	}
	for i := 0; i < 500; i++ {
		_, ok, _ := f.tree.Get([]byte(fmt.Sprintf("d%04d", i)))
		if ok != (i%2 == 1) {
			t.Fatalf("d%04d present=%v", i, ok)
		}
	}
	if err := f.tree.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestAbortUndoesTreeMutation(t *testing.T) {
	f := newFixture(t, 64)
	for i := 0; i < 100; i++ {
		f.put(t, fmt.Sprintf("s%03d", i), uint64(i))
	}
	before := f.tree.Len()
	tx, _ := f.db.Begin(rvm.Restore)
	for i := 0; i < 50; i++ {
		if _, err := f.tree.Put(tx, []byte(fmt.Sprintf("abort%03d", i)), 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.tree.Delete(tx, []byte("s000")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if f.tree.Len() != before {
		t.Fatalf("abort leaked: Len=%d want %d", f.tree.Len(), before)
	}
	if _, ok, _ := f.tree.Get([]byte("abort000")); ok {
		t.Fatal("aborted insert visible")
	}
	if _, ok, _ := f.tree.Get([]byte("s000")); !ok {
		t.Fatal("aborted delete took effect")
	}
	if err := f.tree.Check(); err != nil {
		t.Fatalf("tree corrupt after abort: %v", err)
	}
}

func TestCrashRecovery(t *testing.T) {
	f := newFixture(t, 64)
	for i := 0; i < 400; i++ {
		f.put(t, fmt.Sprintf("c%04d", i), uint64(i))
	}
	if err := f.db.Flush(); err != nil {
		t.Fatal(err)
	}
	// An unflushed burst and an uncommitted transaction, then crash.
	f.put(t, "unflushed", 1)
	tx, _ := f.db.Begin(rvm.Restore)
	if _, err := f.tree.Put(tx, []byte("uncommitted"), 1); err != nil {
		t.Fatal(err)
	}
	f.reopen(t)
	if err := f.tree.Check(); err != nil {
		t.Fatalf("tree corrupt after crash: %v", err)
	}
	if f.tree.Len() != 400 {
		t.Fatalf("Len=%d after crash", f.tree.Len())
	}
	for i := 0; i < 400; i += 37 {
		if _, ok, _ := f.tree.Get([]byte(fmt.Sprintf("c%04d", i))); !ok {
			t.Fatalf("c%04d lost", i)
		}
	}
	if _, ok, _ := f.tree.Get([]byte("uncommitted")); ok {
		t.Fatal("uncommitted insert survived crash")
	}
}

// TestRandomizedModel compares the tree against a map + sorted slice
// under random puts, updates, deletes, scans, crashes, and truncations.
func TestRandomizedModel(t *testing.T) {
	f := newFixture(t, 256)
	rng := rand.New(rand.NewSource(77))
	model := map[string]uint64{}
	steps := 3000
	if testing.Short() {
		steps = 400
	}
	for step := 0; step < steps; step++ {
		key := fmt.Sprintf("m%05d", rng.Intn(1200))
		switch r := rng.Intn(100); {
		case r < 60:
			val := rng.Uint64()
			tx, _ := f.db.Begin(rvm.Restore)
			ins, err := f.tree.Put(tx, []byte(key), val)
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(rvm.NoFlush); err != nil {
				t.Fatal(err)
			}
			_, existed := model[key]
			if ins == existed {
				t.Fatalf("step %d: Put reported inserted=%v, model existed=%v", step, ins, existed)
			}
			model[key] = val
		case r < 80:
			ok := f.del(t, key)
			_, existed := model[key]
			if ok != existed {
				t.Fatalf("step %d: Delete=%v, model=%v", step, ok, existed)
			}
			delete(model, key)
		case r < 90:
			v, ok, err := f.tree.Get([]byte(key))
			if err != nil {
				t.Fatal(err)
			}
			mv, mok := model[key]
			if ok != mok || (ok && v != mv) {
				t.Fatalf("step %d: Get(%s)=(%d,%v) model (%d,%v)", step, key, v, ok, mv, mok)
			}
		case r < 96 && step%151 == 0:
			if err := f.db.Flush(); err != nil {
				t.Fatal(err)
			}
			f.reopen(t)
		default:
			if step%97 == 0 {
				if err := f.db.Truncate(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if step%500 == 499 {
			if err := f.tree.Check(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	// Final audit: exact equality with the model via a full scan.
	if f.tree.Len() != len(model) {
		t.Fatalf("Len=%d model=%d", f.tree.Len(), len(model))
	}
	wantKeys := make([]string, 0, len(model))
	for k := range model {
		wantKeys = append(wantKeys, k)
	}
	sort.Strings(wantKeys)
	i := 0
	err := f.tree.Ascend(nil, nil, func(k []byte, v uint64) bool {
		if i >= len(wantKeys) || string(k) != wantKeys[i] || v != model[wantKeys[i]] {
			t.Fatalf("scan mismatch at %d: %q", i, k)
		}
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(wantKeys) {
		t.Fatalf("scan stopped at %d of %d", i, len(wantKeys))
	}
	if err := f.tree.Check(); err != nil {
		t.Fatal(err)
	}
}
