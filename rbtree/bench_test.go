package rbtree

import (
	"fmt"
	"path/filepath"
	"testing"

	rvm "github.com/rvm-go/rvm"
	"github.com/rvm-go/rvm/rds"
)

func benchTree(b *testing.B) (*rvm.RVM, *Tree) {
	b.Helper()
	dir := b.TempDir()
	logPath := filepath.Join(dir, "b.log")
	segPath := filepath.Join(dir, "b.seg")
	if err := rvm.CreateLog(logPath, 64<<20); err != nil {
		b.Fatal(err)
	}
	if err := rvm.CreateSegment(segPath, 1, 16<<20); err != nil {
		b.Fatal(err)
	}
	db, err := rvm.Open(rvm.Options{LogPath: logPath, TruncateThreshold: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	reg, err := db.Map(segPath, 0, 16<<20)
	if err != nil {
		b.Fatal(err)
	}
	heap, err := rds.Format(db, reg)
	if err != nil {
		b.Fatal(err)
	}
	tx, _ := db.Begin(rvm.Restore)
	tree, err := Create(db, heap, tx)
	if err != nil {
		b.Fatal(err)
	}
	if err := tx.Commit(rvm.Flush); err != nil {
		b.Fatal(err)
	}
	return db, tree
}

// BenchmarkPut measures transactional upserts (one no-flush tx each)
// against a pre-populated 4k-key tree.  The key space is bounded so the
// measurement is steady-state whatever b.N the framework picks.
func BenchmarkPut(b *testing.B) {
	db, tree := benchTree(b)
	const n = 4096
	for i := 0; i < n; i++ {
		tx, _ := db.Begin(rvm.Restore)
		tree.Put(tx, []byte(fmt.Sprintf("bench-key-%09d", i)), uint64(i))
		tx.Commit(rvm.NoFlush)
	}
	db.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := db.Begin(rvm.Restore)
		if _, err := tree.Put(tx, []byte(fmt.Sprintf("bench-key-%09d", i%n)), uint64(i)); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(rvm.NoFlush); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGet measures lookups in a 4k-key tree.
func BenchmarkGet(b *testing.B) {
	db, tree := benchTree(b)
	const n = 4096
	for i := 0; i < n; i++ {
		tx, _ := db.Begin(rvm.Restore)
		tree.Put(tx, []byte(fmt.Sprintf("bench-key-%09d", i)), uint64(i))
		tx.Commit(rvm.NoFlush)
	}
	db.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("bench-key-%09d", i%n))
		if _, ok, err := tree.Get(key); err != nil || !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkAscend measures a full ordered scan of a 4k-key tree.
func BenchmarkAscend(b *testing.B) {
	db, tree := benchTree(b)
	const n = 4096
	for i := 0; i < n; i++ {
		tx, _ := db.Begin(rvm.Restore)
		tree.Put(tx, []byte(fmt.Sprintf("bench-key-%09d", i)), uint64(i))
		tx.Commit(rvm.NoFlush)
	}
	db.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		tree.Ascend(nil, nil, func([]byte, uint64) bool { count++; return true })
		if count != n {
			b.Fatalf("scan saw %d", count)
		}
	}
}
