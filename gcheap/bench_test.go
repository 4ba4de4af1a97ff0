package gcheap

import (
	"fmt"
	"path/filepath"
	"testing"

	rvm "github.com/rvm-go/rvm"
)

func benchHeap(b *testing.B, pages int) (*rvm.RVM, *Heap) {
	b.Helper()
	dir := b.TempDir()
	logPath := filepath.Join(dir, "g.log")
	segPath := filepath.Join(dir, "g.seg")
	if err := rvm.CreateLog(logPath, 1<<22); err != nil {
		b.Fatal(err)
	}
	if err := rvm.CreateSegment(segPath, 1, page(1+2*pages)); err != nil {
		b.Fatal(err)
	}
	db, err := rvm.Open(rvm.Options{LogPath: logPath})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	meta, err := db.Map(segPath, 0, page(1))
	if err != nil {
		b.Fatal(err)
	}
	s0, err := db.Map(segPath, page(1), page(pages))
	if err != nil {
		b.Fatal(err)
	}
	s1, err := db.Map(segPath, page(1+pages), page(pages))
	if err != nil {
		b.Fatal(err)
	}
	h, err := Format(db, meta, s0, s1)
	if err != nil {
		b.Fatal(err)
	}
	return db, h
}

// BenchmarkAlloc measures transactional object allocation.
func BenchmarkAlloc(b *testing.B) {
	db, h := benchHeap(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := db.Begin(rvm.Restore)
		if _, err := h.Alloc(tx, 64, nil); err != nil {
			// Space exhausted: collect (everything is garbage — no root).
			tx.Abort()
			b.StopTimer()
			if _, err := h.GC(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			continue
		}
		if err := tx.Commit(rvm.NoFlush); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGC measures a full collection of a 500-object live chain.
func BenchmarkGC(b *testing.B) {
	db, h := benchHeap(b, 64)
	var prev Ref
	for i := 0; i < 500; i++ {
		tx, _ := db.Begin(rvm.Restore)
		var refs []Ref
		if prev != 0 {
			refs = []Ref{prev}
		}
		obj, err := h.Alloc(tx, 48, refs)
		if err != nil {
			b.Fatal(err)
		}
		if err := h.WritePayload(tx, obj, 0, []byte(fmt.Sprintf("object-%d", i))); err != nil {
			b.Fatal(err)
		}
		if err := h.SetRoot(tx, obj); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(rvm.NoFlush); err != nil {
			b.Fatal(err)
		}
		prev = obj
	}
	db.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := h.GC()
		if err != nil {
			b.Fatal(err)
		}
		if n != 500 {
			b.Fatalf("copied %d", n)
		}
	}
}
