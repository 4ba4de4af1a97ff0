package rvm_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	rvm "github.com/rvm-go/rvm"
)

// TestStressConcurrentMixedLoad hammers one store from several goroutines
// with mixed flush/no-flush commits, aborts, explicit flushes, and both
// truncation kinds, under automatic background truncation — then crashes
// and verifies every acknowledged slot value.  Run with -race in CI.
func TestStressConcurrentMixedLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short")
	}
	dir := t.TempDir()
	logPath := filepath.Join(dir, "stress.log")
	segPath := filepath.Join(dir, "stress.seg")
	if err := rvm.CreateLog(logPath, 1<<20); err != nil {
		t.Fatal(err)
	}
	regionLen := 8 * int64(rvm.PageSize)
	if err := rvm.CreateSegment(segPath, 1, regionLen); err != nil {
		t.Fatal(err)
	}
	db, err := rvm.Open(rvm.Options{
		LogPath:           logPath,
		TruncateThreshold: 0.25, // keep background truncation busy
	})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := db.Map(segPath, 0, regionLen)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 6
	const opsPerWorker = 300
	const slotSize = 256
	slotsPerWorker := int(regionLen) / slotSize / workers

	// finals[w][s] = last acknowledged value in worker w's slot s.
	finals := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		finals[w] = make([]uint64, slotsPerWorker)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w * slotsPerWorker * slotSize)
			for i := 0; i < opsPerWorker; i++ {
				slot := i % slotsPerWorker
				off := base + int64(slot*slotSize)
				val := uint64(w)<<32 | uint64(i+1)
				tx, err := db.Begin(rvm.Restore)
				if err != nil {
					t.Error(err)
					return
				}
				if err := tx.SetRange(reg, off, 8); err != nil {
					t.Error(err)
					return
				}
				binary.BigEndian.PutUint64(reg.Data()[off:], val)
				switch i % 7 {
				case 0:
					if err := tx.Commit(rvm.Flush); err != nil {
						t.Error(err)
						return
					}
					finals[w][slot] = val
				case 3:
					// Abort: restore and do not record.
					if err := tx.Abort(); err != nil {
						t.Error(err)
						return
					}
				default:
					if err := tx.Commit(rvm.NoFlush); err != nil {
						t.Error(err)
						return
					}
					finals[w][slot] = val
				}
				switch i % 53 {
				case 11:
					if err := db.Flush(); err != nil {
						t.Error(err)
						return
					}
				case 29:
					if err := db.Truncate(); err != nil {
						t.Error(err)
						return
					}
				case 47:
					if err := db.TruncateIncremental(0.1); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	// Crash and verify every final acknowledged value.
	db2, err := rvm.Open(rvm.Options{LogPath: logPath})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	reg2, err := db2.Map(segPath, 0, regionLen)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		base := w * slotsPerWorker * slotSize
		for s := 0; s < slotsPerWorker; s++ {
			want := finals[w][s]
			got := binary.BigEndian.Uint64(reg2.Data()[base+s*slotSize:])
			if got != want {
				t.Fatalf("worker %d slot %d: got %x want %x", w, s, got, want)
			}
		}
	}
}

// TestMultipleStoresInOneProcess verifies that independent RVM instances
// (separate logs and segments) coexist without interference — the paper's
// one-log-per-process constraint is per store, not per OS process here.
func TestMultipleStoresInOneProcess(t *testing.T) {
	dir := t.TempDir()
	type inst struct {
		db  *rvm.RVM
		reg *rvm.Region
	}
	var stores []inst
	for i := 0; i < 3; i++ {
		logPath := filepath.Join(dir, fmt.Sprintf("s%d.log", i))
		segPath := filepath.Join(dir, fmt.Sprintf("s%d.seg", i))
		if err := rvm.CreateLog(logPath, 1<<17); err != nil {
			t.Fatal(err)
		}
		if err := rvm.CreateSegment(segPath, uint64(i+1), int64(rvm.PageSize)); err != nil {
			t.Fatal(err)
		}
		db, err := rvm.Open(rvm.Options{LogPath: logPath})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		reg, err := db.Map(segPath, 0, int64(rvm.PageSize))
		if err != nil {
			t.Fatal(err)
		}
		stores = append(stores, inst{db, reg})
	}
	for i, s := range stores {
		tx, _ := s.db.Begin(rvm.Restore)
		if err := tx.Modify(s.reg, 0, []byte(fmt.Sprintf("store-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(rvm.Flush); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range stores {
		want := []byte(fmt.Sprintf("store-%d", i))
		if !bytes.Equal(s.reg.Data()[:len(want)], want) {
			t.Fatalf("store %d cross-contaminated: %q", i, s.reg.Data()[:len(want)])
		}
	}
}
