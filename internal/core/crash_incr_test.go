package core

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/rvm-go/rvm/internal/iofault"
)

// TestCrashDuringIncrementalTruncation arms the machine's budget while
// incremental truncation is moving the log head (each step persists a
// status block); the acknowledged state must survive any cut point.
func TestCrashDuringIncrementalTruncation(t *testing.T) {
	for _, m := range crashModes {
		t.Run(m.name, func(t *testing.T) { crashDuringIncrementalTruncation(t, m.lossy) })
	}
}

func crashDuringIncrementalTruncation(t *testing.T, lossy bool) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		dir := t.TempDir()
		logPath := filepath.Join(dir, "log.rvm")
		segPath := filepath.Join(dir, "seg.rvm")
		if err := CreateLog(logPath, 1<<16); err != nil {
			t.Fatal(err)
		}
		if err := CreateSegment(segPath, 1, pageBytes(2)); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(logPath, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		dev := iofault.NewCache(f, -1)
		eng, err := Open(onMachine(Options{LogPath: logPath, Incremental: true}, dev, lossy))
		if err != nil {
			t.Fatal(err)
		}
		r, err := eng.Map(segPath, 0, pageBytes(2))
		if err != nil {
			t.Fatal(err)
		}
		shadow := make([]byte, pageBytes(2))
		for i := 1; i <= 12; i++ {
			tx, _ := eng.Begin(Restore)
			data := bytes.Repeat([]byte{byte(i)}, 80)
			off := int64((i - 1) % 2 * int(pageBytes(1)))
			off += int64((i - 1) / 2 * 96)
			if err := tx.Modify(r, off, data); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(Flush); err != nil {
				t.Fatal(err)
			}
			copy(shadow[off:], data)
		}
		// Crash somewhere inside the incremental pass: the log-status
		// updates go through the write cache.
		dev.SetBudget(int64(rng.Intn(200)))
		_ = eng.TruncateIncremental(0) // may fail mid-way; that is the point
		powerFail(t, dev, lossy, int64(trial))
		eng.closeFiles()

		eng2, err := Open(Options{LogPath: logPath})
		if err != nil {
			t.Fatalf("trial %d: reopen: %v", trial, err)
		}
		r2, err := eng2.Map(segPath, 0, pageBytes(2))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r2.Data(), shadow) {
			t.Fatalf("trial %d: incremental-truncation crash lost committed data", trial)
		}
		eng2.Close()
	}
}
