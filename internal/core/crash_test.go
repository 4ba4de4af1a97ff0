package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/rvm-go/rvm/internal/iofault"
	"github.com/rvm-go/rvm/internal/segment"
)

// crashModes are the two runs of a crash test.  keep-all is the crash model
// the tests began with: the log alone behind a write cache, and every write
// made before the power failed kept, the crossing one torn.  lossy joins
// each segment to the log's machine and keeps each unsynced sector with a
// probability the trial's seed draws.
var crashModes = []struct {
	name  string
	lossy bool
}{{"keep-all", false}, {"lossy", true}}

// onMachine returns opts with the log on c and, in a lossy run, each
// segment the engine opens joined to c's machine.
func onMachine(opts Options, c *iofault.Cache, lossy bool) Options {
	opts.LogDevice = c
	if lossy {
		opts.SegmentDevice = func(_ string, f *os.File) segment.Device { return c.Join(f) }
	}
	return opts
}

// powerFail crashes c's machine: a keep-all run keeps every unsynced
// sector, a lossy one each with the probability seed draws.
func powerFail(t *testing.T, c *iofault.Cache, lossy bool, seed int64) {
	t.Helper()
	if !lossy {
		seed = iofault.KeepAll
	}
	if err := c.Crash(seed); err != nil {
		t.Fatal(err)
	}
}

// TestCrashInjectionProperty is the core atomicity + permanence property:
// for randomized transaction schedules crashed at a random write-budget
// boundary, the recovered state must be exactly the state after the last
// acknowledged commit — never a torn transaction, never a lost one.
func TestCrashInjectionProperty(t *testing.T) {
	for _, m := range crashModes {
		t.Run(m.name, func(t *testing.T) { crashInjectionProperty(t, m.lossy) })
	}
}

func crashInjectionProperty(t *testing.T, lossy bool) {
	rng := rand.New(rand.NewSource(99))
	trials := 60
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		dir := t.TempDir()
		logPath := filepath.Join(dir, "log.rvm")
		segPath := filepath.Join(dir, "seg.rvm")
		regionLen := pageBytes(2)
		if err := CreateLog(logPath, 1<<17); err != nil {
			t.Fatal(err)
		}
		if err := CreateSegment(segPath, 1, regionLen); err != nil {
			t.Fatal(err)
		}

		f, err := os.OpenFile(logPath, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		dev := iofault.NewCache(f, -1)
		eng, err := Open(onMachine(Options{LogPath: logPath}, dev, lossy))
		if err != nil {
			t.Fatal(err)
		}
		r, err := eng.Map(segPath, 0, regionLen)
		if err != nil {
			t.Fatal(err)
		}

		// Arm the crash after a random number of further log bytes.
		dev.SetBudget(int64(rng.Intn(12000)))

		shadow := make([]byte, regionLen) // state after last acknowledged commit
		acked := 0
		for i := 1; i <= 60; i++ {
			tx, err := eng.Begin(Restore)
			if err != nil {
				t.Fatal(err)
			}
			// Each transaction stamps its number at offset 0 and writes
			// 1-3 random ranges.
			type write struct {
				off  int64
				data []byte
			}
			var ws []write
			stamp := make([]byte, 8)
			stamp[7] = byte(i)
			stamp[6] = byte(i >> 8)
			ws = append(ws, write{0, stamp})
			for k := 0; k < 1+rng.Intn(3); k++ {
				off := int64(8 + rng.Intn(int(regionLen)-300))
				n := 1 + rng.Intn(250)
				data := make([]byte, n)
				rng.Read(data)
				ws = append(ws, write{off, data})
			}
			failed := false
			for _, w := range ws {
				if err := tx.Modify(r, w.off, w.data); err != nil {
					failed = true
					break
				}
			}
			if !failed {
				err = tx.Commit(Flush)
			}
			if failed || err != nil {
				break // crashed
			}
			acked = i
			for _, w := range ws {
				copy(shadow[w.off:], w.data)
			}
		}
		// A budget generous enough never to run out still leaves a crash
		// here, and plain recovery below.
		powerFail(t, dev, lossy, int64(trial))
		eng.closeFiles()

		// Restart on the real file and verify.
		eng2, err := Open(Options{LogPath: logPath})
		if err != nil {
			t.Fatalf("trial %d: reopen: %v", trial, err)
		}
		r2, err := eng2.Map(segPath, 0, regionLen)
		if err != nil {
			t.Fatal(err)
		}
		got := r2.Data()
		gotStamp := int(got[7]) | int(got[6])<<8
		if gotStamp != acked {
			t.Fatalf("trial %d: recovered stamp %d, acknowledged %d", trial, gotStamp, acked)
		}
		if !bytes.Equal(got, shadow) {
			t.Fatalf("trial %d: recovered image differs from acknowledged state", trial)
		}
		eng2.Close()
	}
}

// TestCrashDuringTruncation arms the crash while a truncation is writing
// segment pages and status blocks; recovery must still produce the
// acknowledged state.  In the keep-all run the segment is not in the
// machine (segment writes are idempotent replays of logged data), but the
// log's status updates are, exercising the doubly-buffered status block;
// the lossy run loses unsynced segment pages as well.
func TestCrashDuringTruncation(t *testing.T) {
	for _, m := range crashModes {
		t.Run(m.name, func(t *testing.T) { crashDuringTruncation(t, m.lossy) })
	}
}

func crashDuringTruncation(t *testing.T, lossy bool) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
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
		eng, err := Open(onMachine(Options{LogPath: logPath}, dev, lossy))
		if err != nil {
			t.Fatal(err)
		}
		r, err := eng.Map(segPath, 0, pageBytes(2))
		if err != nil {
			t.Fatal(err)
		}
		shadow := make([]byte, pageBytes(2))
		acked := 0
		for i := 1; i <= 10; i++ {
			tx, _ := eng.Begin(Restore)
			data := bytes.Repeat([]byte{byte(i)}, 100)
			off := int64((i - 1) * 100)
			if err := tx.Modify(r, off, data); err != nil || tx.Commit(Flush) != nil {
				t.Fatal("setup commits must succeed")
			}
			acked = i
			copy(shadow[off:], data)
		}
		// Crash somewhere inside the upcoming truncation's status write.
		dev.SetBudget(int64(rng.Intn(60)))
		_ = eng.Truncate() // may or may not fail; either way we crash next
		powerFail(t, dev, lossy, int64(trial))
		eng.closeFiles()

		eng2, err := Open(Options{LogPath: logPath})
		if err != nil {
			t.Fatalf("trial %d: reopen after trunc crash: %v", trial, err)
		}
		r2, err := eng2.Map(segPath, 0, pageBytes(2))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r2.Data()[:acked*100], shadow[:acked*100]) {
			t.Fatalf("trial %d: truncation crash lost committed data", trial)
		}
		eng2.Close()
	}
}

// TestRepeatedCrashesAccumulate runs several crash/recover cycles on the
// same store, checking that state accumulates correctly across them.
func TestRepeatedCrashesAccumulate(t *testing.T) {
	for _, m := range crashModes {
		t.Run(m.name, func(t *testing.T) { repeatedCrashesAccumulate(t, m.lossy) })
	}
}

func repeatedCrashesAccumulate(t *testing.T, lossy bool) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "log.rvm")
	segPath := filepath.Join(dir, "seg.rvm")
	if err := CreateLog(logPath, 1<<16); err != nil {
		t.Fatal(err)
	}
	if err := CreateSegment(segPath, 1, pageBytes(2)); err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 8; cycle++ {
		f, err := os.OpenFile(logPath, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		dev := iofault.NewCache(f, -1)
		eng, err := Open(onMachine(Options{LogPath: logPath}, dev, lossy))
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		r, err := eng.Map(segPath, 0, pageBytes(2))
		if err != nil {
			t.Fatal(err)
		}
		// Check every previous cycle's value.
		for c := 0; c < cycle; c++ {
			want := []byte(fmt.Sprintf("cycle-%02d", c))
			got := r.Data()[c*16 : c*16+len(want)]
			if !bytes.Equal(got, want) {
				t.Fatalf("cycle %d: lost %q, have %q", cycle, want, got)
			}
		}
		tx, _ := eng.Begin(Restore)
		if err := tx.Modify(r, int64(cycle*16), []byte(fmt.Sprintf("cycle-%02d", cycle))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(Flush); err != nil {
			t.Fatal(err)
		}
		// Crash without Close.
		powerFail(t, dev, lossy, int64(cycle))
		eng.closeFiles()
	}
}
