package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/rvm-go/rvm/internal/iofault"
)

// TestLossyCrashProperty is process-failure permanence on a machine that
// loses unsynced writes.  Each trial runs up to 300 operations from one
// goroutine on a 32 KiB log: flush and no-flush commits, each stamping its
// number, Flush, Truncate and TruncateIncremental, Unmap with the region
// mapped again, and now and then a truncation with a page pinned by an
// open transaction, so that the cleaner gives up on it and an epoch runs.
// No truncation starts on its own, so the log fills.  A write budget drawn
// per trial stops the machine, the log and the segment in it, or, in half
// the trials, one armed when the log is nearly full: then power fails in
// an append into the space a head move just freed, or in a drain that
// fills the log and makes an epoch apply what it appended.  The machine
// keeps each unsynced sector with probability 0, 0.5, 1 or a random one.
// After the restart the stamp names a commit k: k is at least the last
// acknowledged commit, and the image is exactly the state after commit k.
// A commit whose Commit failed may survive, but only whole.
func TestLossyCrashProperty(t *testing.T) {
	trials := 1500
	if testing.Short() {
		trials = 150
	}
	// Every trial starts from the same files, the segment already in the
	// dictionary: written back without a sync, they cost a trial no fsync.
	dir := t.TempDir()
	if err := CreateLog(filepath.Join(dir, "log.rvm"), 32<<10); err != nil {
		t.Fatal(err)
	}
	if err := CreateSegment(filepath.Join(dir, "seg.rvm"), 1, pageBytes(lossyPages)); err != nil {
		t.Fatal(err)
	}
	eng, err := Open(Options{LogPath: filepath.Join(dir, "log.rvm")})
	if err == nil {
		_, err = eng.Map(filepath.Join(dir, "seg.rvm"), 0, pageBytes(lossyPages))
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, name := range []string{"log.rvm", "log.rvm.segs", "seg.rvm"} {
		if files[name], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < trials; trial++ {
		for name, b := range files {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		lossyTrial(t, int64(trial), dir)
	}
}

// lossyPages is the size of the region a lossy trial maps, in pages.
const lossyPages = 16

// lossyWrite is one range a commit writes.
type lossyWrite struct {
	off  int64
	data []byte
}

// lossyTrial runs one trial of TestLossyCrashProperty on the files in dir.
func lossyTrial(t *testing.T, seed int64, dir string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	logPath, segPath := filepath.Join(dir, "log.rvm"), filepath.Join(dir, "seg.rvm")
	f, err := os.OpenFile(logPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	cache := iofault.NewCache(f, -1)
	opts := Options{LogPath: logPath, TruncateThreshold: -1}
	eng, err := Open(onMachine(opts, cache, true))
	if err != nil {
		t.Fatal(err)
	}
	r, err := eng.Map(segPath, 0, pageBytes(lossyPages))
	if err != nil {
		t.Fatal(err)
	}
	// In one trial of two the machine runs with no budget until the log is
	// within 4 KiB of full; then power fails in what a full log makes of the
	// next writes (nearFull below).
	nearFull := rng.Intn(2) == 0
	if !nearFull {
		cache.SetBudget(rng.Int63n(256 << 10))
	}

	var commits [][]lossyWrite // of every commit tried, the one that failed too
	var trace []string
	acked, committed := 0, 0
	pins := 0
	if seed%30 == 0 {
		pins = 1 // each costs the cleaner's grace, 50 ms
	}
	// commit stamps and writes one to three ranges of up to 2000 bytes, or
	// of 2000 bytes exactly if it is to be big.
	commit := func(mode CommitMode, big bool) error {
		ws := []lossyWrite{{0, binary.BigEndian.AppendUint64(nil, uint64(len(commits)+1))}}
		for k := rng.Intn(3); k >= 0; k-- {
			n := 1 + rng.Intn(2000)
			if big {
				n = 2000
			}
			data := make([]byte, n)
			rng.Read(data)
			ws = append(ws, lossyWrite{8 + rng.Int63n(pageBytes(lossyPages)-8-int64(n)), data})
		}
		commits = append(commits, ws)
		trace = append(trace, fmt.Sprintf("commit %d %s", len(commits), map[CommitMode]string{Flush: "flush", NoFlush: "no-flush"}[mode]))
		tx, err := eng.Begin(Restore)
		for _, w := range ws {
			if err == nil {
				err = tx.Modify(r, w.off, w.data)
			}
		}
		if err == nil {
			err = tx.Commit(mode)
		}
		if err == nil {
			committed = len(commits)
			if mode == Flush {
				acked = committed
			}
		}
		return err
	}
	// durable runs an operation that makes every commit so far durable.
	durable := func(name string, op func() error) error {
		trace = append(trace, name)
		err := op()
		if err == nil {
			acked = committed
		}
		return err
	}
	for op := 0; op < 300; op++ {
		var err error
		qi, _ := eng.Query(nil)
		switch x := rng.Intn(100); {
		case nearFull && qi.LogUsed+(4<<10) >= 32<<10:
			nearFull = false
			if rng.Intn(2) == 0 {
				// A Flush drains spooled commits into the full log: an epoch
				// applies the records the drain appended before it stopped,
				// and the drain goes on.
				for i := 0; i < 6 && err == nil; i++ {
					err = commit(NoFlush, false)
				}
				if err == nil {
					trace = append(trace, "armed")
					cache.SetBudget(rng.Int63n(48 << 10))
					err = durable("flush", eng.Flush)
				}
				break
			}
			// A head move, then an append that runs past the gap before
			// the old head into the space the move freed.
			frac := rng.Float64() / 2
			err = durable(fmt.Sprintf("truncate to %.2f", frac), func() error { return eng.TruncateIncremental(frac) })
			if err == nil {
				trace = append(trace, "armed")
				cache.SetBudget(rng.Int63n(6 << 10))
				err = commit(Flush, true)
			}
		case x < 50:
			err = commit(NoFlush, false)
		case x < 80:
			err = commit(Flush, false)
		case x < 86:
			err = durable("flush", eng.Flush)
		case x < 89:
			err = durable("truncate", eng.Truncate)
		case x < 97:
			frac := rng.Float64() / 2
			err = durable(fmt.Sprintf("truncate to %.2f", frac), func() error { return eng.TruncateIncremental(frac) })
		case x < 99:
			err = durable("unmap, map", func() error {
				if err := eng.Unmap(r); err != nil {
					return err
				}
				r, err = eng.Map(segPath, 0, pageBytes(lossyPages))
				return err
			})
		case pins > 0:
			// An open transaction pins a page the commits may have dirtied.
			pins--
			pin, berr := eng.Begin(Restore)
			off := 8 + rng.Int63n(pageBytes(lossyPages)-16)
			if err = berr; err == nil {
				err = pin.Modify(r, off, []byte("pinned!!"))
			}
			if err == nil {
				err = durable(fmt.Sprintf("truncate, %d pinned", off), eng.Truncate)
			}
			if aerr := pin.Abort(); err == nil {
				err = aerr
			}
		}
		if err != nil {
			trace = append(trace, err.Error())
			break
		}
	}

	var how string
	switch rng.Intn(4) {
	case 0:
		how, err = "kept no sector", cache.Crash(iofault.DropAll)
	case 1:
		how, err = "kept every sector", cache.Crash(iofault.KeepAll)
	case 2:
		half := rand.New(rand.NewSource(seed))
		how, err = "kept each sector with probability 0.5", cache.CrashKeeping(func(*iofault.Cache, int64) bool { return half.Intn(2) == 0 })
	default:
		how, err = "kept each sector with a seeded probability", cache.Crash(seed)
	}
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	eng.closeFiles()

	eng, err = Open(Options{LogPath: logPath})
	if err != nil {
		t.Fatalf("seed %d: reopen: %v", seed, err)
	}
	defer eng.Close()
	r, err = eng.Map(segPath, 0, pageBytes(lossyPages))
	if err != nil {
		t.Fatal(err)
	}
	got := r.Data()
	k := int(binary.BigEndian.Uint64(got))
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d (%s; %d epochs, %d pages written): %s\nran: %s",
			seed, how, st.EpochTruncs, st.PagesWritten, fmt.Sprintf(format, args...), strings.Join(trace, "; "))
	}
	if k < acked || k > len(commits) {
		fail("recovered commit %d; acknowledged %d, committed %d, tried %d", k, acked, committed, len(commits))
	}
	want := make([]byte, len(got))
	for _, ws := range commits[:k] {
		for _, w := range ws {
			copy(want[w.off:], w.data)
		}
	}
	if !bytes.Equal(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		fail("the image is not the state after commit %d: it differs from byte %d", k, i)
	}
}

// TestSpoolDiscardKeepsCommitOrder: of three no-flush commits, A and C
// write the same bytes and B others in between, so the drain leaves A out.
// It must do so in one record: a Flush drains the spool in one device
// write, and a crash that tore it after B's bytes, were they a record of
// their own, would restart with B's bytes and without A's, a state after
// no commit (TestLossyCrashProperty found it, seed 722).  The tear falls at
// every eighth byte of the write.
func TestSpoolDiscardKeepsCommitOrder(t *testing.T) {
	a, b, c := bytes.Repeat([]byte{'a'}, 100), bytes.Repeat([]byte{'b'}, 100), bytes.Repeat([]byte{'c'}, 100)
	states := [][]lossyWrite{nil, {{0, a}}, {{0, a}, {1000, b}}, {{0, a}, {1000, b}, {0, c}}}
	for budget := int64(0); ; budget += 8 {
		dir := t.TempDir()
		logPath, segPath := filepath.Join(dir, "log.rvm"), filepath.Join(dir, "seg.rvm")
		if err := CreateLog(logPath, 1<<16); err != nil {
			t.Fatal(err)
		}
		if err := CreateSegment(segPath, 1, pageBytes(1)); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(logPath, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		cache := iofault.NewCache(f, -1)
		eng, err := Open(onMachine(Options{LogPath: logPath, TruncateThreshold: -1}, cache, true))
		if err != nil {
			t.Fatal(err)
		}
		r, err := eng.Map(segPath, 0, pageBytes(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range states[3] {
			tx, _ := eng.Begin(Restore)
			if err := tx.Modify(r, w.off, w.data); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(NoFlush); err != nil {
				t.Fatal(err)
			}
		}
		cache.SetBudget(budget)
		flushed := eng.Flush() == nil
		if err := cache.Crash(iofault.KeepAll); err != nil {
			t.Fatal(err)
		}
		eng.closeFiles()
		eng, err = Open(Options{LogPath: logPath})
		if err != nil {
			t.Fatal(err)
		}
		r, err = eng.Map(segPath, 0, pageBytes(1))
		if err != nil {
			t.Fatal(err)
		}
		got := bytes.Clone(r.Data())
		eng.Close()
		match := false
		for _, ws := range states {
			want := make([]byte, len(got))
			for _, w := range ws {
				copy(want[w.off:], w.data)
			}
			match = match || bytes.Equal(got, want)
		}
		if !match {
			t.Fatalf("a drain torn after %d bytes restarts to a state after no commit", budget)
		}
		if flushed {
			return
		}
	}
}
