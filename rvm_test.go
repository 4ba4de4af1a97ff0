package rvm_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	rvm "github.com/rvm-go/rvm"
	"github.com/rvm-go/rvm/internal/iofault"
)

type store struct {
	logPath string
	segPath string
	db      *rvm.RVM
}

func newStore(t *testing.T, opts rvm.Options) *store {
	t.Helper()
	dir := t.TempDir()
	s := &store{
		logPath: filepath.Join(dir, "rvm.log"),
		segPath: filepath.Join(dir, "data.seg"),
	}
	if err := rvm.CreateLog(s.logPath, 1<<18); err != nil {
		t.Fatal(err)
	}
	if err := rvm.CreateSegment(s.segPath, 1, 4*int64(rvm.PageSize)); err != nil {
		t.Fatal(err)
	}
	opts.LogPath = s.logPath
	db, err := rvm.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.db = db
	t.Cleanup(func() {
		if s.db != nil {
			s.db.Close()
		}
	})
	return s
}

func TestPublicAPIRoundTrip(t *testing.T) {
	s := newStore(t, rvm.Options{})
	reg, err := s.db.Map(s.segPath, 0, int64(rvm.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	tx, err := s.db.Begin(rvm.Restore)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRange(reg, 0, 16); err != nil {
		t.Fatal(err)
	}
	copy(reg.Data(), "public api works")
	if err := tx.Commit(rvm.Flush); err != nil {
		t.Fatal(err)
	}
	if err := s.db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := rvm.Open(rvm.Options{LogPath: s.logPath})
	if err != nil {
		t.Fatal(err)
	}
	s.db = db2
	reg2, err := db2.Map(s.segPath, 0, int64(rvm.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	if got := reg2.Data()[:16]; !bytes.Equal(got, []byte("public api works")) {
		t.Fatalf("got %q", got)
	}
}

func TestPublicAPIWithMmapRegions(t *testing.T) {
	for name, backend := range map[string]rvm.Backend{"anonymous": rvm.Mmap, "demand-paged": rvm.DemandPaging} {
		t.Run(name, func(t *testing.T) {
			s := newStore(t, rvm.Options{Backend: backend})
			reg, err := s.db.Map(s.segPath, 0, int64(rvm.PageSize))
			if err != nil {
				t.Fatal(err)
			}
			tx, _ := s.db.Begin(rvm.Restore)
			if err := tx.Modify(reg, 8, []byte("mmap")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(rvm.Flush); err != nil {
				t.Fatal(err)
			}
			if err := s.db.Unmap(reg); err != nil {
				t.Fatal(err)
			}
			reg2, err := s.db.Map(s.segPath, 0, int64(rvm.PageSize))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(reg2.Data()[8:12], []byte("mmap")) {
				t.Fatal("mmap-backed region lost data across unmap")
			}
		})
	}
}

// TestSetOptionsZeroThresholdIsDefault: a zero threshold selects the
// documented 0.5 at SetOptions as it does at Open; it does not switch
// background truncation off.
func TestSetOptionsZeroThresholdIsDefault(t *testing.T) {
	s := newStore(t, rvm.Options{TruncateThreshold: -1})
	reg, err := s.db.Map(s.segPath, 0, 4*int64(rvm.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	s.db.SetOptions(0)
	// 160 KB into a 256 KiB log: past half, well short of full.
	payload := bytes.Repeat([]byte{7}, 4000)
	for i := 0; i < 40; i++ {
		tx, _ := s.db.Begin(rvm.NoRestore)
		if err := tx.Modify(reg, int64(i%4)*4000, payload); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(rvm.Flush); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if st := s.db.Stats(); st.EpochTruncs+st.IncrSteps > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no background truncation ran with the log past half: SetOptions(0) disabled it")
		}
	}
}

// TestDefaultBackgroundTruncationIsIncremental pins the default: with every
// option but LogPath at its zero value, the background truncation a full
// half of the log sets off writes pages out until the live log is down to
// half the threshold (paper §5.1.2), not until it is empty.  The commits
// stop at the one that crosses half: a committer that kept going until the
// first page was written could, on a single processor, run the log past a
// second cycle of the 256 pages before the truncation started, and then
// every page would hold the head back and the target could only be met by
// writing them all.
func TestDefaultBackgroundTruncationIsIncremental(t *testing.T) {
	const pages = 256
	dir := t.TempDir()
	logPath, segPath := filepath.Join(dir, "rvm.log"), filepath.Join(dir, "data.seg")
	if err := rvm.CreateLog(logPath, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := rvm.CreateSegment(segPath, 1, pages*int64(rvm.PageSize)); err != nil {
		t.Fatal(err)
	}
	db, err := rvm.Open(rvm.Options{LogPath: logPath})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	reg, err := db.Map(segPath, 0, pages*int64(rvm.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{5}, 1024)
	for i := 0; ; i++ {
		sn, err := db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if sn.LogUsed > sn.LogSize/2 || sn.Truncating || db.Stats().PagesWritten > 0 {
			break
		}
		if i == 4096 {
			t.Fatal("4096 commits into a 1 MiB log and it is not half full")
		}
		tx, _ := db.Begin(rvm.NoRestore)
		if err := tx.Modify(reg, int64(i%pages)*int64(rvm.PageSize), payload); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(rvm.Flush); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		sn, err := db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !sn.Truncating && db.Stats().PagesWritten > 0 {
			if sn.LogUsed <= 0 || sn.LogUsed > sn.LogSize/4 {
				st := db.Stats()
				t.Fatalf("background truncation left %d of %d log bytes, want some and at most a quarter (%d epoch(s), %d on a full log, %d page(s) written)",
					sn.LogUsed, sn.LogSize, st.EpochTruncs, st.EpochTruncsLogFull, st.PagesWritten)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no background truncation wrote a page and finished within 10 s")
		}
	}
}

func TestPublicErrors(t *testing.T) {
	s := newStore(t, rvm.Options{})
	if _, err := s.db.Map(s.segPath, 3, 100); !errors.Is(err, rvm.ErrBadAlignment) {
		t.Fatalf("got %v", err)
	}
	reg, _ := s.db.Map(s.segPath, 0, int64(rvm.PageSize))
	tx, _ := s.db.Begin(rvm.NoRestore)
	tx.SetRange(reg, 0, 1)
	if err := tx.Abort(); !errors.Is(err, rvm.ErrNoRestoreAbort) {
		t.Fatalf("got %v", err)
	}
	tx.Commit(rvm.NoFlush)
}

func TestConcurrentTransactionsDisjointRanges(t *testing.T) {
	// Many goroutines, each owning a disjoint slice of the region,
	// committing concurrently.  RVM must serialize its own internals even
	// though it does not serialize the application's data access.
	s := newStore(t, rvm.Options{})
	reg, err := s.db.Map(s.segPath, 0, 4*int64(rvm.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const txPerWorker = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w) * 512
			for i := 0; i < txPerWorker; i++ {
				tx, err := s.db.Begin(rvm.Restore)
				if err != nil {
					errs <- err
					return
				}
				if err := tx.SetRange(reg, base, 8); err != nil {
					errs <- err
					return
				}
				binary.BigEndian.PutUint64(reg.Data()[base:], uint64(i+1))
				mode := rvm.Flush
				if i%3 != 0 {
					mode = rvm.NoFlush
				}
				if err := tx.Commit(mode); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := rvm.Open(rvm.Options{LogPath: s.logPath})
	if err != nil {
		t.Fatal(err)
	}
	s.db = db2
	reg2, _ := db2.Map(s.segPath, 0, 4*int64(rvm.PageSize))
	for w := 0; w < workers; w++ {
		got := binary.BigEndian.Uint64(reg2.Data()[int64(w)*512:])
		if got != txPerWorker {
			t.Fatalf("worker %d final value %d, want %d", w, got, txPerWorker)
		}
	}
}

func TestStatsAndQueryExposed(t *testing.T) {
	s := newStore(t, rvm.Options{})
	reg, _ := s.db.Map(s.segPath, 0, int64(rvm.PageSize))
	tx, _ := s.db.Begin(rvm.Restore)
	tx.Modify(reg, 0, []byte("x"))
	tx.Commit(rvm.Flush)
	st := s.db.Stats()
	if st.FlushCommits != 1 || st.LogBytes == 0 {
		t.Fatalf("stats: %+v", st)
	}
	qi, err := s.db.Query(reg)
	if err != nil {
		t.Fatal(err)
	}
	if qi.LogSize == 0 {
		t.Fatalf("query: %+v", qi)
	}
	if err := s.db.Truncate(); err != nil {
		t.Fatal(err)
	}
	qi, _ = s.db.Query(nil)
	if qi.LogUsed != 0 {
		t.Fatalf("log not truncated: %+v", qi)
	}
}

func TestGroupCommitPublicAPI(t *testing.T) {
	// Through the facade, concurrent flush-mode committers share forces
	// (ForcesSaved > 0), and every acknowledged commit survives a
	// close/reopen.  The log's Sync sleeps 1 ms before it syncs the file,
	// so the committers behind a force append while it runs at any
	// GOMAXPROCS: a host fsync can return before one processor is handed
	// to them.
	s := newStore(t, rvm.Options{})
	if err := s.db.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(s.logPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	dev := iofault.NewInjector(f, 1)
	dev.SetHook(func(op iofault.Op, _ int64, _ int) {
		if op == iofault.OpSync {
			time.Sleep(time.Millisecond)
		}
	})
	if s.db, err = rvm.OpenOnLogDevice(rvm.Options{LogPath: s.logPath}, dev); err != nil {
		t.Fatal(err)
	}
	reg, err := s.db.Map(s.segPath, 0, 4*int64(rvm.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const txPerWorker = 5
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w) * 512
			for i := 0; i < txPerWorker; i++ {
				tx, err := s.db.Begin(rvm.NoRestore)
				if err != nil {
					errs <- err
					return
				}
				if err := tx.SetRange(reg, base, 8); err != nil {
					errs <- err
					return
				}
				binary.BigEndian.PutUint64(reg.Data()[base:], uint64(i+1))
				if err := tx.Commit(rvm.Flush); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.db.Stats()
	if st.FlushCommits != workers*txPerWorker {
		t.Fatalf("FlushCommits = %d, want %d", st.FlushCommits, workers*txPerWorker)
	}
	if st.ForcesSaved == 0 || st.GroupCommitSize < 2 {
		t.Fatalf("no force sharing: %+v", st)
	}
	if err := s.db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := rvm.Open(rvm.Options{LogPath: s.logPath})
	if err != nil {
		t.Fatal(err)
	}
	s.db = db2
	reg2, _ := db2.Map(s.segPath, 0, 4*int64(rvm.PageSize))
	for w := 0; w < workers; w++ {
		got := binary.BigEndian.Uint64(reg2.Data()[int64(w)*512:])
		if got != txPerWorker {
			t.Fatalf("worker %d final value %d, want %d", w, got, txPerWorker)
		}
	}
}
