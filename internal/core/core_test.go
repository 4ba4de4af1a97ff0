package core

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"github.com/rvm-go/rvm/internal/mapping"
)

// env is a reusable engine fixture: one log and one segment, with reopen.
type env struct {
	t       *testing.T
	dir     string
	logPath string
	segPath string
	eng     *Engine
}

func pageBytes(n int) int64 { return int64(n) * int64(mapping.PageSize) }

// setVar sets, for the rest of the test, a package variable Open reads.
func setVar[T any](tb testing.TB, v *T, x T) {
	old := *v
	*v = x
	tb.Cleanup(func() { *v = old })
}

func newEnv(t *testing.T, logSize, segSize int64, opts Options) *env {
	t.Helper()
	dir := t.TempDir()
	v := &env{
		t:       t,
		dir:     dir,
		logPath: filepath.Join(dir, "log.rvm"),
		segPath: filepath.Join(dir, "seg.rvm"),
	}
	if err := CreateLog(v.logPath, logSize); err != nil {
		t.Fatal(err)
	}
	if err := CreateSegment(v.segPath, 1, segSize); err != nil {
		t.Fatal(err)
	}
	opts.LogPath = v.logPath
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	v.eng = eng
	t.Cleanup(func() {
		if v.eng != nil {
			v.eng.Close()
		}
	})
	return v
}

// reopen simulates a crash + restart: the old engine is dropped without
// Close, and a fresh engine (running recovery) is opened on the same files.
func (v *env) reopen(opts Options) {
	v.t.Helper()
	if v.eng != nil {
		v.eng.closeFiles() // release fds only; no flush, no truncate
		v.eng = nil
	}
	opts.LogPath = v.logPath
	eng, err := Open(opts)
	if err != nil {
		v.t.Fatal(err)
	}
	v.eng = eng
}

func (v *env) mapWhole() *Region {
	v.t.Helper()
	r, err := v.eng.Map(v.segPath, 0, pageBytes(2))
	if err != nil {
		v.t.Fatal(err)
	}
	return r
}

// commit1 runs a single flush-mode transaction writing data at off.
func (v *env) commit1(r *Region, off int64, data []byte) {
	v.t.Helper()
	tx, err := v.eng.Begin(Restore)
	if err != nil {
		v.t.Fatal(err)
	}
	if err := tx.Modify(r, off, data); err != nil {
		v.t.Fatal(err)
	}
	if err := tx.Commit(Flush); err != nil {
		v.t.Fatal(err)
	}
}

func TestCommitSurvivesCrash(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{})
	r := v.mapWhole()
	v.commit1(r, 100, []byte("durable"))

	v.reopen(Options{})
	r2 := v.mapWhole()
	if got := r2.Data()[100:107]; !bytes.Equal(got, []byte("durable")) {
		t.Fatalf("recovered %q", got)
	}
}

func TestUncommittedChangesLostOnCrash(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{})
	r := v.mapWhole()
	v.commit1(r, 0, []byte("base"))

	tx, _ := v.eng.Begin(Restore)
	if err := tx.Modify(r, 0, []byte("zzzz")); err != nil {
		t.Fatal(err)
	}
	// No commit: crash.
	v.reopen(Options{})
	r2 := v.mapWhole()
	if got := r2.Data()[:4]; !bytes.Equal(got, []byte("base")) {
		t.Fatalf("uncommitted change leaked: %q", got)
	}
}

func TestAbortRestoresOldValues(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{})
	r := v.mapWhole()
	v.commit1(r, 0, []byte("original"))

	tx, _ := v.eng.Begin(Restore)
	if err := tx.Modify(r, 0, []byte("clobber!")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Data()[:8], []byte("clobber!")) {
		t.Fatal("modify not visible before abort")
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := r.Data()[:8]; !bytes.Equal(got, []byte("original")) {
		t.Fatalf("abort restored %q", got)
	}
}

func TestAbortRestoresOverlappingRangesToFirstCapture(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{})
	r := v.mapWhole()
	v.commit1(r, 0, []byte("0123456789"))

	tx, _ := v.eng.Begin(Restore)
	// First range covers [0,5); modify; second overlapping range covers
	// [3,10).  Abort must restore the PRE-TRANSACTION values, not the
	// values at the time of the second set-range.
	if err := tx.Modify(r, 0, []byte("AAAAA")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Modify(r, 3, []byte("BBBBBBB")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := r.Data()[:10]; !bytes.Equal(got, []byte("0123456789")) {
		t.Fatalf("abort restored %q", got)
	}
}

func TestNoRestoreCannotAbort(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{})
	r := v.mapWhole()
	tx, _ := v.eng.Begin(NoRestore)
	if err := tx.Modify(r, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrNoRestoreAbort) {
		t.Fatalf("got %v", err)
	}
	// The transaction is still usable and must commit.
	if err := tx.Commit(Flush); err != nil {
		t.Fatal(err)
	}
}

func TestTxDoneErrors(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{})
	r := v.mapWhole()
	tx, _ := v.eng.Begin(Restore)
	if err := tx.Commit(Flush); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(Flush); !errors.Is(err, ErrTxDone) {
		t.Fatalf("double commit: %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("abort after commit: %v", err)
	}
	if err := tx.SetRange(r, 0, 1); !errors.Is(err, ErrTxDone) {
		t.Fatalf("set-range after commit: %v", err)
	}
}

func TestSetRangeBounds(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{})
	r := v.mapWhole()
	tx, _ := v.eng.Begin(Restore)
	defer tx.Commit(NoFlush)
	if err := tx.SetRange(r, r.Length()-1, 2); !errors.Is(err, ErrBounds) {
		t.Fatalf("got %v", err)
	}
	if err := tx.SetRange(r, -1, 1); !errors.Is(err, ErrBounds) {
		t.Fatalf("got %v", err)
	}
	if err := tx.SetRange(r, 0, 0); err != nil {
		t.Fatalf("zero-length set-range: %v", err)
	}
}

// TestSetRangeOffsetOverflow: a range whose end lies past the largest
// int64 is out of bounds, though off+n wraps to a small number, and the
// transaction goes on to commit normally.
func TestSetRangeOffsetOverflow(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{})
	r := v.mapWhole()
	tx, _ := v.eng.Begin(Restore)
	if err := tx.SetRange(r, math.MaxInt64-5, 10); !errors.Is(err, ErrBounds) {
		t.Fatalf("SetRange(MaxInt64-5, 10) = %v, want ErrBounds", err)
	}
	if err := tx.Modify(r, math.MaxInt64-5, make([]byte, 10)); !errors.Is(err, ErrBounds) {
		t.Fatalf("Modify(MaxInt64-5, 10 bytes) = %v, want ErrBounds", err)
	}
	if err := tx.Modify(r, 8, []byte("in range")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(Flush); err != nil {
		t.Fatal(err)
	}
	v.reopen(Options{})
	if got := v.mapWhole().Data()[8:16]; !bytes.Equal(got, []byte("in range")) {
		t.Fatalf("recovered %q", got)
	}
}

// TestBeginRejectsUnknownMode: only Restore and NoRestore begin a
// transaction; any other mode is refused before the transaction counts as
// active, so Close still succeeds.
func TestBeginRejectsUnknownMode(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{})
	if tx, err := v.eng.Begin(TxMode(2)); err == nil || tx != nil {
		t.Fatalf("Begin(2) = (transaction %t, %v); want an unknown-mode error", tx != nil, err)
	}
	if qi, err := v.eng.Query(nil); err != nil || qi.ActiveTxs != 0 {
		t.Fatalf("after a refused Begin: %d active transactions (%v), want 0", qi.ActiveTxs, err)
	}
	eng := v.eng
	v.eng = nil
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestForeignRegionRefused: a region belongs to the engine that mapped it.
// Another engine's SetRange, Unmap and Query refuse it as unmapped and
// change nothing, so neither engine's log names the other's segment, and
// both stores still reopen.
func TestForeignRegionRefused(t *testing.T) {
	a := newEnv(t, 1<<16, pageBytes(2), Options{})
	ra := a.mapWhole()
	b := newEnv(t, 1<<16, pageBytes(2), Options{})
	seg9 := filepath.Join(b.dir, "seg9.rvm")
	if err := CreateSegment(seg9, 9, pageBytes(1)); err != nil {
		t.Fatal(err)
	}
	rb, err := b.eng.Map(seg9, 0, pageBytes(1))
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := a.eng.Begin(Restore)
	if err := tx.Modify(rb, 0, []byte("foreign")); !errors.Is(err, ErrRegionUnmapped) {
		t.Fatalf("A's SetRange on B's region = %v, want ErrRegionUnmapped", err)
	}
	if _, err := a.eng.Query(rb); !errors.Is(err, ErrRegionUnmapped) {
		t.Fatalf("A's Query of B's region = %v, want ErrRegionUnmapped", err)
	}
	if err := a.eng.Unmap(rb); !errors.Is(err, ErrRegionUnmapped) {
		t.Fatalf("A's Unmap of B's region = %v, want ErrRegionUnmapped", err)
	}
	if err := tx.Modify(ra, 0, []byte("own")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(Flush); err != nil {
		t.Fatal(err)
	}
	b.commit1(rb, 0, []byte("b's"))
	a.reopen(Options{})
	if got := a.mapWhole().Data()[:3]; !bytes.Equal(got, []byte("own")) {
		t.Fatalf("A recovered %q", got)
	}
	b.reopen(Options{})
	rb, err = b.eng.Map(seg9, 0, pageBytes(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := rb.Data()[:3]; !bytes.Equal(got, []byte("b's")) {
		t.Fatalf("B recovered %q", got)
	}
}

func TestNoFlushLostWithoutFlush(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{})
	r := v.mapWhole()
	v.commit1(r, 0, []byte("base"))
	tx, _ := v.eng.Begin(Restore)
	tx.Modify(r, 0, []byte("lazy"))
	if err := tx.Commit(NoFlush); err != nil {
		t.Fatal(err)
	}
	v.reopen(Options{})
	r2 := v.mapWhole()
	if got := r2.Data()[:4]; !bytes.Equal(got, []byte("base")) {
		t.Fatalf("unflushed no-flush tx survived crash: %q", got)
	}
}

func TestNoFlushDurableAfterFlush(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{})
	r := v.mapWhole()
	tx, _ := v.eng.Begin(Restore)
	tx.Modify(r, 0, []byte("lazy"))
	if err := tx.Commit(NoFlush); err != nil {
		t.Fatal(err)
	}
	if err := v.eng.Flush(); err != nil {
		t.Fatal(err)
	}
	v.reopen(Options{})
	r2 := v.mapWhole()
	if got := r2.Data()[:4]; !bytes.Equal(got, []byte("lazy")) {
		t.Fatalf("flushed no-flush tx lost: %q", got)
	}
}

func TestFlushCommitDrainsEarlierNoFlush(t *testing.T) {
	// A flush-mode commit must make earlier no-flush commits durable too
	// (log order is commit order).
	v := newEnv(t, 1<<16, pageBytes(2), Options{})
	r := v.mapWhole()
	tx1, _ := v.eng.Begin(Restore)
	tx1.Modify(r, 0, []byte("first"))
	tx1.Commit(NoFlush)
	tx2, _ := v.eng.Begin(Restore)
	tx2.Modify(r, 100, []byte("second"))
	if err := tx2.Commit(Flush); err != nil {
		t.Fatal(err)
	}
	v.reopen(Options{})
	r2 := v.mapWhole()
	if !bytes.Equal(r2.Data()[:5], []byte("first")) || !bytes.Equal(r2.Data()[100:106], []byte("second")) {
		t.Fatal("commit order broken across spool drain")
	}
}

func TestUnmapRemapSeesCommittedImage(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{})
	r := v.mapWhole()
	v.commit1(r, 50, []byte("kept"))
	tx, _ := v.eng.Begin(Restore)
	tx.Modify(r, 60, []byte("lazy"))
	tx.Commit(NoFlush)
	if err := v.eng.Unmap(r); err != nil {
		t.Fatal(err)
	}
	r2 := v.mapWhole()
	if !bytes.Equal(r2.Data()[50:54], []byte("kept")) {
		t.Fatal("flush-committed data lost across unmap")
	}
	if !bytes.Equal(r2.Data()[60:64], []byte("lazy")) {
		t.Fatal("no-flush-committed data lost across unmap")
	}
}

func TestUnmapRequiresQuiescence(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{})
	r := v.mapWhole()
	tx, _ := v.eng.Begin(Restore)
	if err := tx.SetRange(r, 0, 8); err != nil {
		t.Fatal(err)
	}
	if err := v.eng.Unmap(r); !errors.Is(err, ErrUncommitted) {
		t.Fatalf("unmap with active tx: %v", err)
	}
	tx.Commit(Flush)
	if err := v.eng.Unmap(r); err != nil {
		t.Fatal(err)
	}
	if err := v.eng.Unmap(r); !errors.Is(err, ErrRegionUnmapped) {
		t.Fatalf("double unmap: %v", err)
	}
}

func TestMapRestrictions(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(4), Options{})
	if _, err := v.eng.Map(v.segPath, 1, pageBytes(1)); !errors.Is(err, ErrBadAlignment) {
		t.Fatalf("unaligned offset: %v", err)
	}
	if _, err := v.eng.Map(v.segPath, 0, pageBytes(1)-5); !errors.Is(err, ErrBadAlignment) {
		t.Fatalf("unaligned length: %v", err)
	}
	if _, err := v.eng.Map(v.segPath, 0, pageBytes(8)); !errors.Is(err, ErrBounds) {
		t.Fatalf("oversized map: %v", err)
	}
	r, err := v.eng.Map(v.segPath, 0, pageBytes(2))
	if err != nil {
		t.Fatal(err)
	}
	// No region of a segment may be mapped twice; overlap is rejected.
	if _, err := v.eng.Map(v.segPath, pageBytes(1), pageBytes(2)); !errors.Is(err, ErrOverlap) {
		t.Fatalf("overlapping map: %v", err)
	}
	// A disjoint region of the same segment is fine.
	if _, err := v.eng.Map(v.segPath, pageBytes(2), pageBytes(2)); err != nil {
		t.Fatal(err)
	}
	// After unmap, remap of the same range is allowed.
	if err := v.eng.Unmap(r); err != nil {
		t.Fatal(err)
	}
	if _, err := v.eng.Map(v.segPath, 0, pageBytes(1)); err != nil {
		t.Fatal(err)
	}
}

func TestTransactionSpanningRegionsIsAtomic(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(4), Options{})
	r1, err := v.eng.Map(v.segPath, 0, pageBytes(2))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := v.eng.Map(v.segPath, pageBytes(2), pageBytes(2))
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := v.eng.Begin(Restore)
	tx.Modify(r1, 0, []byte("one"))
	tx.Modify(r2, 0, []byte("two"))
	if err := tx.Commit(Flush); err != nil {
		t.Fatal(err)
	}
	v.reopen(Options{})
	ra, _ := v.eng.Map(v.segPath, 0, pageBytes(2))
	rb, _ := v.eng.Map(v.segPath, pageBytes(2), pageBytes(2))
	if !bytes.Equal(ra.Data()[:3], []byte("one")) || !bytes.Equal(rb.Data()[:3], []byte("two")) {
		t.Fatal("multi-region transaction not atomic across crash")
	}
}

func TestMultipleSegments(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{})
	seg2 := filepath.Join(v.dir, "seg2.rvm")
	if err := CreateSegment(seg2, 2, pageBytes(2)); err != nil {
		t.Fatal(err)
	}
	r1 := v.mapWhole()
	r2, err := v.eng.Map(seg2, 0, pageBytes(2))
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := v.eng.Begin(Restore)
	tx.Modify(r1, 0, []byte("alpha"))
	tx.Modify(r2, 0, []byte("beta"))
	if err := tx.Commit(Flush); err != nil {
		t.Fatal(err)
	}
	v.reopen(Options{})
	ra := v.mapWhole()
	rb, err := v.eng.Map(seg2, 0, pageBytes(2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ra.Data()[:5], []byte("alpha")) || !bytes.Equal(rb.Data()[:4], []byte("beta")) {
		t.Fatal("cross-segment recovery failed")
	}
}

func TestEmptyCommit(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{})
	tx, _ := v.eng.Begin(Restore)
	if err := tx.Commit(Flush); err != nil {
		t.Fatal(err)
	}
	st := v.eng.Stats()
	if st.EmptyCommits != 1 || st.LogBytes != 0 {
		t.Fatalf("empty commit logged: %+v", st)
	}
}

func TestCloseSemantics(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{})
	r := v.mapWhole()
	tx, _ := v.eng.Begin(Restore)
	tx.SetRange(r, 0, 4)
	if err := v.eng.Close(); !errors.Is(err, ErrActiveTx) {
		t.Fatalf("close with active tx: %v", err)
	}
	tx.Commit(Flush)
	if err := v.eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v.eng.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := v.eng.Begin(Restore); !errors.Is(err, ErrClosed) {
		t.Fatalf("begin after close: %v", err)
	}
	if _, err := v.eng.Map(v.segPath, 0, pageBytes(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("map after close: %v", err)
	}
	v.eng = nil
}

// TestCloseCompletesWhenAFreeFails: a region whose memory cannot be released
// fails Close, but the close still completes — the other resources are let
// go and the truncation slot is released — so a second Close returns.  The
// test unmaps the region's memory behind the engine's back, which makes the
// engine's own Munmap fail with EINVAL.
func TestCloseCompletesWhenAFreeFails(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(4), Options{Backend: mapping.Mmap})
	r, err := v.eng.Map(v.segPath, 0, pageBytes(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.eng.Map(v.segPath, pageBytes(2), pageBytes(2)); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Munmap(r.Data()); err != nil {
		t.Fatal(err)
	}
	eng := v.eng
	v.eng = nil
	if err := eng.Close(); !errors.Is(err, syscall.EINVAL) {
		t.Fatalf("Close over a region that cannot be freed: %v, want EINVAL", err)
	}
	done := make(chan error, 1)
	go func() { done <- eng.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("second Close: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("a second Close still blocks after 1s")
	}
}

func TestCloseTruncatesForFastReopen(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{})
	r := v.mapWhole()
	v.commit1(r, 0, []byte("clean"))
	if err := v.eng.Close(); err != nil {
		t.Fatal(err)
	}
	v.eng = nil
	opts := Options{LogPath: v.logPath}
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	st := eng.Stats()
	if st.Recoveries != 0 {
		t.Fatal("clean shutdown still required recovery")
	}
	r2, err := eng.Map(v.segPath, 0, pageBytes(2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r2.Data()[:5], []byte("clean")) {
		t.Fatal("data lost across clean shutdown")
	}
	v.eng = eng
}

func TestQuery(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{})
	r := v.mapWhole()
	tx, _ := v.eng.Begin(Restore)
	tx.SetRange(r, 0, 10)
	qi, err := v.eng.Query(r)
	if err != nil {
		t.Fatal(err)
	}
	if qi.UncommittedTxs != 1 || qi.ActiveTxs != 1 {
		t.Fatalf("query during tx: %+v", qi)
	}
	tx.Commit(Flush)
	qi, _ = v.eng.Query(r)
	if qi.UncommittedTxs != 0 || qi.DirtyPages != 1 || qi.QueuedPages != 1 {
		t.Fatalf("query after commit: %+v", qi)
	}
	if qi.LogUsed <= 0 || qi.LogSize <= 0 {
		t.Fatalf("log fields: %+v", qi)
	}
}

func TestStatisticsCounters(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{})
	r := v.mapWhole()
	v.commit1(r, 0, []byte("abc"))
	tx, _ := v.eng.Begin(Restore)
	tx.Modify(r, 10, []byte("d"))
	tx.Commit(NoFlush)
	tx2, _ := v.eng.Begin(Restore)
	tx2.Modify(r, 20, []byte("e"))
	tx2.Abort()
	st := v.eng.Stats()
	if st.Begins != 3 || st.FlushCommits != 1 || st.NoFlushCommits != 1 || st.Aborts != 1 {
		t.Fatalf("counters: %+v", st)
	}
	if st.SetRanges != 3 || st.LogBytes == 0 {
		t.Fatalf("counters: %+v", st)
	}
}

func TestModifyConvenience(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{})
	r := v.mapWhole()
	tx, _ := v.eng.Begin(Restore)
	if err := tx.Modify(r, 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Data()[:5], []byte("hello")) {
		t.Fatal("modify did not write memory")
	}
	if err := tx.Commit(Flush); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentDictionaryPersists(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{})
	r := v.mapWhole()
	v.commit1(r, 0, []byte("dict"))
	// Crash; recovery must find the segment via the dictionary alone.
	v.reopen(Options{})
	st := v.eng.Stats()
	if st.Recoveries != 1 || st.RecoveredBytes == 0 {
		t.Fatalf("recovery did not run: %+v", st)
	}
}
