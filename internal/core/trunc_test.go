package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rvm-go/rvm/internal/iofault"
	"github.com/rvm-go/rvm/internal/obs"
	"github.com/rvm-go/rvm/internal/segment"
)

// TestEpochTruncateReflectsAndEmptiesLog: a page pinned by an open
// transaction blocks the cleaner, so Truncate reverts to an epoch, which
// replays the log into the segment and empties it.
func TestEpochTruncateReflectsAndEmptiesLog(t *testing.T) {
	v := newEnv(t, 1<<18, pageBytes(2), Options{})
	r := v.mapWhole()
	for i := 0; i < 20; i++ {
		v.commit1(r, int64(i*16), bytes.Repeat([]byte{byte(i + 1)}, 16))
	}
	qi, _ := v.eng.Query(nil)
	if qi.LogUsed == 0 {
		t.Fatal("log empty before truncation")
	}
	pin, _ := v.eng.Begin(Restore)
	if err := pin.SetRange(r, 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := v.eng.Truncate(); err != nil {
		t.Fatal(err)
	}
	if err := pin.Abort(); err != nil {
		t.Fatal(err)
	}
	qi, _ = v.eng.Query(r)
	if qi.LogUsed != 0 {
		t.Fatalf("log not empty after truncate: %d", qi.LogUsed)
	}
	if qi.DirtyPages != 0 || qi.QueuedPages != 0 {
		t.Fatalf("pages not cleaned: %+v", qi)
	}
	if st := v.eng.Stats(); st.EpochTruncs != 1 || st.EpochTruncsLogFull != 0 || st.IncrSteps != 0 {
		t.Fatalf("%d epoch(s), %d of them for a full log, and %d cleaned page(s); want the pinned page to leave one epoch of the blocked cleaner and no page",
			st.EpochTruncs, st.EpochTruncsLogFull, st.IncrSteps)
	}
	// Data survives a crash with an empty log: it is in the segment now.
	v.reopen(Options{})
	r2 := v.mapWhole()
	for i := 0; i < 20; i++ {
		if r2.Data()[i*16] != byte(i+1) {
			t.Fatalf("byte %d lost after truncation+crash", i*16)
		}
	}
}

// TestTruncateAndCloseReadNoLog: with no transaction open nothing pins a
// page, so Truncate and Close write the queued pages from memory and never
// read the log back; and a Close with an empty log and nothing queued
// writes and syncs nothing.
func TestTruncateAndCloseReadNoLog(t *testing.T) {
	dir := t.TempDir()
	logPath, segPath := filepath.Join(dir, "log.rvm"), filepath.Join(dir, "seg.rvm")
	if err := CreateLog(logPath, 1<<18); err != nil {
		t.Fatal(err)
	}
	if err := CreateSegment(segPath, 1, pageBytes(2)); err != nil {
		t.Fatal(err)
	}
	open := func() (*Engine, *Region, *counts, *counts) {
		t.Helper()
		f, err := os.OpenFile(logPath, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		lg, sc := &counts{}, segCounts()
		eng, err := Open(Options{LogPath: logPath, LogDevice: lg.wrap(f), TruncateThreshold: -1,
			SegmentDevice: func(_ string, sf *os.File) segment.Device { return sc.wrap(sf) }})
		if err != nil {
			t.Fatal(err)
		}
		r, err := eng.Map(segPath, 0, pageBytes(2))
		if err != nil {
			t.Fatal(err)
		}
		return eng, r, lg, sc
	}
	eng, r, lg, _ := open()
	commit := func(off int64, mode CommitMode) {
		t.Helper()
		tx, _ := eng.Begin(Restore)
		if err := tx.Modify(r, off, []byte{byte(off)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(mode); err != nil {
			t.Fatal(err)
		}
	}
	opened := lg.read.Load()
	for i := int64(0); i < 8; i++ {
		commit(i*600, Flush)
	}
	if err := eng.Truncate(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 8; i++ {
		commit(i*600+1, NoFlush)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if st, read := eng.Stats(), lg.read.Load()-opened; read != 0 || st.EpochTruncs != 0 || st.IncrSteps == 0 {
		t.Fatalf("Truncate and Close read %d log bytes, ran %d epoch(s) and cleaned %d page(s); want no byte, no epoch, the pages",
			read, st.EpochTruncs, st.IncrSteps)
	}

	eng, r, lg, sc := open()
	const last = 7*600 + 1
	if qi, _ := eng.Query(r); qi.LogUsed != 0 || r.Data()[last] != byte(last%256) {
		t.Fatalf("after Close: %d live log bytes, byte %d", qi.LogUsed, r.Data()[last])
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if lw, ls, sw, ss := lg.writes.Load(), lg.syncs.Load(), sc.written.Load(), sc.syncs.Load(); lw+ls+sw+ss != 0 {
		t.Fatalf("a Close with nothing to truncate wrote the log %d time(s), synced it %d time(s), wrote %d segment bytes and synced %d time(s); want nothing",
			lw, ls, sw, ss)
	}
}

func TestIncrementalTruncation(t *testing.T) {
	v := newEnv(t, 1<<18, pageBytes(2), Options{Incremental: true})
	r := v.mapWhole()
	for i := 0; i < 10; i++ {
		v.commit1(r, int64(i*8), []byte{byte(i + 1)})
	}
	if err := v.eng.TruncateIncremental(0); err != nil {
		t.Fatal(err)
	}
	st := v.eng.Stats()
	if st.IncrSteps == 0 {
		t.Fatal("no incremental steps taken")
	}
	if st.EpochTruncs != 0 {
		t.Fatal("incremental truncation fell back to epoch unnecessarily")
	}
	qi, _ := v.eng.Query(r)
	if qi.LogUsed != 0 || qi.QueuedPages != 0 || qi.DirtyPages != 0 {
		t.Fatalf("state after incremental truncation: %+v", qi)
	}
	v.reopen(Options{})
	r2 := v.mapWhole()
	for i := 0; i < 10; i++ {
		if r2.Data()[i*8] != byte(i+1) {
			t.Fatalf("data lost at %d", i*8)
		}
	}
}

func TestIncrementalBlockedByUncommittedRefFallsBackToEpoch(t *testing.T) {
	// An uncommitted set-range pins its page: the queue head cannot be
	// written out (no-undo/redo), so the cleaner blocks and the engine
	// reverts to epoch truncation (paper §5.1.2), whichever entry point
	// asked for the truncation.
	for _, c := range []struct {
		name     string
		truncate func(*Engine) error
	}{
		{"TruncateIncremental(0)", func(e *Engine) error { return e.TruncateIncremental(0) }},
		{"Truncate", (*Engine).Truncate},
	} {
		t.Run(c.name, func(t *testing.T) {
			v := newEnv(t, 1<<18, pageBytes(2), Options{Incremental: true})
			r := v.mapWhole()
			v.commit1(r, 0, []byte("committed")) // dirties page 0, queues it

			hold, _ := v.eng.Begin(Restore)
			if err := hold.SetRange(r, 4, 4); err != nil { // pins page 0
				t.Fatal(err)
			}
			if err := c.truncate(v.eng); err != nil {
				t.Fatal(err)
			}
			if n := v.eng.Stats().EpochTruncs; n != 1 {
				t.Fatalf("blocked truncation ran %d epoch(s), want 1", n)
			}
			qi, _ := v.eng.Query(nil)
			if qi.LogUsed != 0 {
				t.Fatalf("log not truncated: %d", qi.LogUsed)
			}
			if err := hold.Commit(Flush); err != nil {
				t.Fatal(err)
			}
			v.reopen(Options{})
			r2 := v.mapWhole()
			if !bytes.Equal(r2.Data()[:9], []byte("committed")) {
				t.Fatal("data lost through blocked truncation")
			}
		})
	}
}

// TestRespooledPageDoesNotBlockTruncation: only an uncommitted reference
// blocks incremental truncation (paper §5.1.2).  A committer that re-spools
// the queue's first page without pause, and never flushes, leaves the page
// unpinned between its commits: the cleaner drains the spool under the
// page's lock and writes the page in that visit, so no truncation reverts to
// an epoch and each writes a page.
func TestRespooledPageDoesNotBlockTruncation(t *testing.T) {
	eng, r, _ := newSleepEngine(t, false)
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			tx, err := eng.Begin(NoRestore)
			if err == nil {
				err = tx.Modify(r, 0, []byte{byte(i)})
			}
			if err == nil {
				err = tx.Commit(NoFlush)
			}
			if err != nil {
				done <- err
				return
			}
		}
	}()
	for call := 1; call <= 10 && !t.Failed(); call++ {
		// Each truncation gets a page of its own to write: a commit that
		// the last one left in the spool.
		for spooled := false; !spooled; {
			select {
			case err := <-done:
				t.Fatal(err)
			default:
			}
			qi, _ := eng.Query(nil)
			spooled = qi.SpoolBytes > 0
		}
		before := eng.Stats().PagesWritten
		if err := eng.TruncateIncremental(0); err != nil {
			t.Error(err)
		}
		if st := eng.Stats(); st.EpochTruncs != 0 || st.PagesWritten == before {
			t.Errorf("call %d: %d epoch truncation(s) so far, %d page(s) written; want none and at least one",
				call, st.EpochTruncs, st.PagesWritten-before)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalPartialLeavesSuffixLive(t *testing.T) {
	// Truncating to a byte target reclaims only the head of the log; the
	// remaining records must still recover correctly.
	v := newEnv(t, 1<<18, pageBytes(2), Options{Incremental: true})
	r := v.mapWhole()
	// Ten commits to ten different pages... region has 2 pages, so spread
	// across the two pages alternately to create multiple queue entries.
	for i := 0; i < 10; i++ {
		off := int64(i%2)*pageBytes(1) + int64(i*32)
		v.commit1(r, off, bytes.Repeat([]byte{byte(i + 1)}, 8))
	}
	used, _ := v.eng.Query(nil)
	if err := v.eng.TruncateIncremental(float64(used.LogUsed/2) / float64(used.LogSize)); err != nil {
		t.Fatal(err)
	}
	after, _ := v.eng.Query(nil)
	if after.LogUsed >= used.LogUsed {
		t.Fatal("nothing reclaimed")
	}
	v.reopen(Options{})
	r2 := v.mapWhole()
	for i := 0; i < 10; i++ {
		off := int64(i%2)*pageBytes(1) + int64(i*32)
		if got := r2.Data()[off : off+8]; !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, 8)) {
			t.Fatalf("commit %d lost after partial truncation: %v", i, got)
		}
	}
}

func TestLogFullTriggersInlineTruncation(t *testing.T) {
	// A log far smaller than the workload: commits must keep succeeding
	// via inline epoch truncations.
	v := newEnv(t, pageBytes(1), pageBytes(2), Options{})
	r := v.mapWhole()
	for i := 0; i < 30; i++ {
		tx, _ := v.eng.Begin(Restore)
		payload := bytes.Repeat([]byte{byte(i + 1)}, 700) // every word changes
		if err := tx.Modify(r, 0, payload); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(Flush); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if v.eng.Stats().EpochTruncs == 0 {
		t.Fatal("no inline truncation happened")
	}
	v.reopen(Options{})
	r2 := v.mapWhole()
	if r2.Data()[0] != 30 {
		t.Fatalf("final committed value lost: %d", r2.Data()[0])
	}
}

func TestAutoTruncation(t *testing.T) {
	v := newEnv(t, pageBytes(2), pageBytes(2), Options{TruncateThreshold: 0.3})
	r := v.mapWhole()
	for i := 0; i < 10; i++ {
		tx, _ := v.eng.Begin(Restore)
		tx.Modify(r, int64(i%4)*500, bytes.Repeat([]byte{byte(i + 1)}, 400)) // every word changes
		if err := tx.Commit(Flush); err != nil {
			t.Fatal(err)
		}
	}
	// Background truncation should bring usage down eventually.
	deadline := time.Now().Add(5 * time.Second)
	for {
		qi, _ := v.eng.Query(nil)
		if float64(qi.LogUsed) <= 0.3*float64(qi.LogSize) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto truncation never caught up: used=%d", qi.LogUsed)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v.eng.Stats().IncrSteps == 0 {
		t.Fatal("the cleaner wrote no page")
	}
}

func TestAutoTruncationIncremental(t *testing.T) {
	v := newEnv(t, pageBytes(2), pageBytes(2), Options{TruncateThreshold: 0.3, Incremental: true})
	r := v.mapWhole()
	for i := 0; i < 10; i++ {
		tx, _ := v.eng.Begin(Restore)
		tx.Modify(r, int64(i%4)*500, bytes.Repeat([]byte{byte(i + 1)}, 400)) // every word changes
		if err := tx.Commit(Flush); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := v.eng.Stats()
		if st.IncrSteps > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no incremental steps ran in background")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTruncateWithSpooledTransactions(t *testing.T) {
	// Truncation must first flush the spool so committed no-flush changes
	// are not silently reflected-without-logging (or lost).
	v := newEnv(t, 1<<18, pageBytes(2), Options{})
	r := v.mapWhole()
	tx, _ := v.eng.Begin(Restore)
	tx.Modify(r, 0, []byte("spooled"))
	tx.Commit(NoFlush)
	if err := v.eng.Truncate(); err != nil {
		t.Fatal(err)
	}
	qi, _ := v.eng.Query(nil)
	if qi.SpoolBytes != 0 {
		t.Fatal("spool survived truncation")
	}
	v.reopen(Options{})
	r2 := v.mapWhole()
	if !bytes.Equal(r2.Data()[:7], []byte("spooled")) {
		t.Fatal("spooled tx lost through truncation")
	}
}

func TestConcurrentCommitsDuringEpochApply(t *testing.T) {
	// Commits racing a truncation: everything must survive a crash.
	v := newEnv(t, 1<<18, pageBytes(2), Options{})
	r := v.mapWhole()
	for i := 0; i < 30; i++ {
		v.commit1(r, int64(i*8), []byte{byte(i + 1)})
	}
	done := make(chan error, 1)
	go func() { done <- v.eng.Truncate() }()
	for i := 30; i < 60; i++ {
		v.commit1(r, int64(i*8), []byte{byte(i + 1)})
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	v.reopen(Options{})
	r2 := v.mapWhole()
	for i := 0; i < 60; i++ {
		if r2.Data()[i*8] != byte(i+1) {
			t.Fatalf("commit %d lost around concurrent truncation", i)
		}
	}
}

// TestEpochPromotesRewrittenPage: a flush commit that rewrites a page queued
// at a record inside the epoch being applied re-queues the page at its own
// record, the page's first reference the epoch leaves live.  The queue is
// the only record that the page is dirty: without the promotion the epoch's
// completion drops the page from it, and the next truncation moves the head
// past the rewrite without writing the page.
func TestEpochPromotesRewrittenPage(t *testing.T) {
	v := newEnv(t, 1<<18, pageBytes(2), Options{})
	r := v.mapWhole()
	v.commit1(r, 0, []byte("before"))
	if err := v.eng.claimTruncation(); err != nil {
		t.Fatal(err)
	}
	ep, err := v.eng.collectEpochPipe()
	if err != nil {
		v.eng.releaseTruncation()
		t.Fatal(err)
	}
	v.commit1(r, 0, []byte("after!"))
	_, err = ep.Apply(v.eng.lookupSegment, v.eng.retryIO)
	if err == nil {
		v.eng.completeEpochPipe(ep.EndSeq())
	}
	v.eng.releaseTruncation()
	if err != nil {
		t.Fatal(err)
	}
	if qi, _ := v.eng.Query(r); qi.QueuedPages != 1 || qi.DirtyPages != 1 {
		t.Fatalf("after the epoch: %+v; want page 0 queued and dirty", qi)
	}
	if err := v.eng.Truncate(); err != nil {
		t.Fatal(err)
	}
	v.reopen(Options{})
	if got := string(v.mapWhole().Data()[:6]); got != "after!" {
		t.Fatalf("recovered %q, want the rewrite", got)
	}
}

// TestSetOptionsGovernsBackgroundTruncation: the threshold SetOptions
// stores is the one a commit starts background truncation by.  A log past
// the threshold given at Open but short of the new one is left alone, and
// one past the new threshold but short of the old is truncated.
func TestSetOptionsGovernsBackgroundTruncation(t *testing.T) {
	truncations := func(v *env) uint64 {
		st := v.eng.Stats()
		return st.EpochTruncs + st.IncrSteps
	}
	// fill commits until the log is over half full or a background
	// truncation has run.
	fill := func(v *env) {
		r := v.mapWhole()
		for i := 0; v.eng.log.Used() <= v.eng.log.AreaSize()/2 && truncations(v) == 0; i++ {
			v.commit1(r, int64(i%2)*4000, bytes.Repeat([]byte{byte(i + 1)}, 4000))
		}
	}

	v := newEnv(t, 1<<18, pageBytes(2), Options{TruncateThreshold: 0.3})
	v.eng.SetOptions(0.9)
	fill(v)
	time.Sleep(50 * time.Millisecond) // a truncation the commits started would be under way
	if n := truncations(v); n != 0 {
		t.Fatalf("a log past the threshold given at Open (0.3) but short of SetOptions' (0.9) was truncated in the background: %d epoch(s) and page(s)", n)
	}

	v = newEnv(t, 1<<18, pageBytes(2), Options{TruncateThreshold: 0.9})
	v.eng.SetOptions(0.3)
	fill(v)
	for deadline := time.Now().Add(5 * time.Second); truncations(v) == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a log past SetOptions' threshold (0.3) but short of the one given at Open (0.9) was not truncated in the background")
		}
	}
}

// TestCommitInCleanWindowStaysLive is ROADMAP hazard 4 made deterministic:
// a flush commit lands right after the cleaner has seen the queue empty and
// read the tail, before the head moves there.  The tail read under the
// pipeline lock is what keeps that commit's record live; read any later, the
// head would pass a queued page's first reference and a crash would lose an
// acknowledged commit.  Both head movers meet it: a checkpoint, and the
// incremental truncation after it.
func TestCommitInCleanWindowStaysLive(t *testing.T) {
	v := newEnv(t, 1<<18, pageBytes(2), Options{Incremental: true, TruncateThreshold: -1})
	r := v.mapWhole()
	e := v.eng
	var committed []string
	armed := false
	cleanPeeked = func() {
		e.pipe.mu.Lock()
		_, queued := e.pipe.queue.First()
		e.pipe.mu.Unlock()
		if armed && !queued {
			armed = false
			val := fmt.Sprintf("in the window %d", len(committed))
			v.commit1(r, pageBytes(1), []byte(val))
			committed = append(committed, val)
		}
	}
	defer func() { cleanPeeked = nil }()
	headBehindQueue := func(after string) {
		t.Helper()
		e.pipe.mu.Lock()
		d, queued := e.pipe.queue.First()
		_, headSeq := e.log.Head()
		e.pipe.mu.Unlock()
		if queued && d.Seq < headSeq {
			t.Fatalf("after %s: page %v is queued at seq %d, behind the head at seq %d", after, d.ID, d.Seq, headSeq)
		}
	}
	v.commit1(r, 0, []byte("before the checkpoint"))
	armed = true
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	headBehindQueue("the checkpoint")
	armed = true
	if err := e.TruncateIncremental(0); err != nil {
		t.Fatal(err)
	}
	if len(committed) != 2 {
		t.Fatalf("%d commits landed in the window, want 2", len(committed))
	}
	// The commit keeps the log above the target with nothing blocked, so
	// the truncation ends there, the commit's page queued; a head moved
	// past the commit would have left that page queued behind it.
	headBehindQueue("the incremental truncation")
	v.reopen(Options{})
	r2 := v.mapWhole()
	want := committed[len(committed)-1]
	if got := string(r2.Data()[pageBytes(1) : pageBytes(1)+int64(len(want))]); got != want {
		t.Fatalf("recovered %q, want the last commit of the window, %q", got, want)
	}
	if got := string(r2.Data()[:21]); got != "before the checkpoint" {
		t.Fatalf("recovered %q before the checkpoint", got)
	}
}

// TestHeadNeverPassesQueuedPage: a queued page's first log reference is a
// live record, whatever interleaving of commits, checkpoints (which drain
// the queue) and incremental truncations produced the state; both move the
// head to where the queue starts.  A head beyond a queued reference is an
// acknowledged commit a crash would lose.
func TestHeadNeverPassesQueuedPage(t *testing.T) {
	const workers = 3
	v := newEnv(t, 1<<19, pageBytes(workers), Options{Incremental: true, TruncateThreshold: -1})
	r, err := v.eng.Map(v.segPath, 0, pageBytes(workers))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	last := make([]byte, workers) // each worker's last acknowledged value
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := v.eng.Begin(NoRestore)
				if err != nil {
					t.Error(err)
					return
				}
				mode := Flush
				if w == 0 && i%2 == 0 {
					mode = NoFlush
				}
				if err := tx.Modify(r, pageBytes(w), []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				if err := tx.Commit(mode); err != nil {
					t.Error(err)
					return
				}
				last[w] = byte(i)
				// A pause now and then, so the cleaner gets to see the queue
				// empty with the next commit close behind.
				time.Sleep(time.Duration(i%4) * 100 * time.Microsecond)
			}
		}(w)
	}
	e := v.eng
	// A truncation that meets a page pinned by a commit in flight waits for
	// it, up to its grace period (a spooled page it drains and writes in
	// the same visit), so the rounds are bounded by time as well as by
	// count.
	deadline := time.Now().Add(time.Second)
	for i := 0; i < 200 && time.Now().Before(deadline) && !t.Failed(); i++ {
		// The checkpoint first: it drains the queue, so both it and the
		// truncation find the queue empty while commits keep appending.
		if err := v.eng.Checkpoint(); err != nil {
			t.Error(err)
			break
		}
		if err := v.eng.TruncateIncremental(0); err != nil {
			t.Error(err)
			break
		}
		e.pipe.mu.Lock()
		d, queued := e.pipe.queue.First()
		_, headSeq := e.log.Head()
		e.pipe.mu.Unlock()
		if queued && d.Seq < headSeq {
			t.Errorf("round %d: page %v is queued at seq %d, behind the head at seq %d", i, d.ID, d.Seq, headSeq)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := v.eng.Flush(); err != nil {
		t.Fatal(err)
	}
	v.reopen(Options{})
	r2, err := v.eng.Map(v.segPath, 0, pageBytes(workers))
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		if got := r2.Data()[pageBytes(w)]; got != last[w] {
			t.Errorf("worker %d: recovered %d, last acknowledged %d", w, got, last[w])
		}
	}
}

// within waits at most 5 s for ch to deliver, and fails the test saying
// what never happened if it does not.
func within[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("after 5 s: %s", what)
	}
	var zero T
	return zero
}

// TestCleanerForcesDrainedRecords: a flush commit drains a no-flush
// transaction's record into the log and releases its region locks before it
// forces.  The page cleaner must not write that transaction's pages until
// the log is durable past its record: a crash that lost the unsynced tail
// would leave the transaction half in its segment.  The "crashed" run shows
// that crash: power fails while the commit's force is held, after one page
// of segment writes at most, and the restart must hold the transaction
// whole or not at all.
func TestCleanerForcesDrainedRecords(t *testing.T) {
	for _, crash := range []bool{false, true} {
		t.Run(map[bool]string{false: "synced", true: "crashed"}[crash], func(t *testing.T) {
			cleanerForcesDrainedRecords(t, crash, nil)
		})
	}
}

// TestCleanerForceObservedOnce: the flush commit's force and the cleaner's
// write-ahead force behind it are each timed once, and each covered the two
// records the commit appended, the drain's and its own.
func TestCleanerForceObservedOnce(t *testing.T) {
	cleanerForcesDrainedRecords(t, false, obs.NewMetrics())
}

func cleanerForcesDrainedRecords(t *testing.T, crash bool, met *obs.Metrics) {
	dir := t.TempDir()
	logPath, segPath := filepath.Join(dir, "log.rvm"), filepath.Join(dir, "seg.rvm")
	if err := CreateLog(logPath, 1<<16); err != nil {
		t.Fatal(err)
	}
	if err := CreateSegment(segPath, 1, pageBytes(3)); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(logPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The log and the segment are one machine's; while gated, the log's
	// Syncs announce themselves on entered and wait for release, and the
	// segment notes the offset of every write.  Room for both Syncs the
	// test provokes, the commit's and the cleaner's, so neither blocks on
	// announcing itself.
	cache := iofault.NewCache(f, -1)
	lg := iofault.NewInjector(cache, 1)
	var gated atomic.Bool
	entered, release := make(chan struct{}, 2), make(chan struct{})
	lg.SetHook(func(op iofault.Op, _ int64, _ int) {
		if op == iofault.OpSync && gated.Load() {
			entered <- struct{}{}
			<-release
		}
	})
	var mu sync.Mutex
	var early []int64 // segment writes made while the commit's force is held
	eng, err := Open(Options{LogPath: logPath, LogDevice: lg, TruncateThreshold: -1, Metrics: met,
		SegmentDevice: func(_ string, sf *os.File) segment.Device {
			seg := iofault.NewInjector(cache.Join(sf), 1)
			seg.SetHook(func(op iofault.Op, off int64, _ int) {
				if op == iofault.OpWrite && gated.Load() {
					mu.Lock()
					early = append(early, off)
					mu.Unlock()
				}
			})
			return seg
		}})
	if err != nil {
		t.Fatal(err)
	}
	a, err := eng.Map(segPath, 0, pageBytes(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Map(segPath, pageBytes(2), pageBytes(1))
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := eng.Begin(Restore)
	if err != nil {
		t.Fatal(err)
	}
	if err := lazy.Modify(a, 0, []byte("first half")); err != nil {
		t.Fatal(err)
	}
	if err := lazy.Modify(a, pageBytes(1), []byte("second half")); err != nil {
		t.Fatal(err)
	}
	if err := lazy.Commit(NoFlush); err != nil {
		t.Fatal(err)
	}

	gated.Store(true)
	committed := make(chan error, 1)
	go func() {
		tx, err := eng.Begin(Restore)
		if err == nil {
			err = tx.Modify(b, 0, []byte("forced"))
		}
		if err == nil {
			err = tx.Commit(Flush)
		}
		committed <- err
	}()
	within(t, entered, "the flush commit never reached its force")
	if crash {
		cache.SetBudget(pageBytes(1)) // power fails in the second page write
	}
	cleaned := make(chan error, 1)
	go func() {
		if err := eng.claimTruncation(); err != nil {
			cleaned <- err
			return
		}
		_, _, _, _, err := eng.clean(cleanEverything)
		eng.releaseTruncation()
		cleaned <- err
	}()
	var cleanErr error
	done := false
	select {
	case <-entered: // the cleaner forces the log before writing the pages
	case cleanErr = <-cleaned:
		done = true
	case <-time.After(5 * time.Second):
		t.Fatal("after 5 s: the cleaner neither forced the log nor returned")
	}
	if crash {
		// The log keeps none of the drained records; the segment, whatever
		// reached it.
		if err := cache.CrashKeeping(func(d *iofault.Cache, _ int64) bool { return d != cache }); err != nil {
			t.Fatal(err)
		}
	}
	gated.Store(false)
	close(release)
	commitErr := within(t, committed, "the flush commit never returned")
	if !done {
		cleanErr = within(t, cleaned, "the cleaner never returned")
	}
	if crash {
		eng.closeFiles()
		eng, err = Open(Options{LogPath: logPath})
		if err != nil {
			t.Fatal(err)
		}
		a, err = eng.Map(segPath, 0, pageBytes(2))
		if err != nil {
			t.Fatal(err)
		}
		first := bytes.Equal(a.Data()[:10], []byte("first half"))
		second := bytes.Equal(a.Data()[pageBytes(1):pageBytes(1)+11], []byte("second half"))
		if first != second {
			t.Fatalf("the restart holds half of the no-flush transaction (first page %v, second %v)", first, second)
		}
	} else if commitErr != nil || cleanErr != nil {
		t.Fatalf("commit: %v; cleaner: %v", commitErr, cleanErr)
	}
	defer eng.Close()
	if len(early) > 0 {
		t.Fatalf("segment written at %v before the log record behind it was durable", early)
	}
	if qi, err := eng.Query(a); err != nil || qi.DirtyPages != 0 {
		t.Fatalf("the cleaner left %d page(s) of the lazy transaction dirty (%v)", qi.DirtyPages, err)
	}
	if met != nil {
		sn, st := met.Snapshot(), eng.Stats()
		if st.LogForces != 2 || sn.ForceLatencyNs.Count != st.LogForces || sn.ForceBatch.Sum != 2*st.LogForces {
			t.Fatalf("%d log forces, %d timed, covering %d records in all; want 2, 2 and 4",
				st.LogForces, sn.ForceLatencyNs.Count, sn.ForceBatch.Sum)
		}
	}
}
