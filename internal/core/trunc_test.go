package core

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

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
	if err := v.eng.Truncate(); err != nil {
		t.Fatal(err)
	}
	qi, _ = v.eng.Query(r)
	if qi.LogUsed != 0 {
		t.Fatalf("log not empty after truncate: %d", qi.LogUsed)
	}
	if qi.DirtyPages != 0 || qi.QueuedPages != 0 {
		t.Fatalf("pages not cleaned: %+v", qi)
	}
	if v.eng.Stats().EpochTruncs == 0 {
		t.Fatal("no epoch truncation counted")
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
	// written out (no-undo/redo), so incremental truncation blocks and the
	// engine reverts to epoch truncation (paper §5.1.2).
	v := newEnv(t, 1<<18, pageBytes(2), Options{Incremental: true})
	r := v.mapWhole()
	v.commit1(r, 0, []byte("committed")) // dirties page 0, queues it

	hold, _ := v.eng.Begin(Restore)
	if err := hold.SetRange(r, 4, 4); err != nil { // pins page 0
		t.Fatal(err)
	}
	if err := v.eng.TruncateIncremental(0); err != nil {
		t.Fatal(err)
	}
	st := v.eng.Stats()
	if st.EpochTruncs == 0 {
		t.Fatal("blocked incremental truncation did not revert to epoch")
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
	payload := bytes.Repeat([]byte{0xEE}, 700)
	for i := 0; i < 30; i++ {
		tx, _ := v.eng.Begin(Restore)
		payload[0] = byte(i)
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
	if r2.Data()[0] != 29 {
		t.Fatalf("final committed value lost: %d", r2.Data()[0])
	}
}

func TestAutoTruncation(t *testing.T) {
	v := newEnv(t, pageBytes(2), pageBytes(2), Options{TruncateThreshold: 0.3})
	r := v.mapWhole()
	payload := bytes.Repeat([]byte{1}, 400)
	for i := 0; i < 10; i++ {
		tx, _ := v.eng.Begin(Restore)
		tx.Modify(r, int64(i%4)*500, payload)
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
	if v.eng.Stats().EpochTruncs == 0 {
		t.Fatal("no truncation ran")
	}
}

func TestAutoTruncationIncremental(t *testing.T) {
	v := newEnv(t, pageBytes(2), pageBytes(2), Options{TruncateThreshold: 0.3, Incremental: true})
	r := v.mapWhole()
	payload := bytes.Repeat([]byte{1}, 400)
	for i := 0; i < 10; i++ {
		tx, _ := v.eng.Begin(Restore)
		tx.Modify(r, int64(i%4)*500, payload)
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

func TestSetOptionsChangesTruncationBehaviour(t *testing.T) {
	v := newEnv(t, 1<<18, pageBytes(2), Options{})
	v.eng.SetOptions(0.9, true)
	r := v.mapWhole()
	v.commit1(r, 0, []byte("x"))
	if err := v.eng.TruncateIncremental(0); err != nil {
		t.Fatal(err)
	}
	if v.eng.Stats().IncrSteps == 0 {
		t.Fatal("incremental truncation did not run after SetOptions")
	}
}

// TestCheckpointThenIncrementalMovesHeadOnly: a checkpoint drains the page
// queue and leaves the head where it was; the incremental truncation after
// it finds nothing to write and moves the head to the tail — the tail it
// read in the pipeline section that saw the queue empty.
func TestCheckpointThenIncrementalMovesHeadOnly(t *testing.T) {
	v := newEnv(t, 1<<18, pageBytes(2), Options{Incremental: true, TruncateThreshold: -1})
	r := v.mapWhole()
	v.commit1(r, 0, []byte("checkpointed"))
	v.commit1(r, pageBytes(1), []byte("second page"))
	if err := v.eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := v.eng.Stats()
	if qi, _ := v.eng.Query(r); qi.LogUsed == 0 || qi.QueuedPages != 0 || before.PagesWritten != 2 {
		t.Fatalf("after the checkpoint: %+v, %d pages written; want a live log, an empty queue and 2", qi, before.PagesWritten)
	}
	if err := v.eng.TruncateIncremental(0); err != nil {
		t.Fatal(err)
	}
	after := v.eng.Stats()
	if qi, _ := v.eng.Query(r); qi.LogUsed != 0 || after.PagesWritten != before.PagesWritten ||
		after.IncrSteps != 0 || after.EpochTruncs != 0 {
		t.Fatalf("after the truncation: %+v, stats %+v; want an empty log and no page written", qi, after)
	}
	v.reopen(Options{})
	r2 := v.mapWhole()
	if !bytes.Equal(r2.Data()[:12], []byte("checkpointed")) || !bytes.Equal(r2.Data()[pageBytes(1):pageBytes(1)+11], []byte("second page")) {
		t.Fatal("data lost after a checkpoint and a head-only truncation")
	}
}

// TestHeadNeverPassesQueuedPage: a queued page's first log reference is a
// live record, whatever interleaving of commits, checkpoints (which drain
// the queue and leave the head) and incremental truncations (which move the
// head to where the queue starts) produced the state.  A head beyond a
// queued reference is an acknowledged commit a crash would lose.
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
	sh := v.eng.shards[0]
	// A truncation that meets a pinned page waits out its grace period, so
	// the rounds are bounded by time as well as by count.
	deadline := time.Now().Add(time.Second)
	for i := 0; i < 200 && time.Now().Before(deadline) && !t.Failed(); i++ {
		// The checkpoint first: it is what leaves a truncation an empty
		// queue to find while commits keep appending.
		if err := v.eng.Checkpoint(); err != nil {
			t.Error(err)
			break
		}
		if err := v.eng.TruncateIncremental(0); err != nil {
			t.Error(err)
			break
		}
		sh.pipe.mu.Lock()
		d, queued := sh.pipe.queue.First()
		_, headSeq := sh.log.Head()
		sh.pipe.mu.Unlock()
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
