package core

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"github.com/rvm-go/rvm/internal/iofault"
	"github.com/rvm-go/rvm/internal/wal"
)

func TestSpoolLimitTriggersImplicitFlush(t *testing.T) {
	setVar(t, &spoolLimit, 4096)
	v := newEnv(t, 1<<20, pageBytes(2), Options{})
	r := v.mapWhole()
	payload := bytes.Repeat([]byte{1}, 1024)
	// Four ~1KB no-flush commits cross the 4KB limit and must flush.
	for i := 0; i < 6; i++ {
		tx, _ := v.eng.Begin(NoRestore)
		if err := tx.Modify(r, int64(i)*1200, payload); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(NoFlush); err != nil {
			t.Fatal(err)
		}
	}
	qi, _ := v.eng.Query(nil)
	if qi.SpoolBytes > 4096 {
		t.Fatalf("spool grew past the limit: %d", qi.SpoolBytes)
	}
	if v.eng.Stats().Flushes == 0 {
		t.Fatal("no implicit flush happened")
	}
	// The flushed commits are durable without an explicit Flush.
	v.reopen(Options{})
	r2 := v.mapWhole()
	if !bytes.Equal(r2.Data()[:1024], payload) {
		t.Fatal("implicitly flushed commit lost")
	}
}

// TestSpoolDrainFitsTheLog: a drain is one record, so it must fit the log
// whole.  Behind a tail parked near the middle of a 64 KiB log, 15 spooled
// commits of 1000 bytes and one of 40 000 would make a 55 168-byte drain,
// which no epoch can make room for: the wrap in front of it does not fit.
// The large commit must go to the log on its own, behind the drain, and
// every byte must survive a restart.
func TestSpoolDrainFitsTheLog(t *testing.T) {
	const pages = 16
	v := newEnv(t, 64<<10, pageBytes(pages), Options{TruncateThreshold: -1})
	r, err := v.eng.Map(v.segPath, 0, pageBytes(pages))
	if err != nil {
		t.Fatal(err)
	}
	model := make([]byte, pageBytes(pages))
	rng := rand.New(rand.NewSource(39))
	commit := func(off, n int64, mode CommitMode) {
		t.Helper()
		tx, err := v.eng.Begin(NoRestore)
		if err != nil {
			t.Fatal(err)
		}
		rng.Read(model[off : off+n])
		if err := tx.Modify(r, off, model[off:off+n]); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(mode); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 3; i++ {
		commit(i*10000, 10000, Flush)
	}
	if err := v.eng.Truncate(); err != nil {
		t.Fatal(err)
	}
	if hp, _ := v.eng.log.Head(); hp < 29<<10 || v.eng.log.Used() != 0 {
		t.Fatalf("head at %d with %d bytes live; want an empty log from about 30 KiB", hp, v.eng.log.Used())
	}
	for i := int64(0); i < 15; i++ {
		commit(i*1000, 1000, NoFlush)
	}
	commit(15000, 40000, NoFlush)
	if err := v.eng.Flush(); err != nil {
		t.Fatal(err)
	}
	v.reopen(Options{})
	r2, err := v.eng.Map(v.segPath, 0, pageBytes(pages))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r2.Data(), model) {
		t.Fatal("the recovered image is not what was committed")
	}
}

// TestSpoolLimitHoldsUnderConcurrency: no-flush commits from several
// goroutines, one in ten larger than the spool's limit, race each other, the
// implicit flushes they trigger and truncations.  The spool may
// never hold more than two limits' worth, which is what keeps a drain inside
// the log, and every commit must survive a restart.
func TestSpoolLimitHoldsUnderConcurrency(t *testing.T) {
	const workers, iters, limit, pages = 4, 200, 4096, 4
	setVar(t, &spoolLimit, limit)
	v := newEnv(t, 1<<20, pageBytes(workers*pages), Options{TruncateThreshold: -1})
	regions := make([]*Region, workers)
	models := make([][]byte, workers)
	for w := range regions {
		r, err := v.eng.Map(v.segPath, pageBytes(w*pages), pageBytes(pages))
		if err != nil {
			t.Fatal(err)
		}
		regions[w], models[w] = r, make([]byte, pageBytes(pages))
	}
	var wg sync.WaitGroup
	for w := range regions {
		wg.Add(1)
		go func(r *Region, model []byte, rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n := 100 + rng.Int63n(2000)
				if i%10 == 0 {
					n = limit + rng.Int63n(4000)
				}
				off := rng.Int63n(r.Length() - n)
				rng.Read(model[off : off+n])
				tx, err := v.eng.Begin(NoRestore)
				if err == nil {
					err = tx.Modify(r, off, model[off:off+n])
				}
				if err == nil {
					err = tx.Commit(NoFlush)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if qi, _ := v.eng.Query(nil); qi.SpoolBytes > 2*limit {
					t.Errorf("the spool holds %d bytes, more than two limits' worth", qi.SpoolBytes)
					return
				}
			}
		}(regions[w], models[w], rand.New(rand.NewSource(int64(w))))
	}
	done := make(chan struct{})
	truncated := make(chan error)
	go func() {
		for {
			select {
			case <-done:
				truncated <- nil
				return
			default:
			}
			if err := v.eng.TruncateIncremental(0.25); err != nil {
				<-done
				truncated <- err
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	if err := <-truncated; err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}
	if err := v.eng.Flush(); err != nil {
		t.Fatal(err)
	}
	v.reopen(Options{})
	for w, model := range models {
		r, err := v.eng.Map(v.segPath, pageBytes(w*pages), pageBytes(pages))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.Data(), model) {
			t.Fatalf("region %d: the recovered image is not what was committed", w)
		}
	}
}

// TestSpoolMemoryStaysBounded: a burst of commits that rewrite each other
// with no Flush counts every entry in the spool until a drain, so the spool
// limit flushes it, and only a drain recycles the memory its entries were
// cut from.  10⁵ no-flush commits rewriting the same ranges must flush as
// often as the limit implies, the spool may never hold more than two limits'
// worth, and the heap may not grow by more than a few slabs.
func TestSpoolMemoryStaysBounded(t *testing.T) {
	v := newEnv(t, 1<<20, pageBytes(2), Options{TruncateThreshold: -1})
	r := v.mapWhole()
	model := make([]byte, pageBytes(2))
	limit := v.eng.spoolLimit
	commit := func(i int, offs ...int64) {
		t.Helper()
		tx, err := v.eng.Begin(NoRestore)
		if err != nil {
			t.Fatal(err)
		}
		for _, off := range offs {
			if err := tx.SetRange(r, off, 100); err != nil {
				t.Fatal(err)
			}
			model[off], model[off+99] = byte(i), byte(i>>8)
			copy(r.Data()[off:off+100], model[off:off+100])
		}
		if err := tx.Commit(NoFlush); err != nil {
			t.Fatal(err)
		}
		if qi, _ := v.eng.Query(nil); qi.SpoolBytes > 2*limit {
			t.Fatalf("the spool holds %d bytes, more than two limits' worth", qi.SpoolBytes)
		}
	}
	commit(7, 2000) // never rewritten
	burst := func(n int) {
		for i := 0; i < n; i++ {
			commit(i, 64, 4200)
		}
	}
	burst(1000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	burst(100000)
	runtime.GC()
	runtime.ReadMemStats(&after)
	// Each commit costs two 100-byte ranges; the commit that takes the spool
	// past the limit flushes it.
	per := limit/(2*wal.RangeLen(r.SegmentID(), 0, 100)) + 1
	if got, want := v.eng.Stats().Flushes, uint64(101001/per); got != want {
		t.Fatalf("%d flushes, want %d: one per %d commits", got, want, per)
	}
	growth := int64(after.HeapInuse) - int64(before.HeapInuse)
	t.Logf("heap in use grew by %d KiB over 10⁵ subsuming commits", growth>>10)
	if growth > 4<<20 {
		t.Fatalf("heap in use grew by %d KiB, want at most 4 MiB: dead entries' memory accumulates", growth>>10)
	}
	if err := v.eng.Flush(); err != nil {
		t.Fatal(err)
	}
	v.reopen(Options{})
	if !bytes.Equal(v.mapWhole().Data(), model) {
		t.Fatal("the recovered image is not what was committed")
	}
}

// TestDrainLogsNewestBytes: a drain logs each byte its entries cover once,
// with the value of the newest entry.  Three commits overlap in part —
// [0,10), then [5,15), then [0,4) — so that none subsumes another, and 256
// commits each rewrite one 8-byte field and append a 4-byte audit record of
// their own, which keeps the inter-transaction optimization from dropping
// them.  The drain's one record must carry as many range bytes as the union
// of the writes, and a crash at every point of the drain's device writes
// must restart to the image before the drain or to exactly the newest
// bytes.
func TestDrainLogsNewestBytes(t *testing.T) {
	type write struct {
		off  int64
		data []byte
	}
	txs := [][]write{{{0, []byte("AAAAAAAAAA")}}, {{5, []byte("BBBBBBBBBB")}}, {{0, []byte("CCCC")}}}
	for i := 0; i < 256; i++ {
		field := bytes.Repeat([]byte{byte(i)}, 8)
		txs = append(txs, []write{{100, field}, {1000 + 4*int64(i), []byte{'a', byte(i), 'z', byte(i >> 8)}}})
	}
	const union = 15 + 8 + 4*256
	newest := make([]byte, pageBytes(2))
	for _, tx := range txs {
		for _, w := range tx {
			copy(newest[w.off:], w.data)
		}
	}
	for budget := int64(-1); ; budget += 8 {
		dir := t.TempDir()
		logPath, segPath := filepath.Join(dir, "log.rvm"), filepath.Join(dir, "seg.rvm")
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
		cache := iofault.NewCache(f, -1)
		eng, err := Open(onMachine(Options{LogPath: logPath, TruncateThreshold: -1}, cache, true))
		if err != nil {
			t.Fatal(err)
		}
		r, err := eng.Map(segPath, 0, pageBytes(2))
		if err != nil {
			t.Fatal(err)
		}
		for _, ws := range txs {
			tx, _ := eng.Begin(Restore)
			for _, w := range ws {
				if err := tx.Modify(r, w.off, w.data); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(NoFlush); err != nil {
				t.Fatal(err)
			}
		}
		cache.SetBudget(budget)
		flushed := eng.Flush() == nil
		if budget < 0 {
			// No crash: look at the record the drain wrote.
			var recs, logged int
			err := eng.log.ScanForward(func(rec *wal.Record) error {
				recs++
				for _, rg := range rec.Ranges {
					logged += len(rg.Data)
				}
				return nil
			})
			if err != nil || !flushed || recs != 1 || logged != union {
				t.Fatalf("the drain logged %d record(s) of %d range bytes (flushed %v, %v); want 1 of %d", recs, logged, flushed, err, union)
			}
			if eng.Stats().DrainSavedBytes == 0 {
				t.Fatal("the drain saved nothing")
			}
			eng.Close()
			continue
		}
		if err := cache.Crash(iofault.KeepAll); err != nil {
			t.Fatal(err)
		}
		eng.closeFiles()
		eng, err = Open(Options{LogPath: logPath})
		if err != nil {
			t.Fatal(err)
		}
		if r, err = eng.Map(segPath, 0, pageBytes(2)); err != nil {
			t.Fatal(err)
		}
		got := bytes.Clone(r.Data())
		eng.Close()
		if !bytes.Equal(got, make([]byte, len(got))) && !bytes.Equal(got, newest) {
			t.Fatalf("a drain torn after %d bytes restarts to neither the old image nor the newest bytes", budget)
		}
		if flushed {
			if !bytes.Equal(got, newest) {
				t.Fatal("a drain that returned restarts without it")
			}
			return
		}
	}
}

// TestDrainNeverLogsMoreThanItsEntries: pieces of 65 534 bytes cannot share
// a short range header, so a drain that merged an old 262 139-byte range and
// three newer bytes that cut it into four such pieces would log seven
// ranges, 56 header bytes, where the four entries cost 22 + 3 × 8 and three
// bytes.  The drain logs the entries as they are instead — the spool's
// bound sizes the log for them — and the newer bytes still win.
func TestDrainNeverLogsMoreThanItsEntries(t *testing.T) {
	v := newEnv(t, 4<<20, pageBytes(72), Options{TruncateThreshold: -1})
	mapAll := func() *Region {
		r, err := v.eng.Map(v.segPath, 0, pageBytes(72))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := mapAll()
	const piece = 65534
	want := bytes.Repeat([]byte{'o'}, 4*piece+3)
	writes := [][2]int64{{0, int64(len(want))}}
	for i := int64(1); i <= 3; i++ {
		at := i*piece + i - 1
		want[at] = 'n'
		writes = append(writes, [2]int64{at, 1})
	}
	for _, w := range writes {
		tx, _ := v.eng.Begin(NoRestore)
		if err := tx.Modify(r, w[0], want[w[0]:w[0]+w[1]]); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(NoFlush); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.eng.Flush(); err != nil {
		t.Fatal(err)
	}
	var ranges []int
	err := v.eng.log.ScanForward(func(rec *wal.Record) error {
		for _, rg := range rec.Ranges {
			ranges = append(ranges, len(rg.Data))
		}
		return nil
	})
	if err != nil || len(ranges) != 4 || ranges[0] != len(want) {
		t.Fatalf("the drain logged ranges of %v bytes (%v); want the entries' %d, 1, 1 and 1", ranges, err, len(want))
	}
	if st := v.eng.Stats(); st.DrainSavedBytes != 0 {
		t.Fatalf("DrainSavedBytes %d for a drain logged as its entries", st.DrainSavedBytes)
	}
	v.reopen(Options{})
	if got := mapAll().Data()[:len(want)]; !bytes.Equal(got, want) {
		t.Fatal("the restart lost the newer bytes")
	}
}
