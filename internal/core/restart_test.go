package core

import (
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rvm-go/rvm/internal/iofault"
	"github.com/rvm-go/rvm/internal/mapping"
	"github.com/rvm-go/rvm/internal/segment"
)

// crashImage is what a process failure leaves of a flush-mode TPC-A-shaped
// run: the log with every committed record live, the segment as created,
// and the dictionary, kept apart so that any number of restarts can start
// from the same bytes.
type crashImage struct {
	dir      string // holds the image files
	home     string // where they came from, and go back for a restart: the dictionary names the segment there
	logBytes int64  // log bytes written in all
	since    int64  // of them, the bytes written after the checkpoint (all without one): the live log
}

var crashFiles = []string{"log.rvm", "log.rvm.segs", "seg.rvm"}

// newCrashImage commits flush-mode transfers until logBytes of log are
// written, checkpointing once ckptAt of them are (0: never), and copies the
// log and the files as they stand; the engine then lets go of them as a
// dying process would, without a write, and is dropped: a Close after its
// files are gone would write through them.
func newCrashImage(tb testing.TB, logBytes, ckptAt int64) *crashImage {
	tb.Helper()
	s := newTPCAShape(tb, Options{TruncateThreshold: -1})
	s.localized = true
	written := func() int64 { return int64(s.eng.Stats().LogBytes) }
	img := &crashImage{dir: tb.TempDir()}
	var ckpt int64 // bytes written when the checkpoint ran
	for written() < logBytes {
		if ckptAt > 0 && written() >= ckptAt {
			ckpt, ckptAt = written(), 0
			if err := s.eng.Checkpoint(); err != nil {
				tb.Fatal(err)
			}
			// No page is pinned, so every page goes out and the head moves
			// to the tail.
			if qi, err := s.eng.Query(nil); err != nil || qi.LogUsed != 0 {
				tb.Fatalf("a checkpoint with no page pinned left %d live log bytes (%v)", qi.LogUsed, err)
			}
		}
		s.commitMode(tb, Flush)
	}
	img.logBytes = written()
	img.since = img.logBytes - ckpt
	img.home = filepath.Dir(s.eng.opts.LogPath)
	// The log is the shape's Mem; the dictionary and the segment are files.
	if err := os.WriteFile(filepath.Join(img.dir, crashFiles[0]), s.log.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
	for _, name := range crashFiles[1:] {
		b, err := os.ReadFile(filepath.Join(img.home, name))
		if err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(img.dir, name), b, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	s.eng.closeFiles()
	s.eng = nil
	return img
}

// counts is what a device saw: the bytes read past its first skip bytes
// (a segment's header page), its writes, the bytes written and its syncs.
type counts struct {
	skip                         int64
	read, writes, written, syncs atomic.Int64
}

// wrap puts f behind an Injector that counts into n.
func (n *counts) wrap(f *os.File) *iofault.Injector {
	inj := iofault.NewInjector(f, 1)
	inj.SetHook(func(op iofault.Op, off int64, size int) {
		switch {
		case op == iofault.OpRead && off >= n.skip:
			n.read.Add(int64(size))
		case op == iofault.OpWrite:
			n.writes.Add(1)
			n.written.Add(int64(size))
		case op == iofault.OpSync:
			n.syncs.Add(1)
		}
	})
	return inj
}

// segCounts returns the counts of a segment's devices.
func segCounts() *counts { return &counts{skip: int64(mapping.PageSize)} }

// restarted is one restart from a crashImage and what it cost; the devices
// go on counting.
type restarted struct {
	eng    *Engine
	log    *counts
	seg    *counts
	mapped int64 // bytes the regions map
	alloc  int64 // bytes allocated
	took   time.Duration
}

// restart puts the image back and restarts from it: Open, which recovers,
// and Map of the three regions.
func (img *crashImage) restart(tb testing.TB, opts Options) restarted {
	tb.Helper()
	dir := img.home
	for _, name := range crashFiles {
		b, err := os.ReadFile(filepath.Join(img.dir, name))
		if err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, "log.rvm"), os.O_RDWR, 0)
	if err != nil {
		tb.Fatal(err)
	}
	lg, sc := &counts{}, segCounts()
	opts.LogPath, opts.LogDevice = f.Name(), lg.wrap(f)
	opts.SegmentDevice = func(_ string, f *os.File) segment.Device { return sc.wrap(f) }
	seg := filepath.Join(dir, "seg.rvm")
	runtime.GC() // every restart starts from the same heap
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	eng, err := Open(opts)
	if err != nil {
		tb.Fatal(err)
	}
	var mapped int64
	for _, m := range []struct{ off, pages int }{{0, tpcaAcctPages}, {tpcaAcctPages, tpcaAuditPages}, {tpcaAcctPages + tpcaAuditPages, 1}} {
		if _, err := eng.Map(seg, pageBytes(m.off), pageBytes(m.pages)); err != nil {
			tb.Fatal(err)
		}
		mapped += pageBytes(m.pages)
	}
	took := time.Since(t0)
	runtime.ReadMemStats(&after)
	return restarted{eng, lg, sc, mapped, int64(after.TotalAlloc - before.TotalAlloc), took}
}

// writesNothing requires a restart to have written and synced nothing,
// log or segment, and to have read each mapped byte from its segment once:
// the redo reaches the regions by Map, and the segments by the first
// truncation.
func (r restarted) writesNothing(tb testing.TB) {
	tb.Helper()
	lw, ls, sw, ss := r.log.writes.Load(), r.log.syncs.Load(), r.seg.written.Load(), r.seg.syncs.Load()
	if lw != 0 || ls != 0 || sw != 0 || ss != 0 {
		tb.Errorf("Open and Map wrote the log %d time(s) and synced it %d time(s), wrote %d segment bytes and synced %d time(s); want nothing",
			lw, ls, sw, ss)
	}
	if read := r.seg.read.Load(); read != r.mapped {
		tb.Errorf("Map read %d segment bytes for %d mapped; want each once", read, r.mapped)
	}
}

// TestRestartReadsLogOnce pins what the fused scan is for: a restart reads
// its log once.  Everything is built from the scan that finds the tail, so
// Open reads the live bytes (plus what windows re-read of records straddling
// their ends) and the two status blocks; after a checkpoint, which moved the
// head, the live bytes are the log written since, and nothing before them
// is read.  What a restart allocates is pinned too: the scan's windows are
// recycled, so the heap sees the trees, the regions and a few windows, not
// the log.
func TestRestartReadsLogOnce(t *testing.T) {
	// Beyond the records: the two status blocks, and up to one window past
	// the tail — the scan has to read on to learn that the tail is one.
	const status, window = 2 * 44, 128 << 10
	t.Run("no checkpoint", func(t *testing.T) {
		img := newCrashImage(t, 15<<20, 0)
		r := img.restart(t, Options{})
		defer r.eng.Close()
		r.writesNothing(t)
		st := r.eng.Stats()
		if st.Recoveries != 1 || st.RecoveryScanned != uint64(img.logBytes) {
			t.Fatalf("recovered %d time(s) over %d bytes, want once over %d", st.Recoveries, st.RecoveryScanned, img.logBytes)
		}
		read := r.log.read.Load()
		if limit := img.logBytes*11/10 + status; read > limit {
			t.Errorf("Open read %d log bytes for %d live; want at most %d", read, img.logBytes, limit)
		}
		// Three passes and a batch of decoded records made it 28.5 MB before
		// the scan was fused, and stripe sets and eight scan windows 13.1 MB
		// before the scan's goroutine built the redo alone; 5 MB are the
		// mapped regions, and what is left is mostly the trees.
		t.Logf("read %d log bytes for %d live, allocated %d bytes", read, img.logBytes, r.alloc)
		if r.alloc > 10<<20 {
			t.Errorf("restart allocated %d bytes; want at most 10 MB", r.alloc)
		}
		// The first truncation writes the redo and empties the log: the
		// segment synced once and the log once, the head moving past the
		// redo.
		if err := r.eng.Truncate(); err != nil {
			t.Fatal(err)
		}
		if ls, ss := r.log.syncs.Load(), r.seg.syncs.Load(); ls != 1 || ss != 1 {
			t.Errorf("restart and truncation synced the log %d time(s) and the segment %d; want 1 and 1", ls, ss)
		}
	})
	t.Run("checkpoint", func(t *testing.T) {
		img := newCrashImage(t, 3<<20, 2<<20)
		r := img.restart(t, Options{})
		defer r.eng.Close()
		r.writesNothing(t)
		st := r.eng.Stats()
		if st.RecoveryScanned != uint64(img.since) {
			t.Fatalf("recovery considered %d bytes, want the %d written since the checkpoint", st.RecoveryScanned, img.since)
		}
		if img.since > img.logBytes/2 {
			t.Fatalf("the checkpoint bounds redo at %d of %d bytes only", img.since, img.logBytes)
		}
		read := r.log.read.Load()
		if limit := img.since*11/10 + window + status; read > limit {
			t.Errorf("Open read %d log bytes for %d written, %d since the checkpoint; want at most %d", read, img.logBytes, img.since, limit)
		}
		t.Logf("read %d log bytes for %d written, %d since the checkpoint", read, img.logBytes, img.since)
	})
}

// BenchmarkOpenRecover times a restart from a 15 MB flush-mode TPC-A-shaped
// crash image: Open, which recovers, plus Map of the regions.  MB/s is
// live log per second; logread-B/op says how often the log was read,
// segwrite-B/op and sync/op what the restart wrote and synced (log and
// segment).
func BenchmarkOpenRecover(b *testing.B) {
	img := newCrashImage(b, 15<<20, 0)
	b.SetBytes(img.logBytes)
	var read, segWritten, syncs int64
	var took time.Duration
	for i := 0; i < b.N; i++ {
		r := img.restart(b, Options{})
		read, took = read+r.log.read.Load(), took+r.took
		segWritten, syncs = segWritten+r.seg.written.Load(), syncs+r.log.syncs.Load()+r.seg.syncs.Load()
		if err := r.eng.Close(); err != nil {
			b.Fatal(err)
		}
	}
	// Restoring the image and closing the engine are not the restart: report
	// the time restart measured itself.
	b.ReportMetric(float64(took.Nanoseconds())/float64(b.N), "ns/op")
	b.ReportMetric(float64(img.logBytes)*float64(b.N)/1e6/took.Seconds(), "MB/s")
	b.ReportMetric(float64(read)/float64(b.N), "logread-B/op")
	b.ReportMetric(float64(segWritten)/float64(b.N), "segwrite-B/op")
	b.ReportMetric(float64(syncs)/float64(b.N), "sync/op")
}
