package core

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

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
	logBytes int64  // live log bytes in the image
	stable   int64  // of them, the bytes from the last checkpoint's stable LSN on (all without one)
}

var crashFiles = []string{"log.rvm", "log.rvm.segs", "seg.rvm"}

// newCrashImage commits flush-mode transfers until logBytes of log are
// live, checkpointing once ckptAt of them are written (0: never), and
// copies the files as they stand; the engine then lets go of them as a
// dying process would, without a write.
func newCrashImage(tb testing.TB, logBytes, ckptAt int64) *crashImage {
	tb.Helper()
	s := newTPCAShape(tb, Options{NoSync: true, TruncateThreshold: -1})
	s.localized = true
	live := func() int64 {
		qi, err := s.eng.Query(nil)
		if err != nil {
			tb.Fatal(err)
		}
		return qi.LogUsed
	}
	img := &crashImage{dir: tb.TempDir()}
	for live() < logBytes {
		if ckptAt > 0 && live() >= ckptAt {
			// Every page goes out, so the stable LSN is the checkpoint
			// record's own.
			img.stable, ckptAt = live(), 0
			if err := s.eng.Checkpoint(); err != nil {
				tb.Fatal(err)
			}
		}
		s.commitMode(tb, Flush)
	}
	img.logBytes = live()
	img.stable = img.logBytes - img.stable
	img.home = filepath.Dir(s.eng.opts.LogPath)
	for _, name := range crashFiles {
		b, err := os.ReadFile(filepath.Join(img.home, name))
		if err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(img.dir, name), b, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	s.eng.closeFiles()
	return img
}

// countingLog is a log device that counts the bytes read from it, the
// writes made to it and its syncs.
type countingLog struct {
	*os.File
	readBytes, writes, syncs atomic.Int64
}

func (d *countingLog) ReadAt(p []byte, off int64) (int, error) {
	d.readBytes.Add(int64(len(p)))
	return d.File.ReadAt(p, off)
}

func (d *countingLog) WriteAt(p []byte, off int64) (int, error) {
	d.writes.Add(1)
	return d.File.WriteAt(p, off)
}

func (d *countingLog) Sync() error {
	d.syncs.Add(1)
	return d.File.Sync()
}

// segCounts is what the segment devices of a restart saw: bytes read from
// the data area (the header page aside), bytes written, syncs.
type segCounts struct{ read, written, syncs atomic.Int64 }

// countingSeg is a segment device that counts into n.
type countingSeg struct {
	*os.File
	n *segCounts
}

func (d countingSeg) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(mapping.PageSize) {
		d.n.read.Add(int64(len(p)))
	}
	return d.File.ReadAt(p, off)
}

func (d countingSeg) WriteAt(p []byte, off int64) (int, error) {
	d.n.written.Add(int64(len(p)))
	return d.File.WriteAt(p, off)
}

func (d countingSeg) Sync() error {
	d.n.syncs.Add(1)
	return d.File.Sync()
}

// restarted is one restart from a crashImage and what it cost; the devices
// go on counting.
type restarted struct {
	eng    *Engine
	log    *countingLog
	seg    *segCounts
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
	dev, sc := &countingLog{File: f}, &segCounts{}
	opts.LogPath, opts.LogDevice = f.Name(), dev
	opts.SegmentDevice = func(_ string, f *os.File) segment.Device { return countingSeg{f, sc} }
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
	return restarted{eng, dev, sc, mapped, int64(after.TotalAlloc - before.TotalAlloc), took}
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
// its log once.  Without a checkpoint everything is built from the scan
// that finds the tail, so Open reads the live bytes (plus what windows
// re-read of records straddling their ends) and the two status blocks; with
// one, the records from the stable LSN on are read a second time, and only
// those.  What a restart allocates is pinned too: the scan's windows are
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
		read := r.log.readBytes.Load()
		if limit := img.logBytes*11/10 + status; read > limit {
			t.Errorf("Open read %d log bytes for %d live; want at most %d", read, img.logBytes, limit)
		}
		// Three passes and a batch of decoded records made it 28.5 MB before
		// the scan was fused (PR 22); 5 MB are the mapped regions, and what
		// is left is mostly the trees.
		t.Logf("read %d log bytes for %d live, allocated %d bytes", read, img.logBytes, r.alloc)
		if r.alloc > 16<<20 {
			t.Errorf("restart allocated %d bytes; want at most 16 MB", r.alloc)
		}
		// The first truncation writes the redo and empties the log: the
		// segment synced once and the log twice, the head moving past the
		// redo and then past the empty epoch — what restart and truncation
		// synced when restart applied the redo itself.
		if err := r.eng.Truncate(); err != nil {
			t.Fatal(err)
		}
		if ls, ss := r.log.syncs.Load(), r.seg.syncs.Load(); ls != 2 || ss != 1 {
			t.Errorf("restart and truncation synced the log %d time(s) and the segment %d; want 2 and 1", ls, ss)
		}
	})
	t.Run("checkpoint", func(t *testing.T) {
		img := newCrashImage(t, 3<<20, 2<<20)
		r := img.restart(t, Options{})
		defer r.eng.Close()
		r.writesNothing(t)
		st := r.eng.Stats()
		if st.RecoveryScanned != uint64(img.stable) {
			t.Fatalf("recovery considered %d bytes, want the %d from the stable LSN on", st.RecoveryScanned, img.stable)
		}
		if img.stable > img.logBytes/2 {
			t.Fatalf("the checkpoint bounds redo at %d of %d bytes only", img.stable, img.logBytes)
		}
		read := r.log.readBytes.Load()
		if limit := img.logBytes + img.stable*11/10 + window + status; read > limit {
			t.Errorf("Open read %d log bytes for %d live, %d past the stable LSN; want at most %d", read, img.logBytes, img.stable, limit)
		}
		t.Logf("read %d log bytes for %d live, %d past the stable LSN", read, img.logBytes, img.stable)
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
		read, took = read+r.log.readBytes.Load(), took+r.took
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

// TestRestartCheckpointBelowHead crashes with a live checkpoint record whose
// stable LSN a truncation has since moved the head past: the checkpoint met
// a pinned page and recorded that page's first log reference, the pin went,
// and incremental truncation wrote the page and freed its record — but not
// the checkpoint record.  The restart must replay from the head, not look
// for the record the checkpoint names.
func TestRestartCheckpointBelowHead(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(3), Options{TruncateThreshold: -1})
	r, err := v.eng.Map(v.segPath, 0, pageBytes(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		v.commit1(r, 0, bytes.Repeat([]byte{byte('a' + i)}, 3000))
	}
	v.commit1(r, pageBytes(1), bytes.Repeat([]byte{'S'}, 2000)) // the stable LSN to be
	pin, err := v.eng.Begin(Restore)
	if err != nil {
		t.Fatal(err)
	}
	if err := pin.SetRange(r, pageBytes(1), 8); err != nil {
		t.Fatal(err)
	}
	v.commit1(r, pageBytes(2), []byte("kept in the log"))
	if err := v.eng.Checkpoint(); err != nil { // page 0 goes out; page 1 is pinned
		t.Fatal(err)
	}
	if err := pin.Abort(); err != nil {
		t.Fatal(err)
	}
	// Down to 1 % of the log: page 1 goes out and the head moves to page 2's
	// record, between the stable LSN and the checkpoint record.
	if err := v.eng.TruncateIncremental(0.01); err != nil {
		t.Fatal(err)
	}
	lg := v.eng.log
	_, head := lg.Head()
	if stable := v.eng.lastCkptStable; stable >= head || head > v.eng.lastCkptSeq {
		t.Fatalf("head at seq %d, stable LSN %d, checkpoint record %d: not the image this test is about",
			head, stable, v.eng.lastCkptSeq)
	}

	v.reopen(Options{})
	if st := v.eng.Stats(); st.RecoveredBytes != uint64(len("kept in the log")) {
		t.Fatalf("recovered %d bytes, want the one record above the head", st.RecoveredBytes)
	}
	r2, err := v.eng.Map(v.segPath, 0, pageBytes(3))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, pageBytes(3))
	copy(want, bytes.Repeat([]byte{'j'}, 3000))
	copy(want[pageBytes(1):], bytes.Repeat([]byte{'S'}, 2000))
	copy(want[pageBytes(2):], "kept in the log")
	if !bytes.Equal(r2.Data(), want) {
		t.Fatal("restart did not reproduce the committed state")
	}
}
