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

// fuzzSegPages are the sizes of the script's two segments, in pages.
var fuzzSegPages = [2]int{6, 1}

// fuzzRegions are the script's three regions: two of segment 1 and the one
// page of segment 2, which is never mapped again once the first crash has
// struck, so its redo reaches it only by truncation.  The first two can be
// mapped one page further on (restartScript.shifted), overlapping where they
// were at another page offset, but never each other.
var fuzzRegions = [3]struct {
	seg      int
	off, len int64
}{{0, 0, pageBytes(2)}, {0, pageBytes(3), pageBytes(2)}, {1, 0, pageBytes(1)}}

// fuzzWrite is one set-range of a committed transaction, at its segment
// offset: the model is the segments' images, whatever regions map them.
type fuzzWrite struct {
	seg  int
	off  int64
	data []byte
}

// restartScript is one FuzzRestart case: the engine, the script it follows,
// and the model of what it committed.
type restartScript struct {
	t       *testing.T
	b       []byte // the rest of the script
	segs    [2]string
	opts    Options
	eng     *Engine
	regs    [3]*Region
	shifted [3]bool // the region is mapped, or was last, one page further on
	durable [2][]byte
	// pending holds the committed no-flush writes not yet drained into the
	// log: a crash loses them.
	pending []fuzzWrite
}

// next returns the script's next byte, zero once it has run out.
func (s *restartScript) next() int {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return int(c)
}

// segOff is where region i starts in its segment.
func (s *restartScript) segOff(i int) int64 {
	if s.shifted[i] {
		return fuzzRegions[i].off + pageBytes(1)
	}
	return fuzzRegions[i].off
}

// drain is a spool drain: the no-flush writes become durable.
func (s *restartScript) drain() {
	for _, w := range s.pending {
		copy(s.durable[w.seg][w.off:], w.data)
	}
	s.pending = nil
}

// committed is the image a Map of region i presents: what is durable, and
// the no-flush writes still spooled on top.
func (s *restartScript) committed(i int) []byte {
	seg, off := fuzzRegions[i].seg, s.segOff(i)
	img := bytes.Clone(s.durable[seg])
	for _, w := range s.pending {
		if w.seg == seg {
			copy(img[w.off:], w.data)
		}
	}
	return img[off : off+fuzzRegions[i].len]
}

func (s *restartScript) check(what string) {
	s.t.Helper()
	for i, r := range s.regs {
		if r != nil && !bytes.Equal(r.Data(), s.committed(i)) {
			s.t.Fatalf("%s: region %d differs from the model", what, i)
		}
	}
}

func (s *restartScript) mapRegion(i int) {
	s.t.Helper()
	r, err := s.eng.Map(s.segs[fuzzRegions[i].seg], s.segOff(i), fuzzRegions[i].len)
	if err != nil {
		s.t.Fatal(err)
	}
	s.regs[i] = r
}

// unmap unmaps region i, which flushes the spool.
func (s *restartScript) unmap(i int) {
	s.t.Helper()
	if err := s.eng.Unmap(s.regs[i]); err != nil {
		s.t.Fatal(err)
	}
	s.drain()
	s.regs[i] = nil
}

// commit commits one or two writes to mapped regions, flush or no-flush.
// A write declares its range and, by the low two bits of the byte that
// seeds its data, fills all of it, none of it, all but its ends, or its
// ends but not its middle: a restore transaction logs of each range only
// the part from its first to its last changed word, so the log holds whole
// ranges, trimmed ones, ranges with an unchanged middle and records with
// no range at all.
func (s *restartScript) commit() {
	s.t.Helper()
	tx, err := s.eng.Begin(Restore)
	if err != nil {
		s.t.Fatal(err)
	}
	var writes []fuzzWrite
	for n := 1 + s.next()%2; len(writes) < n; {
		i := s.next() % 3
		if s.regs[i] == nil {
			break
		}
		size := 1 + s.next()*2
		off := int64(s.next()*61) % (fuzzRegions[i].len - int64(size))
		if err := tx.SetRange(s.regs[i], off, int64(size)); err != nil {
			s.t.Fatal(err)
		}
		data := s.regs[i].Data()[off : off+int64(size)]
		seed := s.next()
		rng := rand.New(rand.NewSource(int64(seed)))
		switch q := size / 4; seed % 4 {
		case 0:
			rng.Read(data)
		case 2:
			rng.Read(data[q : size-q])
		case 3:
			rng.Read(data[:q])
			rng.Read(data[size-q:])
		}
		writes = append(writes, fuzzWrite{seg: fuzzRegions[i].seg, off: s.segOff(i) + off, data: bytes.Clone(data)})
	}
	if len(writes) == 0 {
		if err := tx.Abort(); err != nil {
			s.t.Fatal(err)
		}
		return
	}
	mode := Flush
	if s.next()%2 == 0 {
		mode = NoFlush
	}
	if err := tx.Commit(mode); err != nil {
		s.t.Fatal(err)
	}
	if mode == NoFlush {
		s.pending = append(s.pending, writes...)
		return
	}
	s.drain() // the spool is drained ahead of the record
	for _, w := range writes {
		copy(s.durable[w.seg][w.off:], w.data)
	}
}

// crash drops the engine as a process failure would — what it wrote stays,
// what it spooled is gone — and opens it again with regions 0 and 1 mapped.
func (s *restartScript) crash() {
	s.t.Helper()
	s.eng.closeFiles()
	s.pending = nil
	s.regs = [3]*Region{}
	var err error
	if s.eng, err = Open(s.opts); err != nil {
		s.t.Fatal(err)
	}
	s.mapRegion(0)
	s.mapRegion(1)
	s.check("restart")
}

// restartStore is the store every FuzzRestart script starts from, made
// once: a log and the two segments, both already in the log's dictionary.
// A script runs the log and the segments on Mems holding their images, so
// it writes no file and syncs nothing: the files are only opened.
type restartStore struct {
	log  string
	segs [2]string
	imgs [3][]byte // the log's, then each segment's
}

func newRestartStore(tb testing.TB, dir string) *restartStore {
	st := &restartStore{log: filepath.Join(dir, "log.rvm")}
	if err := CreateLog(st.log, 1<<18); err != nil {
		tb.Fatal(err)
	}
	eng, err := Open(Options{LogPath: st.log})
	if err != nil {
		tb.Fatal(err)
	}
	for i, pages := range fuzzSegPages {
		st.segs[i] = filepath.Join(dir, fmt.Sprintf("seg%d.rvm", i+1))
		if err := CreateSegment(st.segs[i], uint64(i+1), pageBytes(pages)); err != nil {
			tb.Fatal(err)
		}
		if _, err := eng.Map(st.segs[i], 0, pageBytes(pages)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		tb.Fatal(err)
	}
	for i, path := range append([]string{st.log}, st.segs[:]...) {
		if st.imgs[i], err = os.ReadFile(path); err != nil {
			tb.Fatal(err)
		}
	}
	return st
}

// runRestartScript runs one FuzzRestart case on a fresh copy of st.
func runRestartScript(t *testing.T, st *restartStore, script []byte) {
	s := &restartScript{t: t, b: script, segs: st.segs}
	s.opts = Options{LogPath: st.log, TruncateThreshold: -1, LogDevice: iofault.NewMem(st.imgs[0])}
	// Every engine of the script opens the same Mems, which keep every
	// write as the files would.
	segMems := map[string]*iofault.Mem{}
	for i, path := range st.segs {
		segMems[path] = iofault.NewMem(st.imgs[1+i])
		s.durable[i] = make([]byte, pageBytes(fuzzSegPages[i]))
	}
	s.opts.SegmentDevice = func(path string, _ *os.File) segment.Device { return segMems[path] }
	var err error
	if s.eng, err = Open(s.opts); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if s.eng != nil {
			s.eng.closeFiles()
		}
	}()
	for i := range s.regs {
		s.mapRegion(i)
	}
	// Before the first crash: commits and flushes.
	for op := s.next(); op%8 != 7 && len(s.b) > 0; op = s.next() {
		if op%8 == 6 {
			if err := s.eng.Flush(); err != nil {
				t.Fatal(err)
			}
			s.drain()
		} else {
			s.commit()
		}
		s.check("before the first crash")
	}
	s.crash()
	// Between the crashes: everything that applies the redo, Maps that must
	// lay it over the segment until then, and remaps that log a page under
	// a second region at another page offset.
	for op := s.next(); op%9 != 8 && len(s.b) > 0; op = s.next() {
		switch i := s.next() % 2; op % 9 {
		case 0, 1:
			s.commit()
		case 2:
			if s.regs[i] == nil {
				s.mapRegion(i)
			} else {
				s.unmap(i)
			}
		case 3:
			err = s.eng.TruncateIncremental(float64(i) / 2)
		case 4:
			err = s.eng.Checkpoint()
		case 5:
			err = s.eng.Truncate()
		case 6:
			err = s.eng.Flush()
		case 7:
			if s.regs[i] != nil {
				s.unmap(i)
			}
			s.shifted[i] = !s.shifted[i]
			s.mapRegion(i)
		}
		if err != nil {
			t.Fatal(err)
		}
		// Truncations and Flush drain the spool, an Unmap too (s.unmap);
		// a Map does not.
		if op%9 >= 3 && op%9 <= 6 {
			s.drain()
		}
		s.check("between the crashes")
	}
	s.crash()
	// Close applies what is left; then the segments hold the model, the
	// region never mapped again included.
	eng := s.eng
	s.eng = nil
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for i, path := range s.segs {
		seg, err := segment.OpenWith(path, s.opts.SegmentDevice)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(s.durable[i]))
		err = seg.ReadAt(got, 0)
		seg.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, s.durable[i]) {
			t.Fatalf("after Close: segment %d differs from the model", i+1)
		}
	}
}

// FuzzRestart: a restart's redo is the run's first truncation epoch, laid
// over the segment image by Map and written by whatever first writes a page
// or moves the head.  A script of flush and no-flush commits, a crash, then
// Maps, Unmaps, remaps one page further on, commits and every kind of
// truncation, and a second crash, must leave every mapped region equal to
// the model after each reopen; a Close then must leave every segment so.  A
// remap logs the page the two ranges share under a second region at another
// page offset, so the records of one page come from two regions in one run
// and must still apply in log order.  The seed corpus is 250 scripts, 500
// crashes.
func FuzzRestart(f *testing.F) {
	for i := 0; i < 250; i++ {
		script := make([]byte, 160)
		rand.New(rand.NewSource(int64(i))).Read(script)
		f.Add(script)
	}
	st := newRestartStore(f, f.TempDir())
	f.Fuzz(func(t *testing.T, script []byte) { runRestartScript(t, st, script) })
}
