package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/rvm-go/rvm/internal/segment"
	"github.com/rvm-go/rvm/internal/wal"
)

// fuzzRegions are the script's three regions: two of segment 1 and the one
// page of segment 2, which is never mapped again once the first crash has
// struck, so its redo reaches it only by truncation.
var fuzzRegions = [3]struct {
	seg      int
	off, len int64
}{{0, 0, pageBytes(2)}, {0, pageBytes(2), pageBytes(2)}, {1, 0, pageBytes(1)}}

// fuzzWrite is one set-range of a committed transaction.
type fuzzWrite struct {
	reg  int
	off  int64
	data []byte
}

// restartScript is one FuzzRestart case: the engine, the script it follows,
// and the model of what it committed.
type restartScript struct {
	t       *testing.T
	b       []byte // the rest of the script
	dir     string
	segs    [2]string
	opts    Options
	eng     *Engine
	regs    [3]*Region
	durable [3][]byte
	// pending holds each log's committed no-flush writes not yet drained
	// into it: a crash loses them.
	pending [2][]fuzzWrite
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

func (s *restartScript) shardOf(reg int) int { return s.regs[reg].sh.idx }

// drain is a spool drain of log k: its no-flush writes become durable.
func (s *restartScript) drain(k int) {
	for _, w := range s.pending[k] {
		copy(s.durable[w.reg][w.off:], w.data)
	}
	s.pending[k] = nil
}

func (s *restartScript) drainAll() {
	for k := range s.pending {
		s.drain(k)
	}
}

// committed is the image a Map of reg presents: what is durable, and the
// no-flush writes still spooled on top.
func (s *restartScript) committed(reg int) []byte {
	img := bytes.Clone(s.durable[reg])
	for _, p := range s.pending {
		for _, w := range p {
			if w.reg == reg {
				copy(img[w.off:], w.data)
			}
		}
	}
	return img
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
	r, err := s.eng.Map(s.segs[fuzzRegions[i].seg], fuzzRegions[i].off, fuzzRegions[i].len)
	if err != nil {
		s.t.Fatal(err)
	}
	s.regs[i] = r
}

// commit commits one or two writes to mapped regions, flush or no-flush.
func (s *restartScript) commit() {
	s.t.Helper()
	var writes []fuzzWrite
	for n := 1 + s.next()%2; len(writes) < n; {
		i := s.next() % 3
		if s.regs[i] == nil {
			break
		}
		size := 1 + s.next()*2
		w := fuzzWrite{reg: i, off: int64(s.next()*61) % (fuzzRegions[i].len - int64(size)), data: make([]byte, size)}
		rand.New(rand.NewSource(int64(s.next()))).Read(w.data)
		writes = append(writes, w)
	}
	if len(writes) == 0 {
		return
	}
	tx, err := s.eng.Begin(Restore)
	if err != nil {
		s.t.Fatal(err)
	}
	shards := map[int]bool{}
	for _, w := range writes {
		if err := tx.Modify(s.regs[w.reg], w.off, w.data); err != nil {
			s.t.Fatal(err)
		}
		shards[s.shardOf(w.reg)] = true
	}
	mode := Flush
	if s.next()%2 == 0 {
		mode = NoFlush
	}
	if err := tx.Commit(mode); err != nil {
		s.t.Fatal(err)
	}
	if mode == NoFlush && len(shards) == 1 {
		k := s.shardOf(writes[0].reg)
		s.pending[k] = append(s.pending[k], writes...)
		return
	}
	// Every participant drains its spool ahead of the record.
	for k := range shards {
		s.drain(k)
	}
	for _, w := range writes {
		copy(s.durable[w.reg][w.off:], w.data)
	}
}

// decidedPrepares appends, as a crash between a cross-shard commit's prepares
// and its marks would leave them, two prepares of region 0 to log 0: one no
// mark confirms, and one whose only mark is on log 1.
func (s *restartScript) decidedPrepares() {
	s.t.Helper()
	orphan := wal.Range{Seg: 1, Off: 100, Data: bytes.Repeat([]byte{0xA5}, 50)}
	marked := wal.Range{Seg: 1, Off: 300, Data: bytes.Repeat([]byte{0x5A}, 50)}
	l0, l1 := s.eng.shards[0].log, s.eng.shards[1].log
	if _, _, _, err := l0.AppendPrepare(1<<40, 0, []wal.Range{orphan}); err != nil {
		s.t.Fatal(err)
	}
	if _, _, _, err := l0.AppendPrepare(1<<40+1, 0, []wal.Range{marked}); err != nil {
		s.t.Fatal(err)
	}
	if _, _, _, err := l1.AppendCommitMark(1<<40 + 1); err != nil {
		s.t.Fatal(err)
	}
	copy(s.durable[0][marked.Off:], marked.Data)
}

// crash drops the engine as a process failure would — what it wrote stays,
// what it spooled is gone — and opens it again with regions 0 and 1 mapped.
func (s *restartScript) crash() {
	s.t.Helper()
	s.eng.closeFiles()
	s.pending = [2][]fuzzWrite{}
	s.regs = [3]*Region{}
	var err error
	if s.eng, err = Open(s.opts); err != nil {
		s.t.Fatal(err)
	}
	s.mapRegion(0)
	s.mapRegion(1)
	s.check("restart")
}

// runRestartScript runs one FuzzRestart case over nlogs logs.
func runRestartScript(t *testing.T, nlogs int, script []byte) {
	s := &restartScript{t: t, b: script, dir: t.TempDir()}
	s.opts = Options{LogPath: filepath.Join(s.dir, "log.rvm"), NoSync: true, TruncateThreshold: -1, LogShards: nlogs,
		ShardOf: func(seg uint64, off int64) int {
			if seg == 1 && off > 0 {
				return 1
			}
			return 0
		}}
	if err := CreateLog(s.opts.LogPath, 1<<18); err != nil {
		t.Fatal(err)
	}
	for i, pages := range []int{4, 1} {
		s.segs[i] = filepath.Join(s.dir, fmt.Sprintf("seg%d.rvm", i+1))
		if err := CreateSegment(s.segs[i], uint64(i+1), pageBytes(pages)); err != nil {
			t.Fatal(err)
		}
	}
	for i := range s.durable {
		s.durable[i] = make([]byte, fuzzRegions[i].len)
	}
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
			s.drainAll()
		} else {
			s.commit()
		}
		s.check("before the first crash")
	}
	if nlogs > 1 && s.next()%2 == 0 {
		s.decidedPrepares()
	}
	s.crash()
	// Between the crashes: everything that applies the redo, and Maps
	// that must lay it over the segment until then.
	for op := s.next(); op%8 != 7 && len(s.b) > 0; op = s.next() {
		switch i := s.next() % 2; op % 8 {
		case 0, 1:
			s.commit()
		case 2:
			if s.regs[i] == nil {
				s.mapRegion(i)
			} else {
				if err := s.eng.Unmap(s.regs[i]); err != nil {
					t.Fatal(err)
				}
				s.drain(s.regs[i].sh.idx)
				s.regs[i] = nil
			}
		case 3:
			err = s.eng.TruncateIncremental(float64(i) / 2)
		case 4:
			err = s.eng.Checkpoint()
		case 5:
			err = s.eng.Truncate()
		case 6:
			err = s.eng.Flush()
		}
		if err != nil {
			t.Fatal(err)
		}
		if op%8 >= 3 {
			s.drainAll()
		}
		s.check("between the crashes")
	}
	s.crash()
	// Close applies what is left; then the segments hold the model, the
	// one never mapped again included.
	eng := s.eng
	s.eng = nil
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for i, reg := range fuzzRegions {
		seg, err := segment.Open(s.segs[reg.seg])
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, reg.len)
		err = seg.ReadAt(got, reg.off)
		seg.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, s.durable[i]) {
			t.Fatalf("after Close: segment of region %d differs from the model", i)
		}
	}
}

// FuzzRestart: a restart's redo is the run's first truncation epoch, laid
// over the segment image by Map and written by whatever first writes a page
// or moves the head.  A script of flush and no-flush commits, a crash, then
// Maps, Unmaps, commits and every kind of truncation, and a second crash,
// must leave every mapped region equal to the model after each reopen; a
// Close then must leave every segment so, the one never mapped after the
// first crash included.  With two logs, prepares the first restart decides
// — one discarded, one confirmed by a mark on the other log only — stay
// decided so at the second.  The seed corpus is 250 scripts, 500 crashes.
func FuzzRestart(f *testing.F) {
	for i := 0; i < 250; i++ {
		script := make([]byte, 160)
		rand.New(rand.NewSource(int64(i))).Read(script)
		f.Add(uint8(i%2), script)
	}
	f.Fuzz(func(t *testing.T, logs uint8, script []byte) {
		runRestartScript(t, 1+int(logs%2), script)
	})
}
