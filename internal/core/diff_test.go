package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/rvm-go/rvm/internal/iofault"
	"github.com/rvm-go/rvm/internal/segment"
	"github.com/rvm-go/rvm/internal/wal"
)

// TestLastCommitterWins: T declares [0,16) and with it captures the bytes
// there; C declares the same bytes, changes them and commits first; then T
// writes back the value it captured and commits.  T's bytes equal its old
// values, yet they are the newest committed value, not the log's: T must
// log them, for the restart must see what memory held at T's commit.
func TestLastCommitterWins(t *testing.T) {
	for _, mode := range []CommitMode{Flush, NoFlush} {
		v := newEnv(t, 1<<16, pageBytes(2), Options{TruncateThreshold: -1})
		r := v.mapWhole()
		mine := bytes.Repeat([]byte{'t'}, 16)
		v.commit1(r, 0, mine)

		tx, err := v.eng.Begin(Restore)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.SetRange(r, 0, 16); err != nil {
			t.Fatal(err)
		}
		v.commit1(r, 0, bytes.Repeat([]byte{'u'}, 16))
		copy(r.Data(), mine)
		if err := tx.Commit(mode); err != nil {
			t.Fatal(err)
		}
		if err := v.eng.Flush(); err != nil {
			t.Fatal(err)
		}
		v.reopen(Options{})
		if got := v.mapWhole().Data()[:16]; !bytes.Equal(got, mine) {
			t.Fatalf("commit mode %d: the restart holds %q, the last commit wrote %q", mode, got, mine)
		}
	}
}

// TestAbortEndsOverTheRegion: U writes x over the committed w; T declares
// the same bytes and so captures x; U aborts, putting w back; T writes x,
// the value it captured, and commits.  T's bytes equal its old values, yet
// neither the log nor the segment holds x: the abort must count as a
// transaction ending over the region, so that T logs them.
func TestAbortEndsOverTheRegion(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{TruncateThreshold: -1})
	r := v.mapWhole()
	v.commit1(r, 0, bytes.Repeat([]byte{'w'}, 16))
	x := bytes.Repeat([]byte{'x'}, 16)
	u, err := v.eng.Begin(Restore)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Modify(r, 0, x); err != nil {
		t.Fatal(err)
	}
	tx, err := v.eng.Begin(Restore)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRange(r, 0, 16); err != nil {
		t.Fatal(err)
	}
	if err := u.Abort(); err != nil {
		t.Fatal(err)
	}
	copy(r.Data(), x)
	if err := tx.Commit(Flush); err != nil {
		t.Fatal(err)
	}
	v.reopen(Options{})
	if got := v.mapWhole().Data()[:16]; !bytes.Equal(got, x) {
		t.Fatalf("the restart holds %q, the last commit wrote %q", got, x)
	}
}

// TestUnchangedDeclarationNeverSubsumes: T1 changes an account's balance
// word and commits no-flush; T2 declares the whole 128-byte account,
// changes nothing and commits no-flush.  T2 logs nothing, so it covers
// nothing: were its declared span taken as its cover, it would discard
// T1's spool entry and with it the balance.
func TestUnchangedDeclarationNeverSubsumes(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{TruncateThreshold: -1})
	r := v.mapWhole()
	t1, err := v.eng.Begin(Restore)
	if err != nil {
		t.Fatal(err)
	}
	if err := t1.SetRange(r, 128, 128); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(r.Data()[128:], 1993)
	if err := t1.Commit(NoFlush); err != nil {
		t.Fatal(err)
	}
	t2, err := v.eng.Begin(Restore)
	if err != nil {
		t.Fatal(err)
	}
	if err := t2.SetRange(r, 128, 128); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(NoFlush); err != nil {
		t.Fatal(err)
	}
	if err := v.eng.Flush(); err != nil {
		t.Fatal(err)
	}
	st := v.eng.Stats()
	v.reopen(Options{})
	if got := binary.LittleEndian.Uint64(v.mapWhole().Data()[128:]); got != 1993 {
		t.Fatalf("the restart holds balance %d, T1 committed 1993", got)
	}
	if st.InterSavedBytes != 0 {
		t.Fatalf("a commit that changed nothing subsumed %d bytes", st.InterSavedBytes)
	}
}

// diffScript is a seeded run of restore transactions on one region, each of
// which declares one to three ranges and changes only part of each: all of
// it, none of it, all but its ends (whole and partial words), or its ends
// but not a gap inside.  Most commit flush, some no-flush, and now and then
// the engine flushes or truncates.
type diffScript struct {
	seed int64
	len  int64 // the region's bytes
	// scan, if set, is called before each truncation and at the end, while
	// the log holds every record since the last.
	scan func(*diffRun)
}

// diffRun is what one run of a diffScript saw.
type diffRun struct {
	images  [][]byte // the region after each commit, the first before any
	durable int      // images[durable:] are what a crash may leave
	whole   map[uint64]int64
	ref     verbatimLog
	failed  bool // an operation failed: the machine lost power
}

// run plays the script on eng's region r.  For each flush commit it notes
// the undiffed record's cost by the transaction's ID.
func (s diffScript) run(t *testing.T, eng *Engine, r *Region) *diffRun {
	rng := rand.New(rand.NewSource(s.seed))
	d := &diffRun{images: [][]byte{bytes.Clone(r.Data())}, whole: map[uint64]int64{}}
	for i := 0; i < 40; i++ {
		switch rng.Intn(12) {
		case 0:
			if eng.Flush() != nil {
				d.failed = true
				return d
			}
			d.durable = len(d.images) - 1
			continue
		case 1:
			// Flushed first, so that the scan sees the drain's record.
			if eng.Flush() != nil {
				d.failed = true
				return d
			}
			if s.scan != nil {
				s.scan(d)
			}
			if eng.Truncate() != nil {
				d.failed = true
				return d
			}
			d.durable = len(d.images) - 1
			continue
		}
		tx, err := eng.Begin(Restore)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 1+rng.Intn(3); k++ {
			n := 1 + rng.Int63n(200)
			off := rng.Int63n(s.len - n)
			if err := tx.SetRange(r, off, n); err != nil {
				t.Fatal(err)
			}
			d.ref.setRange(r, off, n)
			data := r.Data()[off : off+n]
			a, b := rng.Int63n(n/2+1), n-rng.Int63n(n/2+1)
			switch rng.Intn(4) {
			case 0:
				rng.Read(data)
			case 2:
				rng.Read(data[a:b])
			case 3:
				rng.Read(data[:a])
				rng.Read(data[b:])
			}
		}
		mode := Flush
		if rng.Intn(4) == 0 {
			mode = NoFlush
		}
		var whole []wal.Range
		for _, tr := range tx.regions {
			for _, sp := range tr.set.spans {
				whole = append(whole, tr.region.wholeRange(sp))
			}
		}
		undiffed, diffed := wal.EncodedLen(whole), eng.Stats().DiffSavedBytes
		d.images = append(d.images, bytes.Clone(r.Data()))
		if tx.Commit(mode) != nil {
			d.failed = true
			return d
		}
		if saved := int64(eng.Stats().DiffSavedBytes - diffed); saved < 0 {
			t.Fatalf("commit %d logs %d bytes more than its spans whole", i, -saved)
		}
		if mode == Flush {
			d.whole[tx.ID()] = undiffed
			d.durable = len(d.images) - 1
		}
	}
	if s.scan != nil {
		s.scan(d)
	}
	return d
}

// TestDiffNeverCostsMore runs diffScripts: no record costs more than its
// transaction's coalesced spans logged whole, the saved-bytes counters add
// up to the verbatim logger's bill exactly, and a machine that loses power
// in any one of the run's device writes — the log's or a truncation's
// segment write, torn in the middle, keeping all or a seeded share of the
// unsynced sectors — restarts to the region as it was after some commit no
// older than the last one made durable.
func TestDiffNeverCostsMore(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		v := newEnv(t, 1<<18, pageBytes(2), Options{TruncateThreshold: -1})
		// Framing as the engine's log reports it, as in
		// TestSavedBytesMatchVerbatimLogger, read before each truncation
		// takes records away.
		var framing int64
		var seen uint64
		scan := func(d *diffRun) {
			err := v.eng.log.ScanForward(func(rec *wal.Record) error {
				if rec.Seq <= seen {
					return nil
				}
				seen, framing = rec.Seq, framing+rec.Len
				for _, rg := range rec.Ranges {
					framing -= wal.RangeLen(rg.Seg, rg.Off, int64(len(rg.Data)))
				}
				if whole, ok := d.whole[rec.TID]; ok && rec.Len > whole {
					t.Errorf("seed %d: transaction %d logged a %d-byte record, %d whole", seed, rec.TID, rec.Len, whole)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		s := diffScript{seed: seed, len: pageBytes(2), scan: scan}
		d := s.run(t, v.eng, v.mapWhole())
		if d.failed {
			t.Fatal("an operation failed with no fault armed")
		}
		st := v.eng.Stats()
		if st.DiffSavedBytes == 0 {
			t.Fatalf("seed %d: the diff saved nothing", seed)
		}
		d.ref.check(t, st, uint64(framing))
		s.scan = nil
		diffCrashes(t, s)
	}
}

// diffCrashes runs s once for every device write of its run, with the
// machine's power failing in the middle of that write.
func diffCrashes(t *testing.T, s diffScript) {
	t.Helper()
	var writes []int64 // the bytes written before each device write
	var total int64
	count := func(op iofault.Op, _ int64, n int) {
		if op == iofault.OpWrite {
			writes, total = append(writes, total), total+int64(n)
		}
	}
	diffCrash(t, s, count, -1, 0)
	for j, before := range writes {
		if j+1 < len(writes) {
			diffCrash(t, s, nil, before+(writes[j+1]-before)/2, int64(j))
		} else {
			diffCrash(t, s, nil, before+(total-before)/2, int64(j))
		}
	}
}

// diffCrash runs s on a machine whose writes hook sees, with the power
// failing after budget bytes (never, if negative) and keeping all the
// unsynced sectors or, for an odd crash, a share seeded by crash.  The
// restart must hold one of the images the run allows.
func diffCrash(t *testing.T, s diffScript, hook func(iofault.Op, int64, int), budget, crash int64) {
	t.Helper()
	dir := t.TempDir()
	logPath, segPath := filepath.Join(dir, "log.rvm"), filepath.Join(dir, "seg.rvm")
	if err := CreateLog(logPath, 1<<18); err != nil {
		t.Fatal(err)
	}
	if err := CreateSegment(segPath, 1, s.len); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(logPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	cache := iofault.NewCache(f, -1)
	var armed bool // the script has started: its writes are counted
	counted := func(op iofault.Op, off int64, n int) {
		if armed && hook != nil {
			hook(op, off, n)
		}
	}
	lg := iofault.NewInjector(cache, 1)
	lg.SetHook(counted)
	eng, err := Open(Options{LogPath: logPath, LogDevice: lg, TruncateThreshold: -1,
		SegmentDevice: func(_ string, sf *os.File) segment.Device {
			seg := iofault.NewInjector(cache.Join(sf), 1)
			seg.SetHook(counted)
			return seg
		}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := eng.Map(segPath, 0, s.len)
	if err != nil {
		t.Fatal(err)
	}
	cache.SetBudget(budget)
	armed = true
	d := s.run(t, eng, r)
	if budget >= 0 && !d.failed {
		t.Fatalf("seed %d: the run outlived a budget of %d bytes", s.seed, budget)
	}
	keep := iofault.KeepAll
	if crash%2 == 1 {
		keep = crash
	}
	if err := cache.Crash(keep); err != nil {
		t.Fatal(err)
	}
	eng.closeFiles()
	eng, err = Open(Options{LogPath: logPath})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if r, err = eng.Map(segPath, 0, s.len); err != nil {
		t.Fatal(err)
	}
	for _, img := range d.images[d.durable:] {
		if bytes.Equal(r.Data(), img) {
			return
		}
	}
	t.Fatalf("seed %d, power lost after %d bytes: the restart holds no state after commit %d or later",
		s.seed, budget, d.durable)
}

// TestTPCAFlushRecordBytes pins what a TPC-A transfer (paper §7.1.1) costs
// the log: a restore flush commit that declares the 128-byte account, the
// 64-byte audit record and both 8-byte balances, and changes the account's
// balance word, 24 audit bytes and the balances, logs those 48 bytes under
// four 8-byte range headers and the record's 16-byte frame — 96 bytes, each
// time.
func TestTPCAFlushRecordBytes(t *testing.T) {
	s := newTPCAShape(t, Options{TruncateThreshold: -1})
	for i := range int64(4) {
		before := s.eng.Stats().LogBytes
		tx, err := s.eng.Begin(Restore)
		if err != nil {
			t.Fatal(err)
		}
		acct, audit := 128*(7+i%2), 64*i
		for _, sr := range []struct {
			r      *Region
			off, n int64
		}{{s.acct, acct, 128}, {s.audit, audit, 64}, {s.control, 0, 8}, {s.control, 2048, 8}} {
			if err := tx.SetRange(sr.r, sr.off, sr.n); err != nil {
				t.Fatal(err)
			}
		}
		const delta = 25
		add := func(b []byte) { binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)+delta) }
		add(s.acct.Data()[acct:])
		rec := s.audit.Data()[audit:]
		binary.LittleEndian.PutUint64(rec, uint64(i+1))
		binary.LittleEndian.PutUint32(rec[8:], uint32(acct/128))
		binary.LittleEndian.PutUint32(rec[12:], 1)
		binary.LittleEndian.PutUint64(rec[16:], delta)
		add(s.control.Data()[0:])
		add(s.control.Data()[2048:])
		if err := tx.Commit(Flush); err != nil {
			t.Fatal(err)
		}
		if got := s.eng.Stats().LogBytes - before; got != 96 {
			t.Fatalf("transfer %d logged %d bytes, want 96", i, got)
		}
	}
}
