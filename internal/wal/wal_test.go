package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/rvm-go/rvm/internal/iofault"
	"github.com/rvm-go/rvm/internal/mapping"
)

func newLog(t *testing.T, areaSize int64) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log.rvm")
	if err := Create(path, areaSize); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, path
}

func mkRange(seg, off uint64, b byte, n int) Range {
	d := make([]byte, n)
	for i := range d {
		d[i] = b
	}
	return Range{Seg: seg, Off: off, Data: d}
}

// cloneRecord returns a copy of r that shares nothing with the window r's
// range data aliases.
func cloneRecord(r *Record) *Record {
	cp := *r
	cp.Ranges = nil // stays nil for a record without ranges
	for _, rg := range r.Ranges {
		cp.Ranges = append(cp.Ranges, Range{Seg: rg.Seg, Off: rg.Off, Data: bytes.Clone(rg.Data)})
	}
	return &cp
}

func collectForward(t *testing.T, l *Log) []*Record {
	t.Helper()
	var recs []*Record
	err := l.ScanForward(func(r *Record) error {
		recs = append(recs, cloneRecord(r))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// collectBackward returns the live records newest-first, the order the
// paper's recovery walks: the forward scan reversed, for a record keeps no
// reverse displacement.
func collectBackward(t *testing.T, l *Log) []*Record {
	t.Helper()
	recs := collectForward(t, l)
	slices.Reverse(recs)
	return recs
}

func TestCreateOpenEmpty(t *testing.T) {
	l, _ := newLog(t, 1<<16)
	if l.Used() != 0 {
		t.Fatalf("new log Used = %d", l.Used())
	}
	if got := collectForward(t, l); len(got) != 0 {
		t.Fatalf("empty log has %d records", len(got))
	}
}

func TestCreateRejectsTiny(t *testing.T) {
	if err := Create(filepath.Join(t.TempDir(), "l"), 16); err == nil {
		t.Fatal("tiny log accepted")
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, bytes.Repeat([]byte{7}, 4*mapping.PageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrNotLog) {
		t.Fatalf("got %v want ErrNotLog", err)
	}
}

func TestAppendScanRoundTrip(t *testing.T) {
	l, _ := newLog(t, 1<<16)
	want := [][]Range{
		{mkRange(1, 100, 'a', 10)},
		{mkRange(1, 50, 'b', 5), mkRange(2, 0, 'c', 3)},
		{mkRange(3, 4096, 'd', 1000)},
	}
	for i, ranges := range want {
		if _, _, _, err := l.Append(uint64(i+1), 0, ranges); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}

	fwd := collectForward(t, l)
	if len(fwd) != 3 {
		t.Fatalf("forward scan found %d records", len(fwd))
	}
	for i, rec := range fwd {
		if rec.TID != uint64(i+1) {
			t.Errorf("record %d TID=%d", i, rec.TID)
		}
		if len(rec.Ranges) != len(want[i]) {
			t.Fatalf("record %d has %d ranges", i, len(rec.Ranges))
		}
		for j, r := range rec.Ranges {
			w := want[i][j]
			if r.Seg != w.Seg || r.Off != w.Off || !bytes.Equal(r.Data, w.Data) {
				t.Errorf("record %d range %d mismatch", i, j)
			}
		}
	}

	bwd := collectBackward(t, l)
	if len(bwd) != 3 {
		t.Fatalf("backward scan found %d records", len(bwd))
	}
	for i := range bwd {
		if bwd[i].TID != fwd[len(fwd)-1-i].TID {
			t.Errorf("backward order wrong at %d", i)
		}
	}
}

func TestReopenFindsTail(t *testing.T) {
	l, path := newLog(t, 1<<16)
	for i := 1; i <= 5; i++ {
		if _, _, _, err := l.Append(uint64(i), 0, []Range{mkRange(1, uint64(i)*8, byte(i), 16)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	usedBefore := l.Used()
	l.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Used() != usedBefore {
		t.Fatalf("reopened Used=%d want %d", l2.Used(), usedBefore)
	}
	recs := collectForward(t, l2)
	if len(recs) != 5 || recs[4].TID != 5 {
		t.Fatalf("reopen lost records: %d", len(recs))
	}
	// Appends continue after the recovered tail.
	if _, _, _, err := l2.Append(6, 0, []Range{mkRange(1, 0, 'z', 4)}); err != nil {
		t.Fatal(err)
	}
	if got := collectForward(t, l2); len(got) != 6 {
		t.Fatalf("append after reopen lost: %d", len(got))
	}
}

func TestEmptyTransactionRecord(t *testing.T) {
	l, _ := newLog(t, 1<<16)
	if _, _, _, err := l.Append(9, 0, nil); err != nil {
		t.Fatal(err)
	}
	recs := collectForward(t, l)
	if len(recs) != 1 || recs[0].TID != 9 || len(recs[0].Ranges) != 0 {
		t.Fatalf("empty tx record mishandled: %+v", recs)
	}
}

// TestFlagsRoundTrip: each of the record's two flag bits reads back as
// appended, and flags that do not fit them are refused.
func TestFlagsRoundTrip(t *testing.T) {
	l, _ := newLog(t, 1<<16)
	for f := range uint8(4) {
		if _, _, _, err := l.Append(1, f, []Range{mkRange(1, 0, 'x', 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := l.Append(1, 4, []Range{mkRange(1, 0, 'x', 1)}); err == nil {
		t.Fatal("flags 4 appended")
	}
	for i, r := range collectForward(t, l) {
		if r.Flags != uint8(i) {
			t.Fatalf("record %d has flags %x", i, r.Flags)
		}
	}
}

func TestWrapAround(t *testing.T) {
	area := int64(mapping.PageSize) // smallest possible area
	l, _ := newLog(t, area)
	// Fill most of the area, truncate, and keep appending so the tail wraps.
	rec := []Range{mkRange(1, 0, 'w', 700)}
	var lastPos int64
	wrapped := false
	for i := 0; i < 50; i++ {
		pos, seq, _, err := l.Append(uint64(i+1), 0, rec)
		if errors.Is(err, ErrLogFull) {
			// Truncate everything: move head to tail.
			tp, ts := l.Tail()
			if err := l.SetHead(tp, ts); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		_ = seq
		if pos < lastPos {
			wrapped = true
		}
		lastPos = pos
	}
	if !wrapped {
		t.Fatal("log never wrapped")
	}
	if l.Stats().Wraps == 0 {
		t.Fatal("no wrap records written")
	}
	// Forward and backward scans agree after wrapping.
	fwd := collectForward(t, l)
	bwd := collectBackward(t, l)
	if len(fwd) != len(bwd) {
		t.Fatalf("scan disagreement: fwd=%d bwd=%d", len(fwd), len(bwd))
	}
	for i := range fwd {
		if fwd[i].TID != bwd[len(bwd)-1-i].TID {
			t.Fatalf("order mismatch at %d", i)
		}
	}
}

func TestLogFullAndTooBig(t *testing.T) {
	area := int64(mapping.PageSize)
	l, _ := newLog(t, area)
	if _, _, _, err := l.Append(1, 0, []Range{mkRange(1, 0, 'x', int(area))}); !errors.Is(err, ErrTooBig) {
		t.Fatalf("got %v want ErrTooBig", err)
	}
	// Fill until full.
	for i := 0; ; i++ {
		_, _, _, err := l.Append(uint64(i+1), 0, []Range{mkRange(1, 0, 'x', 512)})
		if errors.Is(err, ErrLogFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if i > 1000 {
			t.Fatal("log never filled")
		}
	}
	if free := l.AreaSize() - l.Used(); free >= 1024 {
		t.Fatalf("declared full with %d free", free)
	}
}

func TestSetHeadFreesSpace(t *testing.T) {
	l, _ := newLog(t, int64(mapping.PageSize))
	var positions []int64
	var seqs []uint64
	for i := 0; i < 3; i++ {
		pos, seq, _, err := l.Append(uint64(i+1), 0, []Range{mkRange(1, 0, 'x', 600)})
		if err != nil {
			t.Fatal(err)
		}
		positions = append(positions, pos)
		seqs = append(seqs, seq)
	}
	used := l.Used()
	// Drop the first record.
	if err := l.SetHead(positions[1], seqs[1]); err != nil {
		t.Fatal(err)
	}
	if l.Used() >= used {
		t.Fatal("SetHead freed nothing")
	}
	recs := collectForward(t, l)
	if len(recs) != 2 || recs[0].TID != 2 {
		t.Fatalf("wrong survivors: %d", len(recs))
	}
}

func TestSetHeadPersists(t *testing.T) {
	l, path := newLog(t, 1<<16)
	var pos2 int64
	var seq2 uint64
	for i := 0; i < 3; i++ {
		p, s, _, err := l.Append(uint64(i+1), 0, []Range{mkRange(1, 0, 'x', 100)})
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			pos2, seq2 = p, s
		}
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if err := l.SetHead(pos2, seq2); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := collectForward(t, l2)
	if len(recs) != 2 || recs[0].TID != 2 {
		t.Fatalf("head move not persistent: %d records, first TID %d", len(recs), recs[0].TID)
	}
}

func TestSetHeadToTailEmptiesLog(t *testing.T) {
	l, path := newLog(t, 1<<16)
	for i := 0; i < 4; i++ {
		if _, _, _, err := l.Append(uint64(i+1), 0, []Range{mkRange(1, 0, 'x', 64)}); err != nil {
			t.Fatal(err)
		}
	}
	tp, ts := l.Tail()
	if err := l.SetHead(tp, ts); err != nil {
		t.Fatal(err)
	}
	if l.Used() != 0 {
		t.Fatalf("Used=%d after full truncation", l.Used())
	}
	// Appends and reopen still work.
	if _, _, _, err := l.Append(99, 0, []Range{mkRange(2, 8, 'q', 9)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := collectForward(t, l2)
	if len(recs) != 1 || recs[0].TID != 99 {
		t.Fatalf("post-truncation append lost: %+v", recs)
	}
}

func TestSetHeadRejectsBeyondTail(t *testing.T) {
	l, _ := newLog(t, 1<<16)
	if _, _, _, err := l.Append(1, 0, []Range{mkRange(1, 0, 'x', 64)}); err != nil {
		t.Fatal(err)
	}
	if err := l.SetHead(l.AreaSize()-8, 99); err == nil {
		t.Fatal("SetHead beyond tail accepted")
	}
}

func TestForceIsNoopWhenClean(t *testing.T) {
	l, _ := newLog(t, 1<<16)
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Forces; got != 0 {
		t.Fatalf("clean Force issued fsync (%d)", got)
	}
	if _, _, _, err := l.Append(1, 0, nil); err != nil {
		t.Fatal(err)
	}
	l.Force()
	l.Force()
	if got := l.Stats().Forces; got != 1 {
		t.Fatalf("Forces=%d want 1", got)
	}
}

// TestTornWriteDetection simulates a crash during an append: the torn
// record must be invisible after reopen, while earlier records survive.
func TestTornWriteDetection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.rvm")
	if err := Create(path, 1<<16); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	dev := iofault.NewCache(f, -1)
	l, err := OpenDevice(dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := l.Append(1, 0, []Range{mkRange(1, 0, 'a', 500)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	// Allow only 100 more bytes: the next append tears.
	dev.SetBudget(100)
	_, _, _, err = l.Append(2, 0, []Range{mkRange(1, 0, 'b', 500)})
	if !errors.Is(err, iofault.ErrCrashed) {
		t.Fatalf("append during crash returned %v", err)
	}
	if err := dev.Crash(iofault.KeepAll); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := collectForward(t, l2)
	if len(recs) != 1 || recs[0].TID != 1 {
		t.Fatalf("torn record visible: %d records", len(recs))
	}
	// The tail is reusable: a fresh append overwrites the torn bytes.
	if _, _, _, err := l2.Append(3, 0, []Range{mkRange(1, 8, 'c', 100)}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Force(); err != nil {
		t.Fatal(err)
	}
	recs = collectForward(t, l2)
	if len(recs) != 2 || recs[1].TID != 3 {
		t.Fatalf("append over torn region failed: %d records", len(recs))
	}
}

// TestRandomizedWrapConsistency drives many append/truncate cycles with
// random sizes and verifies forward/backward agreement and reopen fidelity.
func TestRandomizedWrapConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("log%d.rvm", trial))
		area := int64(mapping.PageSize) * int64(1+rng.Intn(3))
		if err := Create(path, area); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		type live struct {
			tid uint64
			pos int64
			seq uint64
		}
		var window []live
		tid := uint64(0)
		for step := 0; step < 200; step++ {
			tid++
			n := 1 + rng.Intn(900)
			pos, seq, _, err := l.Append(tid, 0, []Range{mkRange(1, uint64(n), byte(tid), n)})
			if errors.Is(err, ErrLogFull) {
				// Truncate roughly half the window.
				drop := len(window)/2 + 1
				if drop >= len(window) {
					tp, ts := l.Tail()
					if err := l.SetHead(tp, ts); err != nil {
						t.Fatal(err)
					}
					window = window[:0]
				} else {
					target := window[drop]
					if err := l.SetHead(target.pos, target.seq); err != nil {
						t.Fatal(err)
					}
					window = window[drop:]
				}
				tid--
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			window = append(window, live{tid, pos, seq})
		}
		fwd := collectForward(t, l)
		if len(fwd) != len(window) {
			t.Fatalf("trial %d: live window %d, scan %d", trial, len(window), len(fwd))
		}
		for i := range fwd {
			if fwd[i].TID != window[i].tid {
				t.Fatalf("trial %d: record %d TID %d want %d", trial, i, fwd[i].TID, window[i].tid)
			}
		}
		bwd := collectBackward(t, l)
		for i := range bwd {
			if bwd[i].TID != fwd[len(fwd)-1-i].TID {
				t.Fatalf("trial %d: backward mismatch", trial)
			}
		}
		if err := l.Force(); err != nil {
			t.Fatal(err)
		}
		l.Close()
		l2, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		fwd2 := collectForward(t, l2)
		if len(fwd2) != len(fwd) {
			t.Fatalf("trial %d: reopen lost records: %d vs %d", trial, len(fwd2), len(fwd))
		}
		l2.Close()
	}
}

func TestStatsAccounting(t *testing.T) {
	l, _ := newLog(t, 1<<16)
	l.Append(1, 0, []Range{mkRange(1, 0, 'x', 100)})
	l.Append(2, 0, []Range{mkRange(1, 0, 'y', 200)})
	l.Force()
	s := l.Stats()
	if s.Appends != 2 || s.Forces != 1 || s.BytesAppended == 0 {
		t.Fatalf("stats wrong: %+v", s)
	}
	if int64(s.BytesAppended) != l.Used() {
		t.Fatalf("BytesAppended %d != Used %d", s.BytesAppended, l.Used())
	}
}

func TestCloseIdempotent(t *testing.T) {
	l, _ := newLog(t, 1<<16)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
