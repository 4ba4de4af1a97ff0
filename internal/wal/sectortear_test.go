package wal

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"github.com/rvm-go/rvm/internal/iofault"
)

// TestAppendSectorSubsetTear crashes the append of a record of many
// sectors — a spool drain's shape — on a write cache that persists an
// arbitrary subset of the sectors the write touched, not only a prefix of
// them, which is all TestAppendTornWrite tears.  The record lands behind
// live records, in a stretch of the area that still holds the records of
// the previous lap: a lost sector shows old, well-formed log bytes, not
// zeroes.  No proper subset of the record's sectors may validate:
// reopening must yield the live records, plus the record only when every
// sector of it persisted, and resume the sequence right after them; no
// record of the previous lap may surface.  On every one of these images the
// scanner must also find exactly the tail and the records the reference
// tail finder does (checkTailOracle).
func TestAppendSectorSubsetTear(t *testing.T) {
	const sector = 512
	const area = 16 << 10
	cases := []struct {
		name        string
		stale, live []int64 // encoded record sizes
		record      int64
	}{
		// The previous lap's record boundaries fall anywhere.
		{"mixed", []int64{3000, 1816, 4096, 2504, 3200}, []int64{2048, 1400}, 7248},
		// Every record of the previous lap is 2 KiB and the area a multiple
		// of it, so under the record lie four whole, CRC-clean records of
		// the previous lap: only their sequence numbers give them away.
		{"aligned", []int64{2048, 2048, 2048, 2048, 2048, 2048, 2048, 2048}, []int64{2048, 2048}, 8192},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			image := newMemImage(t, area)
			// appendAll appends a record of each encoded size, numbering
			// them from tid, and returns their TIDs.
			appendAll := func(l *Log, tid uint64, sizes ...int64) (tids []uint64) {
				t.Helper()
				for _, need := range sizes {
					if _, _, _, err := l.Append(tid, 0, []Range{mkRange(1, tid*64, byte(tid), sizeFor(need))}); err != nil {
						t.Fatal(err)
					}
					tids, tid = append(tids, tid), tid+1
				}
				return tids
			}
			const recTID = 99
			var live []uint64
			// crash runs the case on a fresh log over a write cache: the
			// previous lap, the head move and the live records, synced,
			// then the record, whose one device write the crash cuts,
			// keeping the sectors keep names.  It returns the image left.
			var recPos int64
			var nextSeq uint64
			crash := func(keep func(sector int64) bool) []byte {
				t.Helper()
				mem := iofault.NewMem(image)
				cache := iofault.NewCache(mem, -1)
				l, err := OpenDevice(iofault.NewInjector(cache, 1))
				if err != nil {
					t.Fatal(err)
				}
				appendAll(l, 1, c.stale...)
				if err := l.SetHead(l.Tail()); err != nil {
					t.Fatal(err)
				}
				live = appendAll(l, 100, c.live...)
				if err := l.Force(); err != nil {
					t.Fatal(err)
				}
				recPos, nextSeq = l.Tail()
				w := writes(l)
				appendAll(l, recTID, c.record)
				if writes(l) != w+1 {
					t.Fatalf("the record took %d device writes, want one", writes(l)-w)
				}
				if err := cache.CrashKeeping(func(_ *iofault.Cache, s int64) bool { return keep(s) }); err != nil {
					t.Fatal(err)
				}
				return mem.Bytes()
			}
			before := crash(func(int64) bool { return false })
			after := crash(func(int64) bool { return true })
			first := areaOff(recPos) / sector
			end := areaOff(recPos + c.record)
			nsec := int((end-1)/sector - first + 1)
			if nsec < 8 {
				t.Fatalf("the record spans %d sectors, want at least 8", nsec)
			}
			if bytes.Equal(before[first*sector:end], after[first*sector:end]) {
				t.Fatal("the record did not overwrite anything")
			}

			check := func(persist []bool) {
				t.Helper()
				img := crash(func(s int64) bool { return persist[s-first] })
				whole := 1 // every sector holds the record's bytes
				for i := range persist {
					lo, hi := (first+int64(i))*sector, (first+int64(i)+1)*sector
					if !persist[i] && !bytes.Equal(before[lo:hi], after[lo:hi]) {
						whole = 0
					}
				}
				checkTailOracle(t, iofault.NewMem(img))
				l2, _ := openMem(t, img)
				var got []uint64
				seq := nextSeq - uint64(len(live))
				err := l2.ScanForward(func(r *Record) error {
					if r.Seq != seq {
						t.Fatalf("persisted %v: record %d has seq %d, want %d", persist, r.TID, r.Seq, seq)
					}
					seq++
					got = append(got, r.TID)
					return nil
				})
				if err != nil {
					t.Fatalf("persisted %v: %v", persist, err)
				}
				if want := append(live, recTID)[:len(live)+whole]; !reflect.DeepEqual(got, want) {
					t.Fatalf("persisted %v: reopened to records %v, want %v", persist, got, want)
				}
				if _, seq, _, err := l2.Append(9, 0, []Range{mkRange(1, 0, 'z', 50)}); err != nil || seq != nextSeq+uint64(whole) {
					t.Fatalf("persisted %v: append after reopen took seq %d (%v), want %d", persist, seq, err, nextSeq+uint64(whole))
				}
			}

			fill := func(v bool) []bool {
				p := make([]bool, nsec)
				for i := range p {
					p[i] = v
				}
				return p
			}
			check(fill(false))
			check(fill(true))
			for i := 0; i < nsec; i++ {
				p := fill(false) // a prefix of the sectors
				copy(p, fill(true)[:i])
				check(p)
				p = fill(true) // all but one
				p[i] = false
				check(p)
				p = fill(false) // one alone
				p[i] = true
				check(p)
			}
			for _, rest := range []bool{false, true} {
				p := fill(rest) // the fourth persisted, the second lost
				p[3], p[1] = true, false
				check(p)
			}
			rng := rand.New(rand.NewSource(16))
			for i := 0; i < 400; i++ {
				p := make([]bool, nsec)
				for j := range p {
					p[j] = rng.Intn(3) > 0
				}
				check(p)
			}
		})
	}
}
