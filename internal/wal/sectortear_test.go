package wal

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"github.com/rvm-go/rvm/internal/iofault"
)

// TestAppendBatchSectorSubsetTear crashes a batch append on a write cache
// that persists an arbitrary subset of the sectors the write touched — not
// only a prefix of them, which is all TestAppendBatchTornWrite tears.  The batch
// lands behind live records, in a stretch of the area that still holds the
// records of the previous lap: a lost sector shows old, well-formed log
// bytes, not zeroes.  Reopening must yield the live records plus exactly
// the longest prefix of the batch whose every sector persisted, and resume
// the sequence right after it; no record of the previous lap, and none that
// a lost sector cut, may surface.  On every one of these images the scanner
// must also find exactly the tail and the records the reference tail finder
// does (checkTailOracle).
func TestAppendBatchSectorSubsetTear(t *testing.T) {
	const sector = 512
	const area = 16 << 10
	cases := []struct {
		name               string
		stale, live, batch []int64 // encoded record sizes
	}{
		// The previous lap's record boundaries fall anywhere.
		{"mixed", []int64{3000, 1816, 4096, 2504, 3200}, []int64{2048, 1400},
			[]int64{1208, 96, 2600, 520, 1024, 1800}},
		// Every record is 2 KiB and the area a multiple of it, so under each
		// record of the batch lies a whole, CRC-clean record of the previous
		// lap: only its sequence number gives it away.
		{"aligned", []int64{2048, 2048, 2048, 2048, 2048, 2048, 2048, 2048}, []int64{2048, 2048},
			[]int64{2048, 2048, 2048, 2048}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			image := newMemImage(t, area)
			tid := uint64(100)
			ents := func(sizes []int64) []Entry {
				out := make([]Entry, len(sizes))
				for i, need := range sizes {
					tid++
					out[i] = Entry{TID: tid, Ranges: []Range{mkRange(1, tid*64, byte(tid), sizeFor(need))}}
				}
				return out
			}
			tids := func(ents []Entry) (out []uint64) {
				for _, e := range ents {
					out = append(out, e.TID)
				}
				return out
			}
			stale, live, batch := ents(c.stale), ents(c.live), ents(c.batch)
			// crash runs the case on a fresh log over a write cache: the
			// previous lap, the head move and the live records, synced,
			// then the batch, whose one device write the crash cuts,
			// keeping the sectors keep names.  It returns the image left.
			var nextSeq uint64
			crash := func(keep func(sector int64) bool) []byte {
				t.Helper()
				mem := iofault.NewMem(image)
				cache := iofault.NewCache(mem, -1)
				l, err := OpenDevice(iofault.NewInjector(cache, 1))
				if err != nil {
					t.Fatal(err)
				}
				if n, err := l.AppendBatch(stale); err != nil {
					t.Fatalf("previous lap: %d appended, %v", n, err)
				}
				if err := l.SetHead(l.Tail()); err != nil {
					t.Fatal(err)
				}
				if _, err := l.AppendBatch(live); err != nil {
					t.Fatal(err)
				}
				if err := l.Force(); err != nil {
					t.Fatal(err)
				}
				_, nextSeq = l.Tail()
				w := writes(l)
				if _, err := l.AppendBatch(batch); err != nil {
					t.Fatal(err)
				}
				if writes(l) != w+1 {
					t.Fatalf("the batch took %d device writes, want one", writes(l)-w)
				}
				if err := cache.CrashKeeping(func(_ *iofault.Cache, s int64) bool { return keep(s) }); err != nil {
					t.Fatal(err)
				}
				return mem.Bytes()
			}
			before := crash(func(int64) bool { return false })
			after := crash(func(int64) bool { return true })
			first := areaOff(batch[0].Pos) / sector
			end := areaOff(batch[len(batch)-1].Pos + batch[len(batch)-1].Len)
			nsec := int((end-1)/sector - first + 1)
			if nsec < 8 {
				t.Fatalf("the batch spans %d sectors, want at least 8", nsec)
			}
			if bytes.Equal(before[first*sector:end], after[first*sector:end]) {
				t.Fatal("the batch did not overwrite anything")
			}

			check := func(persist []bool) {
				t.Helper()
				img := crash(func(s int64) bool { return persist[s-first] })
				ok := make([]bool, nsec) // sector holds the batch's bytes
				for i := range ok {
					lo, hi := (first+int64(i))*sector, (first+int64(i)+1)*sector
					ok[i] = persist[i] || bytes.Equal(before[lo:hi], after[lo:hi])
				}
				whole := 0
			prefix:
				for _, e := range batch {
					for s := areaOff(e.Pos) / sector; s <= (areaOff(e.Pos+e.Len)-1)/sector; s++ {
						if !ok[s-first] {
							break prefix
						}
					}
					whole++
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
				if want := append(tids(live), tids(batch[:whole])...); !reflect.DeepEqual(got, want) {
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
