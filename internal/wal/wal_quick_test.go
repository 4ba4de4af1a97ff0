package wal

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

// genRanges converts fuzz input into a range list.
type rangeSpec struct {
	Seg  uint8
	Off  uint16
	Seed byte
	Len  uint8
}

func specsToRanges(specs []rangeSpec) []Range {
	out := make([]Range, 0, len(specs))
	for _, sp := range specs {
		d := make([]byte, int(sp.Len))
		for i := range d {
			d[i] = sp.Seed ^ byte(i)
		}
		out = append(out, Range{Seg: uint64(sp.Seg), Off: uint64(sp.Off), Data: d})
	}
	return out
}

// TestQuickAppendRoundTrip: any sequence of transactions survives the
// encode/write/decode cycle bit-exactly, in both scan directions.
func TestQuickAppendRoundTrip(t *testing.T) {
	tmp := t.TempDir()
	n := 0
	f := func(txs [][]rangeSpec, flags uint8) bool {
		n++
		path := filepath.Join(tmp, "log"+string(rune('a'+n%26))+string(rune('a'+(n/26)%26))+string(rune('a'+n)))
		if err := Create(path, 1<<20); err != nil {
			return false
		}
		l, err := Open(path)
		if err != nil {
			return false
		}
		defer l.Close()
		var want [][]Range
		for i, specs := range txs {
			if len(specs) > 40 {
				specs = specs[:40]
			}
			ranges := specsToRanges(specs)
			if _, _, _, err := l.Append(uint64(i+1), flags, ranges); err != nil {
				return false
			}
			want = append(want, ranges)
		}
		var fwd [][]Range
		err = l.ScanForward(func(r *Record) error {
			cp := make([]Range, len(r.Ranges))
			for i, rg := range r.Ranges {
				cp[i] = Range{Seg: rg.Seg, Off: rg.Off, Data: append([]byte(nil), rg.Data...)}
			}
			fwd = append(fwd, cp)
			return nil
		})
		if err != nil || len(fwd) != len(want) {
			return false
		}
		for i := range want {
			if len(fwd[i]) != len(want[i]) {
				return false
			}
			for j := range want[i] {
				a, b := fwd[i][j], want[i][j]
				if a.Seg != b.Seg || a.Off != b.Off || !bytes.Equal(a.Data, b.Data) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCorruptionNeverPanics: flipping arbitrary bytes in the file
// must never panic Open or the scans; at worst they error or drop
// records.
func TestQuickCorruptionNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dir := t.TempDir()
	for trial := 0; trial < 40; trial++ {
		path := filepath.Join(dir, "log"+string(rune('a'+trial%26))+string(rune('A'+trial/26)))
		if err := Create(path, 1<<16); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			l.Append(uint64(i+1), 0, []Range{{Seg: 1, Off: uint64(i * 100), Data: bytes.Repeat([]byte{byte(i)}, 50)}})
		}
		l.Force()
		l.Close()

		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 8; k++ {
			raw[rng.Intn(len(raw))] ^= 1 << uint(rng.Intn(8))
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic on corrupted log: %v", trial, r)
				}
			}()
			l2, err := Open(path)
			if err != nil {
				return // rejected outright: fine
			}
			defer l2.Close()
			l2.ScanForward(func(*Record) error { return nil })
		}()
	}
}
