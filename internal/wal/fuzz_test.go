package wal

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/rvm-go/rvm/internal/iofault"
)

// FuzzReadRecord: the record decoder must never panic, never size anything
// by a length field the record's own extent does not bound, never hand out
// range data outside the record, and never a range that ends past
// MaxInt64, where no segment can hold it — even when the bytes carry a
// correct CRC, which is the one check a hostile log passes for free.
func FuzzReadRecord(f *testing.F) {
	valid := encodeRecord(f, []Range{mkRange(1, 64, 'v', 40), mkRange(2, 0, 'w', 9)})
	f.Add(valid)
	long := bytes.Clone(valid)
	binary.BigEndian.PutUint16(long[headerSize:], 0xFFF0) // a range running past the record
	f.Add(long)
	f.Add(valid[:minRecordSize])
	f.Add(encodeRecord(f, []Range{mkRange(1, math.MaxUint64-9, 'o', 20)}))
	f.Add(encodeRecord(f, []Range{mkRange(1<<16, 1<<32, 'w', 24), mkRange(3, 8, 's', 8)}))
	checked := bytes.Clone(valid)
	checked[6] = 1 // a check byte that is not zero
	f.Add(checked)
	const area = 1 << 14
	image := newMemImage(f, area)
	f.Fuzz(func(t *testing.T, in []byte) {
		data := append([]byte(nil), in...) // the engine's input is read-only
		if len(data) >= minRecordSize {
			binary.BigEndian.PutUint32(data[0:], uint32(len(data)))
			reseal(data, 1)
			// The same bytes as the first record of a log whose head expects
			// sequence number 1: the scanner must stop where the reference
			// tail finder stops, having passed the same records.
			dev := iofault.NewMem(image)
			dev.WriteAt(data[:min(len(data), len(image)-int(areaOff(0)))], areaOff(0))
			if err := writeStatus(dev, 0, statusBlock{gen: 2, areaSize: area, headSeq: 1}); err != nil {
				t.Fatal(err)
			}
			checkTailOracle(t, dev)
		}
		var rec Record
		if !decodeRecord(&rec, data, 0, 1) {
			return
		}
		var n int
		for _, r := range rec.Ranges {
			n += int(RangeLen(r.Seg, r.Off, int64(len(r.Data))))
			if r.Off > math.MaxInt64-uint64(len(r.Data)) {
				t.Fatalf("range [%d,+%d) decoded: it ends past MaxInt64", r.Off, len(r.Data))
			}
		}
		if n > len(data)-minRecordSize {
			t.Fatalf("%d bytes of ranges decoded from a %d-byte record", n, len(data))
		}
	})
}

// FuzzOpenArbitraryFile: Open and both scans must never panic on
// arbitrary file contents — a log can be handed any corruption by a dying
// disk.  Seeds include a valid log prefix, truncations, and garbage.
func FuzzOpenArbitraryFile(f *testing.F) {
	// Seed with a real log's bytes.
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.log")
	if err := Create(path, 1<<14); err != nil {
		f.Fatal(err)
	}
	l, err := Open(path)
	if err != nil {
		f.Fatal(err)
	}
	l.Append(1, 0, []Range{{Seg: 1, Off: 8, Data: []byte("seed-data")}})
	l.Force()
	l.Close()
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("not a log at all"))
	f.Add(make([]byte, 1<<14))

	n := 0
	f.Fuzz(func(t *testing.T, data []byte) {
		n++
		p := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		l, err := Open(p)
		if err != nil {
			return // rejection is always acceptable
		}
		defer l.Close()
		l.ScanForward(func(*Record) error { return nil })
		l.Append(99, 0, []Range{{Seg: 1, Off: 0, Data: []byte("post")}})
	})
}
