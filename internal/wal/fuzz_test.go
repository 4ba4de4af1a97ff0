package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadRecord: the record decoder must never panic, never size anything
// by an unbounded length field, and never hand out range data outside the
// record — even when the bytes carry a correct CRC, which is the one check
// a hostile log passes for free.
func FuzzReadRecord(f *testing.F) {
	valid := encodeRecord(f, []Range{mkRange(1, 64, 'v', 40), mkRange(2, 0, 'w', 9)})
	f.Add(valid)
	hostile := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(hostile[12:], 0xFFFFFFFF) // ~160 GB of Range headers
	f.Add(hostile)
	f.Add(valid[:minRecordSize])
	const area = 1 << 14
	image := newMemImage(f, area)
	f.Fuzz(func(t *testing.T, in []byte) {
		data := append([]byte(nil), in...) // the engine's input is read-only
		if len(data) >= minRecordSize {
			binary.BigEndian.PutUint32(data[4:], uint32(len(data)))
			binary.BigEndian.PutUint32(data[len(data)-8:], uint32(len(data)))
			copy(data[len(data)-trailerSize:], data[16:24])
			reseal(data)
			// The same bytes as the first record of a log whose head expects
			// their sequence number: the scanner must stop where the
			// reference tail finder stops, having passed the same records.
			dev := &memDev{b: bytes.Clone(image)}
			copy(dev.b[areaOff(0):], data)
			st := statusBlock{gen: 2, areaSize: area, headSeq: binary.BigEndian.Uint64(data[16:])}
			if err := writeStatus(dev, 0, st); err != nil {
				t.Fatal(err)
			}
			checkTailOracle(t, dev)
		}
		var rec Record
		if !decodeRecord(&rec, data, 0, 0) {
			return
		}
		var n int
		for _, r := range rec.Ranges {
			n += rangeHdrSize + len(r.Data)
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
