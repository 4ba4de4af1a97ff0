// Package segment implements RVM external data segments.
//
// An external data segment is the backing store for recoverable memory
// (paper §3.2, §4.1).  It is completely independent of VM swap: crash
// recovery relies only on its contents, so an uncommitted dirty page can be
// discarded by the VM subsystem without loss of correctness.  A segment may
// live in a file or a raw partition; the distinction is invisible to
// programs, and here both are ordinary files opened for synchronous
// durability via fsync.
//
// Layout on disk:
//
//	page 0:  header (magic, version, segment id, data length, CRC)
//	page 1…: data bytes, addressed from 0 in "segment space"
//
// Log records reference (segment id, offset-in-data-space, length), so the
// header page is never addressed by transactions.
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"github.com/rvm-go/rvm/internal/iofault"
	"github.com/rvm-go/rvm/internal/mapping"
)

const (
	// Magic identifies an RVM external data segment file.
	Magic = 0x52564d53 // "RVMS"
	// Version is the on-disk format version.
	Version = 1

	headerSize = 4 + 4 + 8 + 8 + 4 // magic, version, id, length, crc
)

// ErrNotSegment is returned when a file lacks a valid segment header.
var ErrNotSegment = errors.New("segment: file is not an RVM external data segment")

// Device is the storage a Segment runs on — the same iofault seam the WAL
// uses, so fault tests can reach segment writes too.
type Device = iofault.Device

// DeviceWrap intercepts the file backing a segment as it is opened,
// returning the Device all subsequent reads, writes, and syncs go through.
// Tests wrap fault injectors; nil means the bare file.
type DeviceWrap func(path string, f *os.File) Device

// Segment is an open external data segment.
type Segment struct {
	dev    Device
	f      *os.File // backing file, which MapPrivate maps
	path   string
	id     uint64
	length int64 // data bytes, excluding the header page
}

// headerBytes serializes the header for id/length.
func headerBytes(id uint64, length int64) []byte {
	b := make([]byte, headerSize)
	binary.BigEndian.PutUint32(b[0:], Magic)
	binary.BigEndian.PutUint32(b[4:], Version)
	binary.BigEndian.PutUint64(b[8:], id)
	binary.BigEndian.PutUint64(b[16:], uint64(length))
	binary.BigEndian.PutUint32(b[24:], crc32.ChecksumIEEE(b[:24]))
	return b
}

// Create creates a new external data segment at path with the given id and
// data length (rounded up to a whole number of pages), zero-filled.  It
// fails if the file already exists.
func Create(path string, id uint64, length int64) (*Segment, error) {
	if length <= 0 {
		return nil, fmt.Errorf("segment: invalid length %d", length)
	}
	length = mapping.RoundUp(length)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("segment: create %s: %w", path, err)
	}
	s := &Segment{dev: f, f: f, path: path, id: id, length: length}
	if _, err := f.WriteAt(headerBytes(id, length), 0); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("segment: write header: %w", err)
	}
	if err := f.Truncate(int64(mapping.PageSize) + length); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("segment: size data area: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("segment: sync: %w", err)
	}
	return s, nil
}

// Open opens an existing external data segment and validates its header.
func Open(path string) (*Segment, error) { return OpenWith(path, nil) }

// OpenWith opens a segment like Open, routing all storage operations
// through wrap's Device when wrap is non-nil (tests inject fault devices).
func OpenWith(path string, wrap DeviceWrap) (*Segment, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("segment: open %s: %w", path, err)
	}
	var dev Device = f
	if wrap != nil {
		dev = wrap(path, f)
	}
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(io.NewSectionReader(dev, 0, headerSize), hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %s: short header", ErrNotSegment, path)
	}
	if binary.BigEndian.Uint32(hdr[0:]) != Magic {
		f.Close()
		return nil, fmt.Errorf("%w: %s: bad magic", ErrNotSegment, path)
	}
	if v := binary.BigEndian.Uint32(hdr[4:]); v != Version {
		f.Close()
		return nil, fmt.Errorf("segment: %s: unsupported version %d", path, v)
	}
	if crc32.ChecksumIEEE(hdr[:24]) != binary.BigEndian.Uint32(hdr[24:]) {
		f.Close()
		return nil, fmt.Errorf("%w: %s: header checksum mismatch", ErrNotSegment, path)
	}
	length := int64(binary.BigEndian.Uint64(hdr[16:]))
	// A valid header over a short file means the data area was truncated;
	// serving it would return phantom zeroes or errors mid-transaction.
	if fi, err := f.Stat(); err == nil {
		if length < 0 || fi.Size() < int64(mapping.PageSize)+length {
			f.Close()
			return nil, fmt.Errorf("%w: %s: header claims %d data bytes but file holds %d",
				ErrNotSegment, path, length, fi.Size())
		}
	}
	s := &Segment{
		dev:    dev,
		f:      f,
		path:   path,
		id:     binary.BigEndian.Uint64(hdr[8:]),
		length: length,
	}
	return s, nil
}

// ID returns the segment's stable identifier.
func (s *Segment) ID() uint64 { return s.id }

// Length returns the data length in bytes (excluding the header page).
func (s *Segment) Length() int64 { return s.length }

// Path returns the file path backing the segment.
func (s *Segment) Path() string { return s.path }

// dataOffset converts a segment-space offset to a file offset.
func dataOffset(off int64) int64 { return int64(mapping.PageSize) + off }

// checkRange validates a segment-space byte range.
func (s *Segment) checkRange(off, n int64) error {
	if off < 0 || n < 0 || off+n > s.length {
		return fmt.Errorf("segment %d: range [%d,+%d) outside data length %d", s.id, off, n, s.length)
	}
	return nil
}

// ReadAt fills p from segment-space offset off.
func (s *Segment) ReadAt(p []byte, off int64) error {
	if err := s.checkRange(off, int64(len(p))); err != nil {
		return err
	}
	if _, err := s.dev.ReadAt(p, dataOffset(off)); err != nil {
		return fmt.Errorf("segment %d: read at %d: %w", s.id, off, err)
	}
	return nil
}

// WriteAt writes p at segment-space offset off.  The write is not durable
// until Sync returns.
func (s *Segment) WriteAt(p []byte, off int64) error {
	if err := s.checkRange(off, int64(len(p))); err != nil {
		return err
	}
	if _, err := s.dev.WriteAt(p, dataOffset(off)); err != nil {
		return fmt.Errorf("segment %d: write at %d: %w", s.id, off, err)
	}
	return nil
}

// MapPrivate returns a copy-on-write demand-paged mapping of the
// segment-space range [off, off+n).  Application writes to the returned
// buffer never reach the file; see mapping.NewFileMapped.
func (s *Segment) MapPrivate(off, n int64) (*mapping.Buffer, error) {
	if err := s.checkRange(off, n); err != nil {
		return nil, err
	}
	return mapping.NewFileMapped(s.f.Fd(), dataOffset(off), n)
}

// Sync forces all previous writes to stable storage.
func (s *Segment) Sync() error {
	if err := s.dev.Sync(); err != nil {
		return fmt.Errorf("segment %d: sync: %w", s.id, err)
	}
	return nil
}

// Close releases the underlying device.  It does not sync; call Sync first
// if durability is required.
func (s *Segment) Close() error {
	if s.dev == nil {
		return nil
	}
	err := s.dev.Close()
	s.dev = nil
	s.f = nil
	return err
}
