package segment

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/rvm-go/rvm/internal/mapping"
)

func createTemp(t *testing.T, id uint64, length int64) (*Segment, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg.rvm")
	s, err := Create(path, id, length)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, path
}

func TestCreateOpenRoundTrip(t *testing.T) {
	s, path := createTemp(t, 77, 3*int64(mapping.PageSize))
	if s.ID() != 77 {
		t.Fatalf("id = %d", s.ID())
	}
	if s.Length() != 3*int64(mapping.PageSize) {
		t.Fatalf("length = %d", s.Length())
	}
	data := []byte("hello recoverable world")
	if err := s.WriteAt(data, 100); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.ID() != 77 || s2.Length() != 3*int64(mapping.PageSize) {
		t.Fatalf("reopened header wrong: id=%d len=%d", s2.ID(), s2.Length())
	}
	got := make([]byte, len(data))
	if err := s2.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q want %q", got, data)
	}
}

func TestCreateRoundsUpLength(t *testing.T) {
	s, _ := createTemp(t, 1, 100)
	if s.Length() != int64(mapping.PageSize) {
		t.Fatalf("length %d not rounded to page", s.Length())
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	_, path := createTemp(t, 1, 1)
	if _, err := Create(path, 2, 1); err == nil {
		t.Fatal("Create over existing file succeeded")
	}
}

func TestCreateRejectsBadLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.rvm")
	for _, n := range []int64{0, -5} {
		if _, err := Create(path, 1, n); err == nil {
			t.Fatalf("Create with length %d succeeded", n)
		}
	}
}

func TestZeroFilled(t *testing.T) {
	s, _ := createTemp(t, 1, int64(mapping.PageSize))
	buf := make([]byte, mapping.PageSize)
	if err := s.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %d, want 0", i, b)
		}
	}
}

func TestRangeChecks(t *testing.T) {
	s, _ := createTemp(t, 1, int64(mapping.PageSize))
	n := s.Length()
	buf := make([]byte, 10)
	if err := s.ReadAt(buf, n-5); err == nil {
		t.Error("read past end succeeded")
	}
	if err := s.WriteAt(buf, n-5); err == nil {
		t.Error("write past end succeeded")
	}
	if err := s.ReadAt(buf, -1); err == nil {
		t.Error("negative read offset succeeded")
	}
	if err := s.WriteAt(nil, n); err != nil {
		t.Errorf("zero-length write at end failed: %v", err)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, bytes.Repeat([]byte{0xAB}, 8192), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path)
	if !errors.Is(err, ErrNotSegment) {
		t.Fatalf("got %v, want ErrNotSegment", err)
	}
}

func TestOpenRejectsCorruptHeader(t *testing.T) {
	_, path := createTemp(t, 9, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[10] ^= 0xFF // flip a bit inside the id field
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrNotSegment) {
		t.Fatalf("got %v, want ErrNotSegment", err)
	}
}

func TestOpenRejectsTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short")
	if err := os.WriteFile(path, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrNotSegment) {
		t.Fatalf("got %v, want ErrNotSegment", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	s, _ := createTemp(t, 1, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
