package core

import (
	"bytes"
	"testing"

	"github.com/rvm-go/rvm/internal/mapping"
)

// The demand-paging backend must satisfy the same semantics as the
// copy-at-map backends: committed image at Map, recoverable writes, clean
// unmap/remap, and truncation writing through to the file without
// corrupting live mappings.

func TestDemandPagingBasicRoundTrip(t *testing.T) {
	v := newEnv(t, 1<<17, pageBytes(2), Options{Backend: mapping.DemandPaging})
	r := v.mapWhole()
	v.commit1(r, 100, []byte("demand-paged"))
	if !bytes.Equal(r.Data()[100:112], []byte("demand-paged")) {
		t.Fatal("write not visible")
	}
	v.reopen(Options{Backend: mapping.DemandPaging})
	r2 := v.mapWhole()
	if !bytes.Equal(r2.Data()[100:112], []byte("demand-paged")) {
		t.Fatal("recovery + demand-paged map lost data")
	}
}

func TestDemandPagingSeesCommittedImageLazily(t *testing.T) {
	// Write with a copy-backend engine, then map the same segment demand-
	// paged: the lazily-faulted pages must hold the committed image.
	v := newEnv(t, 1<<17, pageBytes(2), Options{})
	r := v.mapWhole()
	v.commit1(r, 0, []byte("written-by-copy-engine"))
	if err := v.eng.Truncate(); err != nil { // push into the segment file
		t.Fatal(err)
	}
	v.reopen(Options{Backend: mapping.DemandPaging})
	r2 := v.mapWhole()
	if !bytes.Equal(r2.Data()[:22], []byte("written-by-copy-engine")) {
		t.Fatalf("demand-paged view: %q", r2.Data()[:22])
	}
}

func TestDemandPagingWritesNeverReachFile(t *testing.T) {
	// The no-undo/redo invariant: uncommitted (and even committed-but-
	// untruncated) writes must not appear in the segment file.
	v := newEnv(t, 1<<17, pageBytes(2), Options{Backend: mapping.DemandPaging})
	r := v.mapWhole()
	tx, _ := v.eng.Begin(Restore)
	tx.Modify(r, 0, []byte("uncommitted-scribble"))
	// Read the segment file directly, bypassing the mapping.
	raw := make([]byte, 20)
	if err := r.seg.ReadAt(raw, 0); err != nil {
		t.Fatal(err)
	}
	for _, b := range raw {
		if b != 0 {
			t.Fatal("write leaked through the private mapping to the file")
		}
	}
	tx.Abort()
}

func TestDemandPagingAbortAndUnmap(t *testing.T) {
	v := newEnv(t, 1<<17, pageBytes(2), Options{Backend: mapping.DemandPaging})
	r := v.mapWhole()
	v.commit1(r, 0, []byte("base"))
	tx, _ := v.eng.Begin(Restore)
	tx.Modify(r, 0, []byte("zzzz"))
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Data()[:4], []byte("base")) {
		t.Fatal("abort failed on demand-paged region")
	}
	if err := v.eng.Unmap(r); err != nil {
		t.Fatal(err)
	}
	r2 := v.mapWhole()
	if !bytes.Equal(r2.Data()[:4], []byte("base")) {
		t.Fatal("remap after unmap lost data")
	}
}

func TestDemandPagingWithTruncationUnderLiveMapping(t *testing.T) {
	// Truncation writes committed pages to the file while the private
	// mapping is live; the mapping must keep showing the right bytes
	// (the pages it wrote were COWed by the very writes being truncated).
	v := newEnv(t, 1<<17, pageBytes(2), Options{Backend: mapping.DemandPaging, Incremental: true})
	r := v.mapWhole()
	for i := 0; i < 20; i++ {
		v.commit1(r, int64(i*64), []byte{byte(i + 1)})
	}
	if err := v.eng.TruncateIncremental(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if r.Data()[i*64] != byte(i+1) {
			t.Fatalf("mapping diverged after truncation at %d", i*64)
		}
	}
	// And the file now has the data (fresh demand mapping sees it).
	v.reopen(Options{Backend: mapping.DemandPaging})
	r2 := v.mapWhole()
	for i := 0; i < 20; i++ {
		if r2.Data()[i*64] != byte(i+1) {
			t.Fatalf("file missing truncated data at %d", i*64)
		}
	}
}

func TestDemandPagingModelSequence(t *testing.T) {
	// Reuse the randomized model against the demand-paged configuration.
	runEngineModelWithOpts(t, 7, Options{Backend: mapping.DemandPaging})
}
