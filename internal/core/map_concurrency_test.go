package core

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// TestMapConcurrentWithCommits is the regression test for Map holding the
// engine mutex across the segment-dictionary fsync and the image copy:
// commits on an existing region must proceed while new segments are being
// mapped, and every dictionary entry must still be durable before its
// region can carry committed data — proven by crash-reopening and letting
// recovery resolve every segment the log references.  Snapshot and Query,
// which read the regions slice and the last fault without the truncation
// claim, run throughout, and one fresh region is unmapped before the
// crash; under -race this checks the claim's owners.
func TestMapConcurrentWithCommits(t *testing.T) {
	v := newEnv(t, 1<<20, pageBytes(2), Options{})
	r := v.mapWhole()

	const extra = 4
	stop := make(chan struct{})
	var committer sync.WaitGroup
	committer.Add(2)
	go func() {
		defer committer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v.commit1(r, int64(i%64)*8, []byte("busywork"))
		}
	}()
	go func() {
		defer committer.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := v.eng.Snapshot(); err != nil {
				t.Error(err)
				return
			}
			if _, err := v.eng.Query(nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	regions := make([]*Region, extra)
	var mappers sync.WaitGroup
	for i := 0; i < extra; i++ {
		path := filepath.Join(v.dir, fmt.Sprintf("extra%d.rvm", i))
		if err := CreateSegment(path, uint64(i+2), pageBytes(1)); err != nil {
			t.Fatal(err)
		}
		mappers.Add(1)
		go func(i int, path string) {
			defer mappers.Done()
			reg, err := v.eng.Map(path, 0, pageBytes(1))
			if err != nil {
				t.Errorf("Map %s: %v", path, err)
				return
			}
			regions[i] = reg
		}(i, path)
	}
	mappers.Wait()
	close(stop)
	committer.Wait()

	// Commit one transaction into every fresh region so the log
	// references every new segment ID.
	for i, reg := range regions {
		if reg == nil {
			t.Fatal("a Map failed")
		}
		v.commit1(reg, 0, []byte{byte('A' + i)})
	}
	// The last region is unmapped: its page goes to its segment, and the
	// reopened engine maps it from there.
	if err := v.eng.Unmap(regions[extra-1]); err != nil {
		t.Fatal(err)
	}

	// Crash and recover: the dictionary must resolve every segment the
	// log mentions, or recovery fails here.
	v.reopen(Options{})
	for i := 0; i < extra; i++ {
		path := filepath.Join(v.dir, fmt.Sprintf("extra%d.rvm", i))
		reg, err := v.eng.Map(path, 0, pageBytes(1))
		if err != nil {
			t.Fatal(err)
		}
		if got := reg.Data()[0]; got != byte('A'+i) {
			t.Fatalf("segment %d recovered %q, want %q", i+2, got, byte('A'+i))
		}
	}
}

// TestMapOverlapRace: two Maps of the same range racing each other must
// resolve exactly as they would serially — one wins, the other reports
// ErrOverlap — regardless of how their unlocked windows interleave.
func TestMapOverlapRace(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{})

	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := v.eng.Map(v.segPath, 0, pageBytes(2))
			errs <- err
		}()
	}
	var wins, overlaps int
	for i := 0; i < 2; i++ {
		switch err := <-errs; {
		case err == nil:
			wins++
		case errors.Is(err, ErrOverlap):
			overlaps++
		default:
			t.Fatal(err)
		}
	}
	if wins != 1 || overlaps != 1 {
		t.Fatalf("wins=%d overlaps=%d, want exactly one of each", wins, overlaps)
	}
}

// TestMapPublishesCommittedImage: a Map racing commits on a neighbouring
// region of the same segment must still come up with that range's
// committed image (the copy happens outside the engine lock; the
// truncation slot keeps it sound).
func TestMapPublishesCommittedImage(t *testing.T) {
	v := newEnv(t, 1<<20, pageBytes(4), Options{})
	r, err := v.eng.Map(v.segPath, 0, pageBytes(1))
	if err != nil {
		t.Fatal(err)
	}
	v.commit1(r, 0, []byte("page-zero"))

	stop := make(chan struct{})
	var committer sync.WaitGroup
	committer.Add(1)
	go func() {
		defer committer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v.commit1(r, 64+int64(i%32), []byte("z"))
		}
	}()
	r2, err := v.eng.Map(v.segPath, pageBytes(1), pageBytes(1))
	close(stop)
	committer.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// Page 1 was never written: its committed image is zeroes.
	if !bytes.Equal(r2.Data()[:16], make([]byte, 16)) {
		t.Fatalf("fresh range not the committed image: %q", r2.Data()[:16])
	}
}
