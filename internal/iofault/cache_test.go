package iofault

import (
	"bytes"
	"errors"
	"testing"
)

// machineOf returns two Caches, joined, over 4 KiB Mems holding 0xEE.
func machineOf(budget int64) (log, seg *Cache, logMem, segMem *Mem) {
	logMem, segMem = NewMem(bytes.Repeat([]byte{0xEE}, 4096)), NewMem(bytes.Repeat([]byte{0xEE}, 4096))
	log = NewCache(logMem, budget)
	return log, log.Join(segMem), logMem, segMem
}

func fill(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }

// TestCacheKeepAllTearsTheCrossingWrite: with every unsynced sector kept,
// a crash leaves what a device that applied writes at once would hold —
// every write before the budget ran out, the crossing write's first bytes
// and nothing of later writes, whichever Cache of the machine they hit.
func TestCacheKeepAllTearsTheCrossingWrite(t *testing.T) {
	log, seg, logMem, segMem := machineOf(1000)
	if _, err := log.WriteAt(fill(600, 1), 100); err != nil {
		t.Fatal(err)
	}
	if n, err := seg.WriteAt(fill(700, 2), 1000); n != 400 || !errors.Is(err, ErrCrashed) {
		t.Fatalf("crossing write landed %d bytes (%v), want 400 and ErrCrashed", n, err)
	}
	if _, err := log.WriteAt(fill(10, 3), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after the crash: %v", err)
	}
	if err := log.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync after the crash: %v", err)
	}
	got := make([]byte, 4096)
	if _, err := seg.ReadAt(got, 0); err != nil || !bytes.Equal(got[1000:1400], fill(400, 2)) {
		t.Fatalf("reads before Crash do not see the cache (%v)", err)
	}
	if err := log.Crash(KeepAll); err != nil {
		t.Fatal(err)
	}
	wantLog, wantSeg := fill(4096, 0xEE), fill(4096, 0xEE)
	copy(wantLog[100:], fill(600, 1))
	copy(wantSeg[1000:], fill(400, 2))
	if !bytes.Equal(logMem.Bytes(), wantLog) || !bytes.Equal(segMem.Bytes(), wantSeg) {
		t.Fatal("KeepAll image differs from the writes before the crash")
	}
	if _, err := seg.ReadAt(got, 0); err != nil || !bytes.Equal(got, wantSeg) {
		t.Fatalf("reads after the crash: %v", err)
	}
}

// TestCacheKeepsOnlySyncedSectors: DropAll keeps exactly what each
// device's last Sync covered, and a Sync covers its own device only.
func TestCacheKeepsOnlySyncedSectors(t *testing.T) {
	log, seg, logMem, segMem := machineOf(-1)
	log.WriteAt(fill(512, 1), 512)
	seg.WriteAt(fill(512, 2), 0)
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	log.WriteAt(fill(5, 3), 520)
	if err := seg.Crash(DropAll); err != nil {
		t.Fatal(err)
	}
	want := fill(4096, 0xEE)
	copy(want[512:], fill(512, 1))
	if !bytes.Equal(logMem.Bytes(), want) || !bytes.Equal(segMem.Bytes(), fill(4096, 0xEE)) {
		t.Fatal("DropAll kept an unsynced sector or lost a synced one")
	}
}

// TestCacheSeededCrash: a seeded crash keeps whole sectors, the same ones
// for the same seed; CrashKeeping keeps exactly the sectors named.
func TestCacheSeededCrash(t *testing.T) {
	image := func(crash func(*Cache) error) []byte {
		c, _, m, _ := machineOf(-1)
		for s := int64(0); s < 8; s++ {
			c.WriteAt(fill(SectorSize, byte(s)), s*SectorSize)
		}
		if err := crash(c); err != nil {
			t.Fatal(err)
		}
		return m.Bytes()
	}
	seeded := func(c *Cache) error { return c.Crash(7) }
	a, b := image(seeded), image(seeded)
	if !bytes.Equal(a, b) {
		t.Fatal("one seed, two images")
	}
	for s := 0; s < 8; s++ {
		if sec := a[s*SectorSize : (s+1)*SectorSize]; !bytes.Equal(sec, fill(SectorSize, byte(s))) && !bytes.Equal(sec, fill(SectorSize, 0xEE)) {
			t.Fatalf("sector %d survived in part", s)
		}
	}
	odd := image(func(c *Cache) error {
		return c.CrashKeeping(func(_ *Cache, s int64) bool { return s%2 == 1 })
	})
	for s := 0; s < 8; s++ {
		want := fill(SectorSize, 0xEE)
		if s%2 == 1 {
			want = fill(SectorSize, byte(s))
		}
		if !bytes.Equal(odd[s*SectorSize:(s+1)*SectorSize], want) {
			t.Fatalf("CrashKeeping: sector %d wrong", s)
		}
	}
}

// TestInjectorHookAndByteCounts: the hook sees every operation before the
// device does, and the counters add up the bytes.
func TestInjectorHookAndByteCounts(t *testing.T) {
	m := newMemDevice(64)
	in := NewInjector(m, 1)
	var seen []Op
	in.SetHook(func(op Op, off int64, n int) {
		seen = append(seen, op)
		if op == OpWrite && m.Bytes()[off] != 0 {
			t.Error("the hook ran after the write")
		}
	})
	in.WriteAt([]byte("abc"), 3)
	in.ReadAt(make([]byte, 10), 0)
	in.Sync()
	if st := in.Stats(); st.WriteBytes != 3 || st.ReadBytes != 10 || st.Syncs != 1 {
		t.Fatalf("stats %+v", st)
	}
	if len(seen) != 3 || seen[0] != OpWrite || seen[1] != OpRead || seen[2] != OpSync {
		t.Fatalf("hook saw %v", seen)
	}
}
