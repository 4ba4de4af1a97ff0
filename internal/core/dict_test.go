package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDictPersistAtomicDurable: persist must leave no temp file behind, the
// installed file must round-trip, and the directory fsync path must run
// without error (the rename alone is not durable until the directory entry
// is synced).
func TestDictPersistAtomicDurable(t *testing.T) {
	dir := t.TempDir()
	d := &dict{path: filepath.Join(dir, "log.segs"), entries: make(map[uint64]string)}
	if err := d.set(7, "/data/seg7.rvm"); err != nil {
		t.Fatal(err)
	}
	if err := d.set(1, "seg1.rvm"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(d.path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind after persist: %v", err)
	}

	got, err := loadDict(d.path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.entries) != 2 || got.entries[7] != "/data/seg7.rvm" || got.entries[1] != "seg1.rvm" {
		t.Fatalf("reloaded entries = %v", got.entries)
	}

	// Updating an entry replaces the file atomically.
	if err := d.set(7, "/data/moved.rvm"); err != nil {
		t.Fatal(err)
	}
	got, err = loadDict(d.path)
	if err != nil {
		t.Fatal(err)
	}
	if got.entries[7] != "/data/moved.rvm" {
		t.Fatalf("updated entry = %q", got.entries[7])
	}
}

// TestSyncDir covers the helper directly: a real directory syncs cleanly, a
// missing one reports the error instead of pretending durability.
func TestSyncDir(t *testing.T) {
	if err := syncDir(t.TempDir()); err != nil {
		t.Fatalf("syncDir on real directory: %v", err)
	}
	if err := syncDir(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("syncDir on missing directory succeeded")
	}
}

// TestOneLogLayoutUnchanged: a store's dictionary carries no shard-count
// line and no log file appears beside its own, so its files are laid out as
// they were before logs could be sharded.
func TestOneLogLayoutUnchanged(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{})
	r := v.mapWhole()
	v.commit1(r, 0, []byte("plain"))
	if err := v.eng.Close(); err != nil {
		t.Fatal(err)
	}
	v.eng = nil
	data, err := os.ReadFile(dictPath(v.logPath))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("#shards")) {
		t.Fatal("the dictionary contains a shard-count line")
	}
	if _, err := os.Stat(v.logPath + ".shard1"); !os.IsNotExist(err) {
		t.Fatal("the engine created a second log file")
	}
}

// TestShardedStoreRefused: a dictionary recording a store sharded over
// several logs, as earlier versions wrote it, makes Open fail with an error
// naming the count and the other logs.  It fails before the log is opened
// or anything is written: the log, segment and dictionary bytes stay as
// they were, live record included.
func TestShardedStoreRefused(t *testing.T) {
	v := newEnv(t, 1<<16, pageBytes(2), Options{TruncateThreshold: -1})
	v.commit1(v.mapWhole(), 0, []byte("live in the first log"))
	v.eng.closeFiles() // a crash: the record stays live
	v.eng = nil
	dict := dictPath(v.logPath)
	data, err := os.ReadFile(dict)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Replace(data, []byte(dictHeader+"\n"), []byte(dictHeader+"\n#shards\t3\n"), 1)
	if err := os.WriteFile(dict, data, 0o644); err != nil {
		t.Fatal(err)
	}
	files := []string{v.logPath, v.segPath, dict}
	read := func() [][]byte {
		var out [][]byte
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
		return out
	}
	before := read()
	_, err = Open(Options{LogPath: v.logPath})
	if err == nil {
		t.Fatal("Open accepted a store sharded over three logs")
	}
	for _, want := range []string{"3 logs", v.logPath + ".shard1", ".shard2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	for i, b := range read() {
		if !bytes.Equal(b, before[i]) {
			t.Errorf("%s changed under a refused Open", files[i])
		}
	}
	if _, err := os.Stat(v.logPath + ".shard1"); !os.IsNotExist(err) {
		t.Error("a refused Open created a log")
	}
}
