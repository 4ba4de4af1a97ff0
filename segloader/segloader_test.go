package segloader

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	rvm "github.com/rvm-go/rvm"
)

func page(n int) int64 { return int64(n) * int64(rvm.PageSize) }

func openDB(t *testing.T, dir string) *rvm.RVM {
	t.Helper()
	logPath := filepath.Join(dir, "l.log")
	if err := rvm.CreateLog(logPath, 1<<17); err != nil {
		t.Fatal(err)
	}
	db, err := rvm.Open(rvm.Options{LogPath: logPath})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func reopenDB(t *testing.T, dir string) *rvm.RVM {
	t.Helper()
	db, err := rvm.Open(rvm.Options{LogPath: filepath.Join(dir, "l.log")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestEnsureCreatesSegmentAndPersists(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir)
	l, err := Open(db, filepath.Join(dir, "loadmap"))
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Name: "accounts", SegPath: filepath.Join(dir, "acct.seg"), SegID: 7, SegOff: 0, Length: page(2)}
	if err := l.Ensure(spec); err != nil {
		t.Fatal(err)
	}
	if err := l.Ensure(spec); err != nil { // idempotent
		t.Fatal(err)
	}
	reg, err := l.Load("accounts")
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin(rvm.Restore)
	tx.Modify(reg, 10, []byte("named"))
	if err := tx.Commit(rvm.Flush); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process loads by name alone and sees the data.
	db2 := reopenDB(t, dir)
	l2, err := Open(db2, filepath.Join(dir, "loadmap"))
	if err != nil {
		t.Fatal(err)
	}
	reg2, err := l2.Load("accounts")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reg2.Data()[10:15], []byte("named")) {
		t.Fatal("named region lost data")
	}
	got, ok := l2.Lookup("accounts")
	if !ok || got.SegID != 7 || got.Length != page(2) {
		t.Fatalf("lookup: %+v ok=%v", got, ok)
	}
}

func TestEnsureRejectsRedefinition(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir)
	l, _ := Open(db, filepath.Join(dir, "loadmap"))
	spec := Spec{Name: "x", SegPath: filepath.Join(dir, "x.seg"), SegID: 1, Length: page(1)}
	if err := l.Ensure(spec); err != nil {
		t.Fatal(err)
	}
	spec.Length = page(2)
	if err := l.Ensure(spec); err == nil {
		t.Fatal("conflicting redefinition accepted")
	}
}

func TestDefineValidation(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir)
	l, _ := Open(db, filepath.Join(dir, "loadmap"))
	if err := l.Define(Spec{Name: ""}); !errors.Is(err, ErrBadName) {
		t.Fatalf("empty name: %v", err)
	}
	if err := l.Define(Spec{Name: "a\tb"}); !errors.Is(err, ErrBadName) {
		t.Fatalf("tab name: %v", err)
	}
	good := Spec{Name: "ok", SegPath: filepath.Join(dir, "ok.seg"), SegID: 1, Length: page(1)}
	if err := rvm.CreateSegment(good.SegPath, 1, page(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Define(good); err != nil {
		t.Fatal(err)
	}
	if err := l.Define(good); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate: %v", err)
	}
}

func TestLoadAllAndRemove(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir)
	l, _ := Open(db, filepath.Join(dir, "loadmap"))
	for i, name := range []string{"a", "b", "c"} {
		err := l.Ensure(Spec{
			Name:    name,
			SegPath: filepath.Join(dir, name+".seg"),
			SegID:   uint64(i + 1),
			Length:  page(1),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	regs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 3 {
		t.Fatalf("loaded %d", len(regs))
	}
	for _, r := range regs {
		if err := db.Unmap(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load("b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("load removed: %v", err)
	}
	if got := l.List(); len(got) != 2 || got[0].Name != "a" || got[1].Name != "c" {
		t.Fatalf("list: %+v", got)
	}
	if err := l.Remove("b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestOpenRejectsGarbageCatalog(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir)
	bad := filepath.Join(dir, "badmap")
	if err := writeFile(bad, "not a load map\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(db, bad); err == nil {
		t.Fatal("garbage catalog accepted")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestFailedWriteKeepsTheMap: the loader answers from the map the disk
// holds.  With the load map's directory gone every write fails; a failed
// Define must leave its name out and a failed Remove must keep its name.
func TestFailedWriteKeepsTheMap(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir)
	sub := filepath.Join(dir, "maps")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	l, err := Open(db, filepath.Join(sub, "loadmap"))
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "s.seg")
	if err := rvm.CreateSegment(seg, 1, page(2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Define(Spec{Name: "a", SegPath: seg, SegID: 1, Length: page(1)}); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(sub); err != nil {
		t.Fatal(err)
	}
	if err := l.Define(Spec{Name: "b", SegPath: seg, SegID: 1, SegOff: page(1), Length: page(1)}); err == nil {
		t.Fatal("Define succeeded with the load map's directory gone")
	}
	if _, ok := l.Lookup("b"); ok {
		t.Error("failed Define left b in the map")
	}
	if err := l.Remove("a"); err == nil {
		t.Fatal("Remove succeeded with the load map's directory gone")
	}
	if _, ok := l.Lookup("a"); !ok {
		t.Error("failed Remove dropped a from the map")
	}
}
