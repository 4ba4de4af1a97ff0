// Package segloader implements the segment loader layered on RVM
// (paper §4.1): it keeps a persistent load map for recoverable storage so
// that applications name their regions once and remap them identically on
// every run.
//
// In the original RVM the loader's job was to map each segment at the same
// base address every time, "simplifying the use of absolute pointers in
// segments".  Go programs cannot embed machine pointers in persistent
// memory at all, so the loader guarantees the equivalent property for the
// representation Go code actually persists: a named region always maps the
// same (segment, offset, length) triple, making region-relative offsets —
// e.g. rds.Offset values — stable across runs.  Storing an offset in
// recoverable memory and following it next run is exactly the paper's
// absolute-pointer pattern.
package segloader

import (
	"bufio"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	rvm "github.com/rvm-go/rvm"
)

// Spec describes one named region in the load map.
type Spec struct {
	Name    string // unique region name; no tabs or newlines
	SegPath string // external data segment file
	SegID   uint64 // segment id (used when the loader creates the segment)
	SegOff  int64  // region start within the segment, page-aligned
	Length  int64  // region length, page-aligned
}

// Errors returned by the loader.
var (
	ErrExists   = errors.New("segloader: name already defined")
	ErrNotFound = errors.New("segloader: name not defined")
	ErrBadName  = errors.New("segloader: invalid region name")
)

const catalogHeader = "# RVM load map v1"

// Loader is an open load map bound to an RVM instance.
type Loader struct {
	db      *rvm.RVM
	path    string
	entries map[string]Spec
}

// Open reads (or initializes) the load map at path.
func Open(db *rvm.RVM, path string) (*Loader, error) {
	l := &Loader{db: db, path: path, entries: make(map[string]Spec)}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return l, nil
	}
	if err != nil {
		return nil, fmt.Errorf("segloader: open %s: %w", path, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	first := true
	for sc.Scan() {
		line := sc.Text()
		if first {
			first = false
			if line != catalogHeader {
				return nil, fmt.Errorf("segloader: %s: not a load map", path)
			}
			continue
		}
		if line == "" {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 5 {
			return nil, fmt.Errorf("segloader: %s: malformed line %q", path, line)
		}
		id, err1 := strconv.ParseUint(fields[2], 10, 64)
		off, err2 := strconv.ParseInt(fields[3], 10, 64)
		n, err3 := strconv.ParseInt(fields[4], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("segloader: %s: malformed numbers in %q", path, line)
		}
		l.entries[fields[0]] = Spec{
			Name: fields[0], SegPath: fields[1], SegID: id, SegOff: off, Length: n,
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("segloader: read %s: %w", path, err)
	}
	return l, nil
}

// persist makes entries the load map: it writes them to a temporary file,
// renames that over the map and syncs the directory so that the rename
// survives a crash.  Only then do Lookup and Load answer from entries; on
// error the loader keeps the map it had.
func (l *Loader) persist(entries map[string]Spec) error {
	tmp := l.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("segloader: write %s: %w", l.path, err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, catalogHeader)
	names := make([]string, 0, len(entries))
	for n := range entries {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := entries[n]
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\n", s.Name, s.SegPath, s.SegID, s.SegOff, s.Length)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, l.path); err != nil {
		return err
	}
	if err := syncDir(filepath.Dir(l.path)); err != nil {
		return err
	}
	l.entries = entries
	return nil
}

// syncDir makes a rename in dir durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// validName rejects names that would corrupt the catalog encoding.
func validName(n string) bool {
	return n != "" && !strings.ContainsAny(n, "\t\n")
}

// Define adds a named region to the load map.  The segment file must
// already exist (use Ensure to create it on demand).
func (l *Loader) Define(s Spec) error {
	if !validName(s.Name) {
		return ErrBadName
	}
	if _, ok := l.entries[s.Name]; ok {
		return fmt.Errorf("%w: %s", ErrExists, s.Name)
	}
	if strings.ContainsAny(s.SegPath, "\t\n") {
		return fmt.Errorf("segloader: invalid segment path %q", s.SegPath)
	}
	entries := maps.Clone(l.entries)
	entries[s.Name] = s
	return l.persist(entries)
}

// Ensure defines the region if absent, creating the segment file when it
// does not exist.  It is idempotent and the normal way applications
// bootstrap their recoverable storage.
func (l *Loader) Ensure(s Spec) error {
	if existing, ok := l.entries[s.Name]; ok {
		if existing.SegPath != s.SegPath || existing.SegOff != s.SegOff || existing.Length != s.Length {
			return fmt.Errorf("segloader: %s redefined with different spec", s.Name)
		}
		return nil
	}
	if _, err := os.Stat(s.SegPath); os.IsNotExist(err) {
		if err := rvm.CreateSegment(s.SegPath, s.SegID, s.SegOff+s.Length); err != nil {
			return err
		}
	}
	return l.Define(s)
}

// Load maps the named region and returns it.  The mapping is identical on
// every run, so offsets stored inside the region remain meaningful.
func (l *Loader) Load(name string) (*rvm.Region, error) {
	s, ok := l.entries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return l.db.Map(s.SegPath, s.SegOff, s.Length)
}

// LoadAll maps every region in the load map, returning them by name.  On
// error, regions mapped so far are unmapped.
func (l *Loader) LoadAll() (map[string]*rvm.Region, error) {
	out := make(map[string]*rvm.Region, len(l.entries))
	for name := range l.entries {
		r, err := l.Load(name)
		if err != nil {
			for _, mapped := range out {
				l.db.Unmap(mapped)
			}
			return nil, fmt.Errorf("segloader: loading %s: %w", name, err)
		}
		out[name] = r
	}
	return out, nil
}

// Remove deletes a name from the load map.  The segment file is untouched.
func (l *Loader) Remove(name string) error {
	if _, ok := l.entries[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	entries := maps.Clone(l.entries)
	delete(entries, name)
	return l.persist(entries)
}

// Lookup returns the spec for a name.
func (l *Loader) Lookup(name string) (Spec, bool) {
	s, ok := l.entries[name]
	return s, ok
}

// List returns all specs sorted by name.
func (l *Loader) List() []Spec {
	out := make([]Spec, 0, len(l.entries))
	for _, s := range l.entries {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
