package core

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// dict is the persistent segment dictionary: it maps the segment IDs that
// appear in log records to the file paths of their external data segments,
// so crash recovery can locate every segment the log references.  The real
// RVM kept an equivalent mapping in its log status area; a sidecar file
// (<log>.segs) keeps the log format simple here.
//
// The dictionary is written atomically (temp file + fsync + rename) and is
// always persisted *before* the first log record referencing a new segment,
// so a crash can never leave the log mentioning an unknown ID.
//
// The durable write runs with no mutex held (fsync under a lock is the
// discipline violation the locksync analyzer exists for); a claim (busy)
// serializes writers, and a new entry becomes visible to lookup — and to
// other set callers' already-recorded checks — only after it is durable,
// so a concurrent set of the same ID can never skip the persist and
// return before the entry is on disk.
type dict struct {
	path string

	mu      sync.Mutex
	cond    *sync.Cond // lazily created; signalled when a persist finishes
	busy    bool       // persist claim
	entries map[uint64]string
}

const dictHeader = "# RVM segment dictionary v1"

// SegmentDictionary returns the segment dictionary of the store whose log
// is at logPath, segment ID to file path, exactly as Open loads it: a store
// Open refuses is refused here too.  Offline tools read it.
func SegmentDictionary(logPath string) (map[uint64]string, error) {
	d, err := loadDict(dictPath(logPath))
	if err != nil {
		return nil, err
	}
	return d.entries, nil
}

// loadDict reads the dictionary at path; a missing file is an empty dict.
func loadDict(path string) (*dict, error) {
	d := &dict{path: path, entries: make(map[uint64]string)}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return d, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: open segment dictionary: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	first := true
	for sc.Scan() {
		line := sc.Text()
		if first {
			first = false
			if line != dictHeader {
				return nil, fmt.Errorf("core: %s: not a segment dictionary", path)
			}
			continue
		}
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "#shards\t"); ok {
			// Earlier versions could split an engine's log N ways and
			// recorded N here.  Such a store is refused, not misread as its
			// first log alone.
			n, err := strconv.Atoi(rest)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("core: %s: bad shard count %q", path, rest)
			}
			if n > 1 {
				logPath := strings.TrimSuffix(path, ".segs")
				return nil, fmt.Errorf("core: %s: the store is sharded over %d logs (%s and %s.shard1 to .shard%d), "+
					"and an engine now owns one log: reopen it once as one shard under the version that wrote it, "+
					"which recovers every log into the segments", path, n, logPath, logPath, n-1)
			}
			continue
		}
		id, p, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("core: %s: malformed line %q", path, line)
		}
		n, err := strconv.ParseUint(id, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("core: %s: bad segment id %q", path, id)
		}
		d.entries[n] = p
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("core: read segment dictionary: %w", err)
	}
	return d, nil
}

// lookup returns the path recorded for a segment ID.
func (d *dict) lookup(id uint64) (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.entries[id]
	return p, ok
}

// set records id -> path and persists the dictionary if anything changed.
// It returns only after the entry is durable (or already was).
func (d *dict) set(id uint64, path string) error {
	d.mu.Lock()
	if d.cond == nil {
		d.cond = sync.NewCond(&d.mu)
	}
	for d.busy {
		d.cond.Wait()
	}
	if cur, ok := d.entries[id]; ok && cur == path {
		d.mu.Unlock()
		return nil
	}
	d.busy = true
	snap := make(map[uint64]string, len(d.entries)+1)
	for k, v := range d.entries {
		snap[k] = v
	}
	snap[id] = path
	d.mu.Unlock()

	err := persistEntries(d.path, snap)

	d.mu.Lock()
	if err == nil {
		d.entries[id] = path
	}
	d.busy = false
	d.cond.Broadcast()
	d.mu.Unlock()
	return err
}

// persistEntries writes one version of the dictionary durably and
// atomically.  It takes a private snapshot rather than the dict so no
// lock is needed across the fsyncs.
func persistEntries(path string, entries map[uint64]string) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("core: write segment dictionary: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, dictHeader)
	ids := make([]uint64, 0, len(entries))
	for id := range entries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fmt.Fprintf(w, "%d\t%s\n", id, entries[id])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("core: write segment dictionary: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("core: sync segment dictionary: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("core: close segment dictionary: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("core: install segment dictionary: %w", err)
	}
	// The rename is only durable once the directory entry is; without this
	// a crash can revert the dictionary to its previous version even
	// though the log already references the new segment.
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("core: sync segment dictionary directory: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a preceding rename in it is durable.
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
