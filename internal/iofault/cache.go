package iofault

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"slices"
	"sync"
)

// ErrCrashed is returned by a Cache's writes and syncs once its machine has
// lost power.
var ErrCrashed = errors.New("iofault: simulated crash")

// SectorSize is the unit a Cache persists: a sector survives a crash whole
// or not at all, except the one a torn write ends in.
const SectorSize = 512

// Seeds of Crash with a fixed outcome.
const (
	KeepAll int64 = -1 // every unsynced sector survives: a crash that tears only the crossing write
	DropAll int64 = -2 // no unsynced sector survives
)

// Cache is a volatile write cache, such as a disk's or the page cache, over
// a Device that stands for the stable medium: a write lands in the cache,
// Sync moves the cached sectors to the device (and needs no sync of it),
// and a crash keeps only the sectors it chooses.  Reads see the cache.
// The Caches joined to one machine (the log and each segment) share a
// write budget and crash together.  Writes must fall inside the device,
// which a cache never grows.
type Cache struct {
	m     *machine
	dev   Device
	dirty map[int64]*[SectorSize]byte // unsynced sectors by number
}

type machine struct {
	mu     sync.Mutex
	budget int64 // write bytes left before power fails; negative: unlimited
	down   bool  // power failed: writes and syncs fail
	caches []*Cache
}

// NewCache starts a machine with one Cache over dev.  Power fails during
// the write that takes the machine's writes past budget bytes (negative:
// never): that write lands only its first bytes.
func NewCache(dev Device, budget int64) *Cache {
	return (&machine{budget: budget}).join(dev)
}

// Join adds a Cache over dev to c's machine.
func (c *Cache) Join(dev Device) *Cache { return c.m.join(dev) }

func (m *machine) join(dev Device) *Cache {
	c := &Cache{m: m, dev: dev, dirty: map[int64]*[SectorSize]byte{}}
	m.mu.Lock()
	m.caches = append(m.caches, c)
	m.mu.Unlock()
	return c
}

// SetBudget arms the machine to fail after budget more bytes of writes.
func (c *Cache) SetBudget(budget int64) {
	c.m.mu.Lock()
	c.m.budget = budget
	c.m.mu.Unlock()
}

// ReadAt reads the device with the cached sectors laid over it.
func (c *Cache) ReadAt(p []byte, off int64) (int, error) {
	c.m.mu.Lock()
	defer c.m.mu.Unlock()
	n, err := c.dev.ReadAt(p, off)
	for s, end := off/SectorSize, off+int64(n); s*SectorSize < end; s++ {
		if b := c.dirty[s]; b != nil {
			lo, hi := max(s*SectorSize, off), min((s+1)*SectorSize, end)
			copy(p[lo-off:hi-off], b[lo-s*SectorSize:])
		}
	}
	return n, err
}

// WriteAt puts p in the cache.
func (c *Cache) WriteAt(p []byte, off int64) (int, error) {
	m := c.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.down {
		return 0, ErrCrashed
	}
	n := len(p)
	if m.budget >= 0 {
		if int64(n) > m.budget {
			n, m.down = int(m.budget), true
		}
		m.budget -= int64(n)
	}
	for i := 0; i < n; {
		s, at := (off+int64(i))/SectorSize, (off+int64(i))%SectorSize
		b := c.dirty[s]
		if b == nil {
			b = new([SectorSize]byte)
			if _, err := c.dev.ReadAt(b[:], s*SectorSize); err != nil && err != io.EOF {
				return i, err
			}
			c.dirty[s] = b
		}
		i += copy(b[at:], p[i:n])
	}
	if m.down {
		return n, ErrCrashed
	}
	return n, nil
}

// Sync moves the cached sectors to the device.
func (c *Cache) Sync() error {
	c.m.mu.Lock()
	defer c.m.mu.Unlock()
	if c.m.down {
		return ErrCrashed
	}
	return c.persist(func(int64) bool { return true })
}

// persist writes the cached sectors keep accepts to the device, in sector
// order, and empties the cache.  Caller holds c.m.mu.
func (c *Cache) persist(keep func(sector int64) bool) error {
	order := make([]int64, 0, len(c.dirty))
	for s := range c.dirty {
		order = append(order, s)
	}
	slices.Sort(order)
	for _, s := range order {
		if keep(s) {
			if _, err := c.dev.WriteAt(c.dirty[s][:], s*SectorSize); err != nil {
				return err
			}
		}
		delete(c.dirty, s)
	}
	return nil
}

// Crash fails the machine's power: each unsynced sector of its Caches
// survives with a probability drawn from seed, or always (KeepAll) or never
// (DropAll).  The sectors are independent, so the order they land in does
// not matter.  Afterwards writes and syncs fail with ErrCrashed and reads
// see what survived.
func (c *Cache) Crash(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	p := rng.Float64()
	switch seed {
	case KeepAll:
		p = 1
	case DropAll:
		p = 0
	}
	return c.CrashKeeping(func(*Cache, int64) bool { return rng.Float64() < p })
}

// CrashKeeping is Crash with the survivors named: keep is asked about each
// unsynced sector, a Cache's in sector order and the Caches in join order.
func (c *Cache) CrashKeeping(keep func(dev *Cache, sector int64) bool) error {
	m := c.m
	m.mu.Lock()
	defer m.mu.Unlock()
	m.down = true
	for _, d := range m.caches {
		if err := d.persist(func(s int64) bool { return keep(d, s) }); err != nil {
			return err
		}
	}
	return nil
}

// Close closes the device.  Its unsynced sectors are lost, as a crash
// after the close would lose them.
func (c *Cache) Close() error {
	c.m.mu.Lock()
	defer c.m.mu.Unlock()
	clear(c.dirty)
	return c.dev.Close()
}

// Mem is a Device in memory, of a fixed size.  Like a file it serves
// concurrent reads and writes of disjoint bytes.
type Mem struct{ b []byte }

// NewMem returns a Mem holding a copy of image.
func NewMem(image []byte) *Mem { return &Mem{slices.Clone(image)} }

// ReadMem returns a Mem holding the file at path: a log or segment image
// whose Sync costs nothing.
func ReadMem(path string) (*Mem, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &Mem{b}, nil
}

// Bytes returns a copy of the contents.
func (m *Mem) Bytes() []byte { return slices.Clone(m.b) }

func (m *Mem) ReadAt(p []byte, off int64) (int, error) {
	n := copy(p, m.b[min(off, int64(len(m.b))):])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *Mem) WriteAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) > int64(len(m.b)) {
		return 0, errors.New("iofault: write past the end of a Mem")
	}
	return copy(m.b[off:], p), nil
}

func (m *Mem) Sync() error  { return nil }
func (m *Mem) Close() error { return nil }
