package main

import (
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rvm-go/rvm/internal/segment"
	"github.com/rvm-go/rvm/internal/wal"
)

// modelSyncCost is the nominal cost of one Sync on a model device.  The
// host's real fsync is 0.1-0.2 ms and varies by 30 % between identical
// runs; a sleep repeats to about 1 % (README, "Model device").
const modelSyncCost = time.Millisecond

// modelDevice is the storage the timed runs use for both the log and the
// segments.  Reads and writes pass through to the real file, so they cost
// what the page cache costs; Sync costs a fixed time and the device serves
// one Sync at a time, as one disk arm would.  Without the arm two
// committers that each force the log would overlap their sleeps and a
// serial log would look as fast as a group commit.
type modelDevice struct {
	f        *os.File
	syncCost *atomic.Int64 // ns; shared by the devices of one engine
	arm      sync.Mutex
	read     spanKind // span kind of ReadAt; WriteAt and Sync follow it
	tr       *tracer  // nil when the run is not traced
}

func (d *modelDevice) ReadAt(p []byte, off int64) (int, error) {
	s := d.tr.now()
	n, err := d.f.ReadAt(p, off)
	d.tr.device(d.read, s, n)
	return n, err
}

func (d *modelDevice) WriteAt(p []byte, off int64) (int, error) {
	s := d.tr.now()
	n, err := d.f.WriteAt(p, off)
	d.tr.device(d.read+1, s, n)
	return n, err
}

func (d *modelDevice) Sync() error {
	d.arm.Lock()
	s := d.tr.now()
	time.Sleep(time.Duration(d.syncCost.Load()))
	d.tr.device(d.read+2, s, 0)
	d.arm.Unlock()
	return nil
}

func (d *modelDevice) Close() error { return d.f.Close() }

// pendingWrite is a write a volatileDevice has accepted but not yet made
// durable.
type pendingWrite struct {
	off  int64
	data []byte
}

// volatileDevice builds the crash image of the restart workload.  Writes
// stay in memory until Sync copies them to the file; crash drops the ones
// no Sync covered.  A kill -9 would leave them in the page cache, so the
// benchmark has to lose them itself or a missing log force is invisible.
// Sync is free while the log is loaded, so that the image is built as fast
// as the processor allows, and costs what the model's does in the window.
type volatileDevice struct {
	f        *os.File
	syncCost *atomic.Int64 // ns; shared by the devices of one engine
	mu       sync.Mutex
	pending  []pendingWrite
	crashed  bool
}

func (d *volatileDevice) ReadAt(p []byte, off int64) (int, error) {
	n, err := d.f.ReadAt(p, off)
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, w := range d.pending {
		lo, hi := max(off, w.off), min(off+int64(len(p)), w.off+int64(len(w.data)))
		if lo < hi {
			copy(p[lo-off:hi-off], w.data[lo-w.off:hi-w.off])
		}
	}
	return n, err
}

func (d *volatileDevice) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.crashed {
		d.pending = append(d.pending, pendingWrite{off, append([]byte(nil), p...)})
	}
	return len(p), nil
}

func (d *volatileDevice) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	time.Sleep(time.Duration(d.syncCost.Load()))
	for _, w := range d.pending {
		if _, err := d.f.WriteAt(w.data, w.off); err != nil {
			return err
		}
	}
	d.pending = d.pending[:0]
	return nil
}

// crash drops every write no Sync covered, refuses later ones and closes
// the file, which then holds exactly what a power failure at this instant
// would leave.
func (d *volatileDevice) crash() {
	d.mu.Lock()
	d.pending, d.crashed = nil, true
	d.f.Close()
	d.mu.Unlock()
}

func (d *volatileDevice) Close() error { return d.f.Close() }

// devices hands the engine its log and segment storage for one Open.
type devices struct {
	kind     string       // "model", "real" or "volatile"
	syncCost atomic.Int64 // ns one Sync costs right now; 0 is free
	tr       *tracer
	volatile []*volatileDevice
}

// log opens the log file as the device kind asks.  A nil device tells the
// engine to open the plain file itself, which keeps its vectored write.
func (d *devices) log(path string) (wal.Device, error) {
	if d.kind == "real" {
		return nil, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	return d.wrap(f, spLogRead), nil
}

func (d *devices) segment() segment.DeviceWrap {
	if d.kind == "real" {
		return nil
	}
	return func(_ string, f *os.File) segment.Device { return d.wrap(f, spSegRead) }
}

func (d *devices) wrap(f *os.File, read spanKind) wal.Device {
	if d.kind == "volatile" {
		v := &volatileDevice{f: f, syncCost: &d.syncCost}
		d.volatile = append(d.volatile, v)
		return v
	}
	return &modelDevice{f: f, syncCost: &d.syncCost, read: read, tr: d.tr}
}

// crash makes the volatile devices lose their unsynced writes; the other
// kinds keep everything, as the page cache does when a process dies.
func (d *devices) crash() {
	for _, v := range d.volatile {
		v.crash()
	}
}

// hostFsyncP50 writes and fsyncs a 4 KiB block 200 times in dir and
// returns the median in microseconds, so a reader can relate the model
// device to this host's storage.
func hostFsyncP50(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	samples := make([]int64, 200)
	for i := range samples {
		t0 := time.Now()
		if _, err := f.WriteAt(block, 0); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		samples[i] = time.Since(t0).Nanoseconds()
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return float64(samples[len(samples)/2]) / 1e3, nil
}
