package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rvm-go/rvm/internal/iofault"
	"github.com/rvm-go/rvm/internal/segment"
)

// faultEnv is an engine fixture with injectors on both sides of the storage
// seam: the write-ahead log and every segment the engine opens.
type faultEnv struct {
	*env
	logInj *iofault.Injector
	segInj *iofault.Injector
	cache  *iofault.Cache // under the injectors of a lossy fixture
}

// newFaultEnv builds the fixture.  logFaults and segFaults are the fault
// schedules; seed drives any probabilistic faults.  A lossy fixture puts
// the log and the segment in one machine of write caches.
func newFaultEnv(t *testing.T, logSize, segSize int64, seed int64, lossy bool,
	logFaults, segFaults []iofault.Fault, opts Options) (*faultEnv, error) {
	t.Helper()
	v := &faultEnv{env: &env{t: t, dir: t.TempDir()}}
	v.logPath = v.dir + "/log.rvm"
	v.segPath = v.dir + "/seg.rvm"
	if err := CreateLog(v.logPath, logSize); err != nil {
		t.Fatal(err)
	}
	if err := CreateSegment(v.segPath, 1, segSize); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(v.logPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var logDev iofault.Device = f
	if lossy {
		v.cache = iofault.NewCache(f, -1)
		logDev = v.cache
	}
	v.logInj = iofault.NewInjector(logDev, seed)
	for _, fl := range logFaults {
		v.logInj.Add(fl)
	}
	opts.LogPath = v.logPath
	opts.LogDevice = v.logInj
	opts.SegmentDevice = func(path string, sf *os.File) segment.Device {
		var dev iofault.Device = sf
		if lossy {
			dev = v.cache.Join(sf)
		}
		inj := iofault.NewInjector(dev, seed+1)
		for _, fl := range segFaults {
			inj.Add(fl)
		}
		v.segInj = inj
		return inj
	}
	eng, err := Open(opts)
	if err != nil {
		f.Close()
		return v, err
	}
	v.eng = eng
	t.Cleanup(func() {
		if v.eng != nil {
			v.eng.Close()
		}
	})
	return v, nil
}

// TestTransientFaultRetried: a sync fault that clears after two failures is
// absorbed by the retry policy — the commit succeeds and the retries are
// counted.
func TestTransientFaultRetried(t *testing.T) {
	v, err := newFaultEnv(t, 1<<16, pageBytes(2), 1, false, nil, nil,
		Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := v.mapWhole()
	v.commit1(r, 0, []byte("clean"))

	v.logInj.Add(iofault.Fault{Ops: iofault.OpSync, Count: 2})
	v.commit1(r, 64, []byte("retried")) // fails inside if retries don't work

	if st := v.eng.Stats(); st.Retries == 0 {
		t.Fatalf("Stats().Retries = 0, want > 0")
	}
	v.reopen(Options{})
	r2 := v.mapWhole()
	if got := r2.Data()[64:71]; !bytes.Equal(got, []byte("retried")) {
		t.Fatalf("recovered %q", got)
	}
}

// queryBeatsLastRetry puts maxRetries transient faults on inj's next
// operations of kind op (a write or a read), runs act, and reports whether
// query, started from the injector's hook at the first failed operation, had
// returned when the last retry reached the device: whether the retried
// operation backed off with the lock query needs released.  Backing off
// under it would queue every committer behind 1+2+4 ms of sleep.
func queryBeatsLastRetry(inj *iofault.Injector, op iofault.Op, query func() error, act func()) bool {
	var ops atomic.Int32
	var queried atomic.Bool
	lastTry := make(chan bool, 1) // whether the query had returned by then
	inj.Add(iofault.Fault{Ops: op, Count: maxRetries})
	inj.SetHook(func(o iofault.Op, _ int64, _ int) {
		if o != op {
			return
		}
		switch ops.Add(1) {
		case 1:
			go func() {
				if query() == nil {
					queried.Store(true)
				}
			}()
		case maxRetries + 1:
			lastTry <- queried.Load()
		}
	})
	act()
	inj.SetHook(nil)
	return <-lastTry
}

// TestAppendRetryReleasesPipeline: a commit whose record write meets
// transient faults backs off with the pipeline lock released, so a Query
// started at the first failed write returns before the last retry reaches
// the device.
func TestAppendRetryReleasesPipeline(t *testing.T) {
	v, err := newFaultEnv(t, 1<<16, pageBytes(2), 1, false, nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := v.mapWhole()
	v.commit1(r, 0, []byte("clean"))

	query := func() error { _, err := v.eng.Query(nil); return err }
	if !queryBeatsLastRetry(v.logInj, iofault.OpWrite, query, func() { v.commit1(r, 64, []byte("retried")) }) {
		t.Fatal("a Query started at the first failed append returned only after the last retry: the append backed off holding the pipeline lock")
	}
	if st := v.eng.Stats(); st.Retries != maxRetries {
		t.Fatalf("Stats().Retries = %d, want %d", st.Retries, maxRetries)
	}
}

// TestPageWriteRetryReleasesRegion: a page write-out that meets transient
// segment faults backs off with the region's lock released, so a Query of
// the region started at the first failed write of a Truncate returns before
// the last retry reaches the device.
func TestPageWriteRetryReleasesRegion(t *testing.T) {
	v, err := newFaultEnv(t, 1<<16, pageBytes(2), 1, false, nil, nil, Options{TruncateThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	r := v.mapWhole()
	v.commit1(r, 0, []byte("dirty"))

	query := func() error { _, err := v.eng.Query(r); return err }
	var truncErr error
	if !queryBeatsLastRetry(v.segInj, iofault.OpWrite, query, func() { truncErr = v.eng.Truncate() }) {
		t.Fatal("a Query of the region started at the first failed page write returned only after the last retry: the write backed off holding the region lock")
	}
	if st := v.eng.Stats(); truncErr != nil || st.Retries != maxRetries || st.PagesWritten != 1 {
		t.Fatalf("Truncate = %v, retries %d, pages written %d; want nil, %d and 1", truncErr, st.Retries, st.PagesWritten, maxRetries)
	}
}

// TestEpochCollectRetryReleasesPipeline: an epoch truncation whose read of
// the log meets transient faults backs off with the pipeline lock released,
// so a Query started at the first failed read returns before the last retry
// reaches the device.
func TestEpochCollectRetryReleasesPipeline(t *testing.T) {
	v, err := newFaultEnv(t, 1<<16, pageBytes(2), 1, false, nil, nil, Options{TruncateThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	r := v.mapWhole()
	v.commit1(r, 0, []byte("collected"))

	query := func() error { _, err := v.eng.Query(nil); return err }
	var epochErr error
	if !queryBeatsLastRetry(v.logInj, iofault.OpRead, query, func() {
		if epochErr = v.eng.claimTruncation(); epochErr == nil {
			epochErr = v.eng.epoch(epochBlocked)
			v.eng.releaseTruncation()
		}
	}) {
		t.Fatal("a Query started at the epoch's first failed log read returned only after the last retry: the collection backed off holding the pipeline lock")
	}
	if st := v.eng.Stats(); epochErr != nil || st.Retries != maxRetries || st.EpochTruncs != 1 {
		t.Fatalf("epoch = %v, retries %d, epochs %d; want nil, %d and 1", epochErr, st.Retries, st.EpochTruncs, maxRetries)
	}
}

// TestPoisonedEngineFailStop: a permanent fault on the log force poisons the
// engine; every mutating entry point is rejected with ErrPoisoned, Query
// reports the state, and a reopen on pristine devices still recovers every
// acknowledged commit.
func TestPoisonedEngineFailStop(t *testing.T) {
	v, err := newFaultEnv(t, 1<<16, pageBytes(2), 1, false, nil, nil,
		Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := v.mapWhole()
	v.commit1(r, 0, []byte("acked"))

	v.logInj.Add(iofault.Fault{Ops: iofault.OpSync, Count: -1})
	tx, err := v.eng.Begin(Restore)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Modify(r, 128, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(Flush); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Commit = %v, want ErrPoisoned", err)
	}

	if _, err := v.eng.Begin(Restore); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Begin = %v, want ErrPoisoned", err)
	}
	if err := v.eng.Flush(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Flush = %v, want ErrPoisoned", err)
	}
	if err := v.eng.Truncate(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Truncate = %v, want ErrPoisoned", err)
	}
	qi, err := v.eng.Query(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !qi.Poisoned || qi.LastFault == nil {
		t.Fatalf("Query = %+v, want Poisoned with a LastFault", qi)
	}
	if !errors.Is(qi.LastFault, iofault.ErrPermanent) {
		t.Fatalf("LastFault = %v, want the injected permanent fault", qi.LastFault)
	}

	// Close must release resources but report the poisoning.
	eng := v.eng
	v.eng = nil
	if err := eng.Close(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Close = %v, want ErrPoisoned", err)
	}

	// Pristine reopen: the acknowledged commit is recovered intact.
	v.reopen(Options{})
	r2 := v.mapWhole()
	if got := r2.Data()[0:5]; !bytes.Equal(got, []byte("acked")) {
		t.Fatalf("recovered %q, want %q", got, "acked")
	}
}

// TestBackgroundTruncFailureObservable: when the background truncation hits
// a broken segment device, the failure must surface through Query/Stats
// instead of vanishing.
func TestBackgroundTruncFailureObservable(t *testing.T) {
	segFaults := []iofault.Fault{{Ops: iofault.OpWrite, Count: -1}}
	v, err := newFaultEnv(t, 1<<15, pageBytes(2), 1, false, nil, segFaults,
		Options{TruncateThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	r := v.mapWhole()
	// Commit until the threshold trips and the background truncation runs
	// into the permanent segment fault.
	buf := make([]byte, 2048)
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; ; i++ {
		tx, err := v.eng.Begin(Restore)
		if err != nil {
			break // poisoned by the failed truncation: good enough
		}
		if err := tx.Modify(r, 0, buf); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(Flush); err != nil {
			break
		}
		qi, err := v.eng.Query(nil)
		if err != nil {
			t.Fatal(err)
		}
		if qi.TruncFailures > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background truncation failure never surfaced")
		}
		time.Sleep(time.Millisecond)
	}
	for {
		qi, err := v.eng.Query(nil)
		if err != nil {
			t.Fatal(err)
		}
		if qi.TruncFailures > 0 {
			if qi.LastFault == nil {
				t.Fatalf("TruncFailures = %d but LastFault = nil", qi.TruncFailures)
			}
			if st := v.eng.Stats(); st.TruncFailures == 0 {
				t.Fatal("Stats().TruncFailures = 0, want > 0")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background truncation failure never surfaced")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupCommitForceFaultPoisonsAll: a sync fault injected on the shared
// group force must fail-stop every concurrent committer with the same
// wrapped error and leave the engine poisoned — no ticket holder may be
// acknowledged by a force that did not happen.  After a pristine reopen the
// recovered state contains the pre-fault commit intact and, per doomed
// committer, either its whole write or none of it.
func TestGroupCommitForceFaultPoisonsAll(t *testing.T) {
	const workers = 8
	v, err := newFaultEnv(t, 1<<16, pageBytes(2), 1, false, nil, nil,
		Options{GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	r := v.mapWhole()
	v.commit1(r, 0, []byte("pre-fault"))

	// Every sync from here on fails permanently: the next group force is
	// doomed, and with it every committer sharing it.  It is held until
	// every worker has appended.
	v.logInj.Add(iofault.Fault{Ops: iofault.OpSync, Count: -1})
	holdFirstSync(v.logInj, workers)

	var wg sync.WaitGroup
	errs := make([]error, workers)
	payload := func(w int) []byte { return bytes.Repeat([]byte{byte('A' + w)}, 32) }
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx, err := v.eng.Begin(Restore)
			if err != nil {
				errs[w] = err
				return
			}
			if err := tx.Modify(r, 512+int64(w)*64, payload(w)); err != nil {
				errs[w] = err
				_ = tx.Abort()
				return
			}
			errs[w] = tx.Commit(Flush)
		}(w)
	}
	wg.Wait()

	for w, err := range errs {
		if !errors.Is(err, ErrPoisoned) {
			t.Fatalf("worker %d: err = %v, want ErrPoisoned", w, err)
		}
	}
	qi, err := v.eng.Query(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !qi.Poisoned {
		t.Fatal("engine not poisoned after failed group force")
	}
	if !errors.Is(qi.LastFault, iofault.ErrPermanent) {
		t.Fatalf("LastFault = %v, want the injected permanent fault", qi.LastFault)
	}
	// The doomed transactions were abandoned, so Close is not wedged.
	if qi.ActiveTxs != 0 {
		t.Fatalf("ActiveTxs = %d after fail-stop, want 0", qi.ActiveTxs)
	}

	// Pristine reopen: the acknowledged commit is intact; each doomed
	// committer's slot holds either its whole write or none of it.
	eng := v.eng
	v.eng = nil
	eng.closeFiles()
	v.reopen(Options{})
	r2 := v.mapWhole()
	if got := r2.Data()[0:9]; !bytes.Equal(got, []byte("pre-fault")) {
		t.Fatalf("acknowledged commit lost: %q", got)
	}
	zero := make([]byte, 32)
	for w := 0; w < workers; w++ {
		got := r2.Data()[512+int64(w)*64 : 512+int64(w)*64+32]
		if !bytes.Equal(got, zero) && !bytes.Equal(got, payload(w)) {
			t.Fatalf("worker %d: recovered torn state %q", w, got)
		}
	}
}

// randomFaults generates a small random fault schedule for one device.
func randomFaults(rng *rand.Rand) []iofault.Fault {
	var fs []iofault.Fault
	for i, n := 0, rng.Intn(3); i < n; i++ {
		var f iofault.Fault
		switch rng.Intn(4) {
		case 0:
			f.Ops = iofault.OpWrite
		case 1:
			f.Ops = iofault.OpSync
		case 2:
			f.Ops = iofault.OpWrite | iofault.OpSync
		case 3:
			f.Ops = iofault.OpRead
		}
		f.After = rng.Intn(80)
		if rng.Intn(2) == 0 {
			f.Count = 1 + rng.Intn(4) // transient: clears after N ops
		} else {
			f.Count = -1 // permanent
		}
		if f.Ops&iofault.OpWrite != 0 && rng.Intn(3) == 0 {
			f.Torn = true
			f.TornFrac = 0.25 + rng.Float64()*0.5
		}
		if rng.Intn(4) == 0 {
			f.Prob = 0.3 + rng.Float64()*0.4
		}
		fs = append(fs, f)
	}
	return fs
}

// TestFaultScheduleProperty drives randomized fault schedules across both
// the log and the segment device and checks the core durability contract:
// after a crash and a pristine reopen, the recovered state is exactly the
// state at the last acknowledged flush-mode commit — or that state plus the
// single in-flight transaction whose acknowledgement failed after its bytes
// reached the device.  Never a torn or reordered hybrid, never silent loss
// of an acknowledged commit.
func TestFaultScheduleProperty(t *testing.T) {
	const trials = 120
	size := pageBytes(2)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 7919))
		v, err := newFaultEnv(t, 1<<15, size, int64(trial), false, randomFaults(rng), randomFaults(rng),
			Options{
				TruncateThreshold: 0.5,
				Incremental:       trial%2 == 0,
			})

		acked := make([]byte, size)     // state at the last acknowledged commit
		attempted := make([]byte, size) // acked + the failed in-flight tx, if any
		if err == nil {
			r, merr := v.eng.Map(v.segPath, 0, size)
			if merr == nil {
				for i := 0; i < 12; i++ {
					copy(attempted, acked)
					tx, berr := v.eng.Begin(Restore)
					if berr != nil {
						break
					}
					cerr := error(nil)
					for j, nr := 0, 1+rng.Intn(3); j < nr && cerr == nil; j++ {
						off := rng.Int63n(size - 64)
						data := make([]byte, 1+rng.Intn(48))
						for k := range data {
							data[k] = byte(rng.Intn(256))
						}
						if cerr = tx.Modify(r, off, data); cerr == nil {
							copy(attempted[off:], data)
						}
					}
					if cerr == nil {
						cerr = tx.Commit(Flush)
					} else {
						_ = tx.Abort()
					}
					if cerr != nil {
						break
					}
					copy(acked, attempted)
				}
			}
		}

		// Crash: drop the engine without flushing, reopen on pristine
		// devices, and let recovery replay the log.
		if v.eng != nil {
			v.eng.closeFiles()
			v.eng = nil
		}
		v.reopen(Options{})
		r2, err := v.eng.Map(v.segPath, 0, size)
		if err != nil {
			t.Fatalf("trial %d: pristine Map failed: %v", trial, err)
		}
		got := r2.Data()
		if !bytes.Equal(got, acked) && !bytes.Equal(got, attempted) {
			t.Fatalf("trial %d: recovered state matches neither the last acknowledged commit nor the in-flight transaction", trial)
		}
		eng := v.eng
		v.eng = nil
		eng.closeFiles()
	}
}

// TestCrossShardFaultScheduleProperty is TestFaultScheduleProperty over two
// regions of one segment, with a mix of one-region and two-region flush
// commits.  The name dates from when the two regions sat on two logs of one
// engine; they now share the engine's single log, and the contract is the
// same: after a crash and a pristine reopen the recovered state is exactly
// the last acknowledged state, or that state plus the whole in-flight
// transaction — for a two-region transaction, both halves or neither.
func TestCrossShardFaultScheduleProperty(t *testing.T) {
	const trials = 120
	size := pageBytes(4)
	half := pageBytes(2)
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)*6271 + 1))
			v, err := newFaultEnv(t, 1<<15, size, int64(trial), false, randomFaults(rng), randomFaults(rng),
				Options{
					TruncateThreshold: 0.5,
					Incremental:       trial%2 == 0,
				})

			acked := make([]byte, size)     // state at the last acknowledged commit
			attempted := make([]byte, size) // acked + the failed in-flight tx, if any
			if err == nil {
				r1, e1 := v.eng.Map(v.segPath, 0, half)
				r2, e2 := v.eng.Map(v.segPath, half, half)
				if e1 == nil && e2 == nil {
					for i := 0; i < 12; i++ {
						copy(attempted, acked)
						tx, berr := v.eng.Begin(Restore)
						if berr != nil {
							break
						}
						cerr := error(nil)
						both := rng.Intn(2) == 0
						mods := 1 + rng.Intn(3)
						for j := 0; j < mods && cerr == nil; j++ {
							reg, base := r1, int64(0)
							if (both && j%2 == 1) || (!both && i%2 == 1) {
								reg, base = r2, half
							}
							off := rng.Int63n(half - 64)
							data := make([]byte, 1+rng.Intn(48))
							for k := range data {
								data[k] = byte(rng.Intn(256))
							}
							if cerr = tx.Modify(reg, off, data); cerr == nil {
								copy(attempted[base+off:], data)
							}
						}
						if cerr == nil {
							cerr = tx.Commit(Flush)
						} else {
							_ = tx.Abort()
						}
						if cerr != nil {
							break
						}
						copy(acked, attempted)
					}
				}
			}

			// Crash: drop the engine without flushing, reopen on pristine
			// devices, and let recovery replay the log.
			if v.eng != nil {
				v.eng.closeFiles()
				v.eng = nil
			}
			v.reopen(Options{})
			got := make([]byte, 0, size)
			ra, err := v.eng.Map(v.segPath, 0, half)
			if err != nil {
				t.Fatalf("trial %d: pristine Map failed: %v", trial, err)
			}
			rb, err := v.eng.Map(v.segPath, half, half)
			if err != nil {
				t.Fatalf("trial %d: pristine Map failed: %v", trial, err)
			}
			got = append(got, ra.Data()...)
			got = append(got, rb.Data()...)
			if !bytes.Equal(got, acked) && !bytes.Equal(got, attempted) {
				t.Fatalf("trial %d: recovered state matches neither the acknowledged state nor the whole in-flight transaction (two-region atomicity broken)", trial)
			}
			eng := v.eng
			v.eng = nil
			eng.closeFiles()
		})
	}
}
