package core

import (
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/rvm-go/rvm/internal/iofault"
	"github.com/rvm-go/rvm/internal/obs"
)

// tpcaShape is the paper's TPC-A transaction (§7.1.1) as the engine sees
// it: three regions of one segment — 128-byte accounts, a trail of 64-byte
// audit records, one page of balances — and four ranges per transaction.
type tpcaShape struct {
	eng                  *Engine
	log                  *iofault.Mem // the log is held in memory: the shape times code, not the disk
	acct, audit, control *Region
	rng                  *rand.Rand
	slot                 int64
	localized            bool // draw accounts as the paper's TPC-A does, not uniformly
}

const (
	tpcaAcctPages  = 1024
	tpcaAuditPages = 256
)

func newTPCAShape(tb testing.TB, opts Options) *tpcaShape {
	tb.Helper()
	dir := tb.TempDir()
	logPath, segPath := filepath.Join(dir, "log.rvm"), filepath.Join(dir, "seg.rvm")
	if err := CreateLog(logPath, 64<<20); err != nil {
		tb.Fatal(err)
	}
	if err := CreateSegment(segPath, 1, pageBytes(tpcaAcctPages+tpcaAuditPages+1)); err != nil {
		tb.Fatal(err)
	}
	mem, err := iofault.ReadMem(logPath)
	if err != nil {
		tb.Fatal(err)
	}
	opts.LogPath, opts.LogDevice = logPath, mem
	eng, err := Open(opts)
	if err != nil {
		tb.Fatal(err)
	}
	s := &tpcaShape{eng: eng, log: mem, rng: rand.New(rand.NewSource(14))}
	tb.Cleanup(func() {
		if s.eng != nil {
			s.eng.Close()
		}
	})
	for _, m := range []struct {
		r          **Region
		off, pages int
	}{{&s.acct, 0, tpcaAcctPages}, {&s.audit, tpcaAcctPages, tpcaAuditPages}, {&s.control, tpcaAcctPages + tpcaAuditPages, 1}} {
		if *m.r, err = eng.Map(segPath, pageBytes(m.off), pageBytes(m.pages)); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// commit runs one transfer on a uniformly drawn account and commits it
// no-flush.
func (s *tpcaShape) commit(tb testing.TB) { s.commitMode(tb, NoFlush) }

func (s *tpcaShape) commitMode(tb testing.TB, mode CommitMode) {
	tx, err := s.eng.Begin(Restore)
	if err != nil {
		tb.Fatal(err)
	}
	acct := s.rng.Int63n(pageBytes(tpcaAcctPages)/128) * 128
	if s.localized {
		// 70 % of the transfers on 5 % of the account pages, 25 % on another
		// 15 %, 5 % on the rest (§7.1.1).
		const hot, warm = tpcaAcctPages * 5 / 100, tpcaAcctPages * 15 / 100
		page := hot + warm + s.rng.Intn(tpcaAcctPages-hot-warm)
		switch r := s.rng.Intn(100); {
		case r < 70:
			page = s.rng.Intn(hot)
		case r < 95:
			page = hot + s.rng.Intn(warm)
		}
		acct = pageBytes(page) + acct%pageBytes(1)
	}
	audit := s.slot % (pageBytes(tpcaAuditPages) / 64) * 64
	s.slot++
	for _, sr := range []struct {
		r      *Region
		off, n int64
	}{{s.acct, acct, 128}, {s.audit, audit, 64}, {s.control, 0, 8}, {s.control, 2048, 8}} {
		if err := tx.SetRange(sr.r, sr.off, sr.n); err != nil {
			tb.Fatal(err)
		}
		sr.r.Data()[sr.off]++
	}
	if err := tx.Commit(mode); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkCommitNoFlush measures a TPC-A-shaped Restore transaction
// committed no-flush into a spool already holding spool entries; the spool
// is emptied, off the clock, whenever it has doubled.  A commit's cost must
// not depend on the spool's length.  The obs=on case is spool=256 with a
// Tracer and Metrics: what observability costs a lazy commit.
func BenchmarkCommitNoFlush(b *testing.B) {
	for _, c := range []struct {
		name  string
		spool int
		obs   bool
	}{{"spool=16", 16, false}, {"spool=256", 256, false}, {"spool=4096", 4096, false}, {"obs=on", 256, true}} {
		b.Run(c.name, func(b *testing.B) {
			setVar(b, &spoolLimit, math.MaxInt64)
			opts := Options{TruncateThreshold: -1}
			if c.obs {
				opts.Tracer, opts.Metrics = obs.NewTracer(4096), obs.NewMetrics()
			}
			s := newTPCAShape(b, opts)
			fill := func() {
				if err := s.eng.Truncate(); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < c.spool; i++ {
					s.commit(b)
				}
			}
			fill()
			b.ReportAllocs()
			b.ResetTimer()
			for i, n := 0, 0; i < b.N; i++ {
				if n++; n > c.spool {
					b.StopTimer()
					fill()
					n = 1
					b.StartTimer()
				}
				s.commit(b)
			}
		})
	}
}

// BenchmarkSpoolDrain measures a Flush of 256 TPC-A-shaped no-flush commits,
// spooled off the clock: the merge of the spooled ranges into the drain's
// one record, the record encoded and written, and the page enqueues, per
// drained commit, next to the log bytes the drain wrote per drained commit.
// The log is in memory, so the figure is the drain's own cost, not the
// disk's.
func BenchmarkSpoolDrain(b *testing.B) {
	const commits = 256
	s := newTPCAShape(b, Options{TruncateThreshold: -1})
	var ms runtime.MemStats
	var mallocs, logged uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if s.eng.log.Used() > 32<<20 {
			if err := s.eng.Truncate(); err != nil {
				b.Fatal(err)
			}
		}
		for j := 0; j < commits; j++ {
			s.commit(b)
		}
		runtime.ReadMemStats(&ms)
		before, logBefore := ms.Mallocs, s.eng.Stats().LogBytes
		b.StartTimer()
		if err := s.eng.Flush(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		logged += s.eng.Stats().LogBytes - logBefore
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*commits), "ns/commit")
	b.ReportMetric(float64(logged)/float64(b.N*commits), "log-B/commit")
	b.ReportMetric(float64(mallocs)/float64(b.N*commits), "allocs/commit")
}
