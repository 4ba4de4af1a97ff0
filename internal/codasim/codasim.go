// Package codasim regenerates Table 2 of the paper: the log-traffic
// savings of RVM's intra- and inter-transaction optimizations on Coda
// servers and clients.
//
// The paper instrumented nine Coda machines over four days in March 1993.
// Those traces no longer exist, so this package synthesizes workloads with
// the access characteristics the paper describes and runs them through the
// real RVM engine with its optimization instrumentation:
//
//   - Servers (grieg, haydn, wagner) perform fully permanent (flush-mode)
//     meta-data transactions.  Modularity and defensive programming make
//     duplicate and overlapping set-ranges common (§5.2), which is where
//     their 20-30% intra-transaction savings come from; no-flush
//     transactions are absent, so inter-transaction savings are zero.
//
//   - Clients (mozart…berlioz) use no-flush transactions for disconnected
//     operation's replay logs and the hoard database.  Temporal locality —
//     the paper's "cp d1/* d2" updating the same directory entry once per
//     child — produces runs of transactions whose modifications subsume
//     their predecessors', which is where the 20-64% inter-transaction
//     savings come from, on top of the same defensive set-range habits.
//
// Per-machine burst and duplication parameters are chosen so each
// synthetic machine exercises the optimizer in the proportion its paper
// row reports; EXPERIMENTS.md compares the resulting savings percentages
// with Table 2.
package codasim

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"github.com/rvm-go/rvm/internal/core"
	"github.com/rvm-go/rvm/internal/iofault"
)

// Profile describes one machine of Table 2.
type Profile struct {
	Name   string
	Server bool // flush-mode commits only
	// Transactions is the paper's committed-transaction count; Run scales
	// it down by Scale.
	Transactions int
	// DupFraction is the fraction of the naive log traffic that consists
	// of redundant (duplicate/overlapping) set-range bytes.
	DupFraction float64
	// BurstLen and BurstShare shape inter-transaction subsumption: a
	// burst is BurstLen consecutive no-flush transactions rewriting the
	// same ranges, and BurstShare is the fraction of transactions that
	// occur inside bursts.
	BurstLen   int
	BurstShare float64
}

// Profiles are the nine machines of Table 2, with parameters targeting
// each row's savings percentages.
func Profiles() []Profile {
	return []Profile{
		{Name: "grieg", Server: true, Transactions: 267224, DupFraction: 0.155},
		{Name: "haydn", Server: true, Transactions: 483978, DupFraction: 0.165},
		{Name: "wagner", Server: true, Transactions: 248169, DupFraction: 0.155},
		{Name: "mozart", Transactions: 34744, DupFraction: 0.33, BurstLen: 6, BurstShare: 0.80},
		{Name: "ives", Transactions: 21013, DupFraction: 0.24, BurstLen: 4, BurstShare: 0.54},
		{Name: "verdi", Transactions: 21907, DupFraction: 0.215, BurstLen: 4, BurstShare: 0.52},
		{Name: "bach", Transactions: 26209, DupFraction: 0.195, BurstLen: 4, BurstShare: 0.52},
		{Name: "purcell", Transactions: 76491, DupFraction: 0.32, BurstLen: 8, BurstShare: 0.90},
		{Name: "berlioz", Transactions: 101168, DupFraction: 0.115, BurstLen: 16, BurstShare: 0.97},
	}
}

// Row is one line of the regenerated Table 2.
type Row struct {
	Name         string
	Transactions int
	LogBytes     uint64 // bytes written to the log after the optimizations
	IntraPct     float64
	InterPct     float64
	TotalPct     float64 // the paper's total: intra plus inter
	// DrainPct is what the spool drains save beyond the paper's two
	// optimizations: a byte that a later spooled commit rewrote is logged
	// once, though no one commit covered all of the earlier one.
	DrainPct float64
}

// Run replays a machine's synthetic workload through a real RVM engine
// and reports its Table 2 row.  Scale divides the transaction count (the
// savings percentages are scale-invariant); dir holds the working files.
func Run(p Profile, scale int, dir string) (Row, error) {
	if scale < 1 {
		scale = 1
	}
	txs := p.Transactions / scale
	if txs < 200 {
		txs = 200
	}
	logPath := filepath.Join(dir, p.Name+".log")
	segPath := filepath.Join(dir, p.Name+".seg")
	regionLen := int64(256 << 10)
	if err := core.CreateLog(logPath, 8<<20); err != nil {
		return Row{}, err
	}
	if err := core.CreateSegment(segPath, 1, regionLen); err != nil {
		return Row{}, err
	}
	// The table counts log bytes, so the log is held in memory, where a
	// force costs nothing; the dictionary and the segment stay files.
	mem, err := iofault.ReadMem(logPath)
	if err != nil {
		return Row{}, err
	}
	db, err := core.Open(core.Options{LogPath: logPath, LogDevice: mem, TruncateThreshold: 0.5})
	if err != nil {
		return Row{}, err
	}
	defer func() {
		db.Close()
		os.Remove(logPath)
		os.Remove(logPath + ".segs")
		os.Remove(segPath)
	}()
	reg, err := db.Map(segPath, 0, regionLen)
	if err != nil {
		return Row{}, err
	}

	rng := rand.New(rand.NewSource(int64(len(p.Name))*7919 + int64(p.Transactions)))
	mode := core.NoFlush
	if p.Server {
		mode = core.Flush
	}

	// A "directory operation": 2-4 ranges of 16-200 bytes.  Defensive
	// programming re-declares already-covered bytes: for each range we
	// issue extra overlapping set-ranges until the redundant bytes reach
	// DupFraction of the naive traffic.
	type rangeSpec struct{ off, n int64 }
	makeTx := func() []rangeSpec {
		n := 2 + rng.Intn(3)
		specs := make([]rangeSpec, n)
		for i := range specs {
			specs[i] = rangeSpec{
				off: rng.Int63n(regionLen - 256),
				n:   16 + rng.Int63n(185),
			}
		}
		return specs
	}
	// dupRatio converts "fraction of naive traffic that is redundant"
	// into "redundant bytes per useful byte".
	dupRatio := p.DupFraction / (1 - p.DupFraction)

	apply := func(tx *core.Tx, specs []rangeSpec) error {
		for _, sp := range specs {
			if err := tx.SetRange(reg, sp.off, sp.n); err != nil {
				return err
			}
			// Redundant declarations of the same area (duplicates and
			// partial overlaps), as modular callees would issue.
			for dup := dupRatio; dup > 0; dup -= 1 {
				if dup < 1 && rng.Float64() > dup {
					break
				}
				overlap := sp.n / 2
				if err := tx.SetRange(reg, sp.off+overlap, sp.n-overlap+8); err != nil {
					return err
				}
				if err := tx.SetRange(reg, sp.off, sp.n); err != nil {
					return err
				}
			}
			d := reg.Data()[sp.off : sp.off+sp.n]
			rng.Read(d)
		}
		return nil
	}

	commit := func(specs []rangeSpec) error {
		tx, err := db.Begin(core.NoRestore)
		if err != nil {
			return err
		}
		if err := apply(tx, specs); err != nil {
			return err
		}
		return tx.Commit(mode)
	}

	i := 0
	for i < txs {
		inBurst := !p.Server && p.BurstLen > 1 && rng.Float64() < p.BurstShare
		if inBurst {
			// "cp d1/* d2": the same directory's data structure updated
			// once per child; only the last update needs to reach the log.
			specs := makeTx()
			burst := p.BurstLen
			if burst > txs-i {
				burst = txs - i
			}
			for b := 0; b < burst; b++ {
				if err := commit(specs); err != nil {
					return Row{}, err
				}
			}
			i += burst
		} else {
			if err := commit(makeTx()); err != nil {
				return Row{}, err
			}
			i++
		}
		if !p.Server && i%256 == 0 {
			if err := db.Flush(); err != nil {
				return Row{}, err
			}
		}
	}
	if err := db.Flush(); err != nil {
		return Row{}, err
	}
	st := db.Stats()
	original := float64(st.LogBytes + st.IntraSavedBytes + st.InterSavedBytes + st.DrainSavedBytes + st.DiffSavedBytes)
	row := Row{
		Name:         p.Name,
		Transactions: txs,
		LogBytes:     st.LogBytes,
	}
	if original > 0 {
		row.IntraPct = 100 * float64(st.IntraSavedBytes) / original
		row.InterPct = 100 * float64(st.InterSavedBytes) / original
		row.TotalPct = row.IntraPct + row.InterPct
		row.DrainPct = 100 * float64(st.DrainSavedBytes) / original
	}
	return row, nil
}

// RunAll regenerates the whole of Table 2.
func RunAll(scale int, dir string) ([]Row, error) {
	var rows []Row
	for _, p := range Profiles() {
		r, err := Run(p, scale, dir)
		if err != nil {
			return nil, fmt.Errorf("codasim: %s: %w", p.Name, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}
