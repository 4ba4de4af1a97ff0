package main

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/rvm-go/rvm/internal/codasim"
	"github.com/rvm-go/rvm/internal/core"
)

const (
	codaRegionBytes = 256 << 10
	codaMachine     = "purcell"
)

// codaRange is one directory-operation range and whether a defensive
// callee declares it again.
type codaRange struct {
	off uint32
	n   uint16
	dup bool
}

// codaOp is one generated transaction: 2 to 4 ranges of 16 to 200 bytes.
type codaOp struct {
	ranges   [4]codaRange
	n        uint8
	distinct uint16 // bytes the transaction declares, counted once
}

// coda is internal/codasim's client mix (Table 2 of the paper) with the
// seed as an argument: no-flush transactions whose set-ranges are partly
// redundant, most of them in bursts that rewrite the same ranges, so that
// each subsumes the one before it.
type coda struct {
	reg *core.Region
	ops []codaOp
	tx  []uint32 // the op each transaction runs; a burst repeats one
	pad []byte   // new values are copied from here
}

func newCoda(seed int64, n int) (*coda, error) {
	var p codasim.Profile
	for _, q := range codasim.Profiles() {
		if q.Name == codaMachine {
			p = q
		}
	}
	if p.Name == "" {
		return nil, fmt.Errorf("codasim has no profile %q", codaMachine)
	}
	rng := rand.New(rand.NewSource(seed))
	c := &coda{tx: make([]uint32, 0, n), pad: make([]byte, 4096)}
	rng.Read(c.pad)
	dup := p.DupFraction / (1 - p.DupFraction) // redundant bytes per useful byte
	for len(c.tx) < n {
		var op codaOp
		op.n = uint8(2 + rng.Intn(3))
		for i := 0; i < int(op.n); i++ {
			op.ranges[i] = codaRange{
				off: uint32(rng.Int63n(codaRegionBytes - 256)),
				n:   uint16(16 + rng.Intn(185)),
				dup: rng.Float64() < dup,
			}
		}
		op.distinct = uint16(op.declared())
		c.ops = append(c.ops, op)
		repeat := 1
		if rng.Float64() < p.BurstShare {
			repeat = p.BurstLen
		}
		for ; repeat > 0 && len(c.tx) < n; repeat-- {
			c.tx = append(c.tx, uint32(len(c.ops)-1))
		}
	}
	return c, nil
}

// declared counts the distinct bytes op's set-ranges cover.
func (op *codaOp) declared() int {
	type iv struct{ lo, hi int }
	var ivs []iv
	for _, r := range op.ranges[:op.n] {
		hi := int(r.off) + int(r.n)
		if r.dup {
			hi += 8
		}
		ivs = append(ivs, iv{int(r.off), hi})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	total, end := 0, 0
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

func (c *coda) segmentBytes() int64 { return codaRegionBytes }

func (c *coda) mapRegions(e *core.Engine, seg string) (err error) {
	c.reg, err = e.Map(seg, 0, codaRegionBytes)
	return err
}

func (c *coda) regions() []*core.Region { return []*core.Region{c.reg} }

// preload writes the whole region once, so the first truncation has every
// page to write.
func (c *coda) preload(e *core.Engine) error {
	tx, err := e.Begin(core.NoRestore)
	if err != nil {
		return err
	}
	if err := tx.SetRange(c.reg, 0, codaRegionBytes); err != nil {
		tx.Abort()
		return err
	}
	data := c.reg.Data()
	for off := 0; off < len(data); off += len(c.pad) {
		copy(data[off:], c.pad)
	}
	return tx.Commit(core.NoFlush)
}

func (c *coda) run(e *core.Engine, tr *tracer, rec *rangeLog, _, i int) error {
	op := &c.ops[c.tx[i]]
	keep := tr != nil && i < keepTx

	id, s := tr.call()
	tx, err := e.Begin(core.NoRestore)
	if err != nil {
		return err
	}
	tid := tx.ID()
	tr.done(spBegin, id, tid, s, keep)

	id, s = tr.call()
	for _, r := range op.ranges[:op.n] {
		off, n := int64(r.off), int64(r.n)
		if err = tx.SetRange(c.reg, off, n); err != nil {
			break
		}
		if r.dup {
			// A modular callee declares part of the range again, and then
			// the whole of it.
			if err = tx.SetRange(c.reg, off+n/2, n-n/2+8); err != nil {
				break
			}
			if err = tx.SetRange(c.reg, off, n); err != nil {
				break
			}
			n += 8
		}
		rec.add(off, n)
	}
	tr.done(spSetRange, id, tid, s, keep)
	if err != nil {
		tx.Abort()
		return err
	}
	data := c.reg.Data()
	for _, r := range op.ranges[:op.n] {
		copy(data[r.off:r.off+uint32(r.n)], c.pad[i&2047:])
	}

	id, s = tr.call()
	err = tx.Commit(core.NoFlush)
	tr.done(spCommit, id, tid, s, keep)
	return err
}

func (c *coda) userBytes(_, from, to int) int64 {
	var total int64
	for _, op := range c.tx[from:to] {
		total += int64(c.ops[op].distinct)
	}
	return total
}

// check has nothing of its own to verify: the region holds no invariant
// beyond the image itself, which the caller compares across a restart.
func (c *coda) check() error { return nil }
