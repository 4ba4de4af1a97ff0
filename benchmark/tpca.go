package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"

	"github.com/rvm-go/rvm/internal/core"
)

// The paper's TPC-A variant (§7.1.1) on the real engine: an array of
// 128-byte accounts and a trail of 64-byte audit records take half of
// recoverable memory each, and one page holds the teller and branch
// balances.  They are three regions of one segment.
const (
	accounts     = 32768
	accountSize  = 128
	auditSize    = 64
	accountBytes = accounts * accountSize
	auditBytes   = accountBytes
	auditSlots   = auditBytes / auditSize
	controlBytes = 4096
	// Each client is a teller in a branch of its own: two clients that
	// added to one balance without a lock would lose updates, and a lock
	// held to commit would measure the lock.  The slots are apart so the
	// engine logs four ranges per transaction, as the paper's does.
	tellerOff = 0
	branchOff = 2048
	slotBytes = 128
	// tpcaUserBytes is what one transaction declares: the account, the
	// audit record and the two balances.
	tpcaUserBytes = accountSize + auditSize + 8 + 8
	pageBytes     = 4096
	accountPages  = accountBytes / pageBytes
)

// transfer is one generated TPC-A transaction.
type transfer struct {
	account uint32
	delta   int32
}

// bank is the TPC-A application state over one engine.
type bank struct {
	mode      core.CommitMode
	acct      *core.Region
	audit     *core.Region
	control   *core.Region
	auditNext atomic.Uint64 // the audit trail's cursor, shared by the clients
	ops       [][]transfer  // per client
	applied   []int64       // per client: sum of the deltas committed
}

// newBank generates every client's transfers from the seed: the paper's
// localized pattern, 70 % of transactions on 5 % of the account pages,
// 25 % on another 15 %, 5 % on the rest.
func newBank(mode core.CommitMode, seed int64, clients, perClient int) *bank {
	b := &bank{mode: mode, ops: make([][]transfer, clients), applied: make([]int64, clients)}
	hot, warm := accountPages*5/100, accountPages*15/100
	for c := range b.ops {
		rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
		ops := make([]transfer, perClient)
		for i := range ops {
			var page int
			switch r := rng.Intn(100); {
			case r < 70:
				page = rng.Intn(hot)
			case r < 95:
				page = hot + rng.Intn(warm)
			default:
				page = hot + warm + rng.Intn(accountPages-hot-warm)
			}
			// Two clients never share an account: they would lose updates,
			// as two tellers without a lock would.
			account := page*(pageBytes/accountSize) + rng.Intn(pageBytes/accountSize)
			ops[i] = transfer{
				account: uint32(account/clients*clients + c),
				delta:   int32(rng.Intn(1999) - 999),
			}
		}
		b.ops[c] = ops
	}
	return b
}

func (b *bank) segmentBytes() int64 { return accountBytes + auditBytes + controlBytes }

func (b *bank) mapRegions(e *core.Engine, seg string) (err error) {
	if b.acct, err = e.Map(seg, 0, accountBytes); err != nil {
		return err
	}
	if b.audit, err = e.Map(seg, accountBytes, auditBytes); err != nil {
		return err
	}
	b.control, err = e.Map(seg, accountBytes+auditBytes, controlBytes)
	return err
}

func (b *bank) regions() []*core.Region { return []*core.Region{b.acct, b.audit, b.control} }

// preload gives every account its number, as a bank would at start-up, in
// no-flush transactions of 512 accounts.
func (b *bank) preload(e *core.Engine) error {
	const batch = 512
	b.auditNext.Store(0)
	clear(b.applied)
	for first := 0; first < accounts; first += batch {
		tx, err := e.Begin(core.NoRestore)
		if err != nil {
			return err
		}
		if err := tx.SetRange(b.acct, int64(first)*accountSize, batch*accountSize); err != nil {
			tx.Abort()
			return err
		}
		data := b.acct.Data()
		for a := first; a < first+batch; a++ {
			binary.LittleEndian.PutUint32(data[a*accountSize+8:], uint32(a))
		}
		if err := tx.Commit(core.NoFlush); err != nil {
			return err
		}
	}
	return nil
}

// run commits client's i-th transfer: it updates the account, the teller
// and the branch, and appends an audit record.
func (b *bank) run(e *core.Engine, tr *tracer, rec *rangeLog, client, i int) error {
	op := b.ops[client][i]
	keep := tr != nil && i < keepTx

	id, s := tr.call()
	tx, err := e.Begin(core.Restore)
	if err != nil {
		return err
	}
	tid := tx.ID()
	tr.done(spBegin, id, tid, s, keep)

	acctOff := int64(op.account) * accountSize
	slot := b.auditNext.Add(1) - 1
	auditOff := int64(slot%auditSlots) * auditSize
	teller := int64(tellerOff + client*slotBytes)
	branch := int64(branchOff + client*slotBytes)
	rec.add(acctOff, accountSize, accountBytes+auditOff, auditSize,
		accountBytes+auditBytes+teller, 8, accountBytes+auditBytes+branch, 8)

	id, s = tr.call()
	err = tx.SetRange(b.acct, acctOff, accountSize)
	if err == nil {
		err = tx.SetRange(b.audit, auditOff, auditSize)
	}
	if err == nil {
		err = tx.SetRange(b.control, teller, 8)
	}
	if err == nil {
		err = tx.SetRange(b.control, branch, 8)
	}
	tr.done(spSetRange, id, tid, s, keep)
	if err != nil {
		tx.Abort()
		return err
	}

	delta := uint64(int64(op.delta))
	acct := b.acct.Data()[acctOff : acctOff+accountSize]
	binary.LittleEndian.PutUint64(acct, binary.LittleEndian.Uint64(acct)+delta)
	audit := b.audit.Data()[auditOff : auditOff+auditSize]
	binary.LittleEndian.PutUint64(audit, slot)
	binary.LittleEndian.PutUint32(audit[8:], op.account)
	binary.LittleEndian.PutUint32(audit[12:], uint32(client))
	binary.LittleEndian.PutUint64(audit[16:], delta)
	ctl := b.control.Data()
	binary.LittleEndian.PutUint64(ctl[teller:], binary.LittleEndian.Uint64(ctl[teller:])+delta)
	binary.LittleEndian.PutUint64(ctl[branch:], binary.LittleEndian.Uint64(ctl[branch:])+delta)

	id, s = tr.call()
	err = tx.Commit(b.mode)
	tr.done(spCommit, id, tid, s, keep)
	if err == nil {
		b.applied[client] += int64(op.delta)
	}
	return err
}

func (b *bank) userBytes(_, from, to int) int64 { return int64(to-from) * tpcaUserBytes }

// checkBank is TPC-A's consistency condition on the three images: the account
// balances, the teller balances and the branch balances each sum to the
// deltas the clients committed, and each client's balances to its own.
func checkBank(acct, control []byte, applied []int64) error {
	var want, accts int64
	for c, sum := range applied {
		want += sum
		t := int64(binary.LittleEndian.Uint64(control[tellerOff+c*slotBytes:]))
		br := int64(binary.LittleEndian.Uint64(control[branchOff+c*slotBytes:]))
		if t != sum || br != sum {
			return fmt.Errorf("client %d committed %d, teller holds %d, branch %d", c, sum, t, br)
		}
	}
	for a := 0; a < accounts; a++ {
		accts += int64(binary.LittleEndian.Uint64(acct[a*accountSize:]))
		if id := binary.LittleEndian.Uint32(acct[a*accountSize+8:]); id != uint32(a) {
			return fmt.Errorf("account %d holds number %d", a, id)
		}
	}
	if accts != want {
		return fmt.Errorf("accounts sum to %d, clients committed %d", accts, want)
	}
	return nil
}

func (b *bank) check() error { return checkBank(b.acct.Data(), b.control.Data(), b.applied) }
