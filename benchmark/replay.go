package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/rvm-go/rvm/internal/itree"
	"github.com/rvm-go/rvm/internal/pagevec"
	"github.com/rvm-go/rvm/internal/recovery"
	"github.com/rvm-go/rvm/internal/segment"
	"github.com/rvm-go/rvm/internal/wal"
)

// replayTx is how many transactions of a traced run are replayed against
// the bare layers, and replayForceEvery how often the replay forces the log.
const (
	replayTx         = 20000
	replayForceEvery = 256
)

// rangeLog keeps the ranges client 0 declared in the first replayTx
// transactions of a traced window, in segment space.  A nil rangeLog
// records nothing.
type rangeLog struct {
	off, n []int64
	txEnd  []int // index into off/n one past each transaction's last range
}

func (r *rangeLog) full() bool { return r == nil || len(r.txEnd) >= replayTx }

// add records ranges given as offset, length pairs.
func (r *rangeLog) add(pairs ...int64) {
	if r.full() {
		return
	}
	for i := 0; i+1 < len(pairs); i += 2 {
		r.off = append(r.off, pairs[i])
		r.n = append(r.n, pairs[i+1])
	}
}

// end closes the current transaction.
func (r *rangeLog) end() {
	if !r.full() {
		r.txEnd = append(r.txEnd, len(r.off))
	}
}

// layerTimes are the replay's results, in the units the metric names say.
type layerTimes struct {
	walAppendNsPerRec, walAppendBytesPerRec                               float64
	walForceNs, walScanNsPerMB, walSetHeadNs                              float64
	itreeOverwriteNsPerRange, itreeKeepNsPerRange, itreeWalkNsPerInterval float64
	itreeIntervals                                                        float64
	collectEpochNsPerMB, applyNsPerMB, recoverNsPerMB                     float64
	queuePushPopNs, segmentWriteNsPerPage                                 float64
}

// replayLayers feeds the range stream the engine saw to each layer on its
// own and times the layer's public functions, so that a change inside one
// layer shows in that layer's number on the same inputs.
func replayLayers(r *rangeLog, segBytes int64, dir string, syncCost time.Duration) (lt layerTimes, err error) {
	if len(r.txEnd) == 0 {
		return lt, fmt.Errorf("no ranges recorded")
	}
	dir, err = os.MkdirTemp(dir, "replay-")
	if err != nil {
		return lt, err
	}
	defer os.RemoveAll(dir)
	devs := &devices{kind: "model"}
	devs.syncCost.Store(int64(syncCost))
	logPath, segPath := filepath.Join(dir, "replay.log"), filepath.Join(dir, "replay.seg")
	if err := wal.Create(logPath, 32<<20); err != nil {
		return lt, err
	}
	seg, err := segment.Create(segPath, 1, segBytes)
	if err != nil {
		return lt, err
	}
	if err := seg.Close(); err != nil {
		return lt, err
	}
	if seg, err = segment.OpenWith(segPath, devs.segment()); err != nil {
		return lt, err
	}
	defer seg.Close()
	dev, err := devs.log(logPath)
	if err != nil {
		return lt, err
	}
	log, err := wal.OpenDevice(dev)
	if err != nil {
		return lt, err
	}
	defer log.Close()
	lookup := func(uint64) (*segment.Segment, error) { return seg, nil }
	data := make([]byte, segBytes)
	for i := range data {
		data[i] = byte(i * 31)
	}
	txRanges := func(t int) []wal.Range {
		first := 0
		if t > 0 {
			first = r.txEnd[t-1]
		}
		rs := make([]wal.Range, 0, r.txEnd[t]-first)
		for i := first; i < r.txEnd[t]; i++ {
			rs = append(rs, wal.Range{Seg: 1, Off: uint64(r.off[i]), Data: data[r.off[i] : r.off[i]+r.n[i]]})
		}
		return rs
	}
	txs, nranges := len(r.txEnd), len(r.off)

	// wal: append every transaction as one record, forcing now and then.
	fill := func() (appendNs, forceNs, forces, bytes int64, err error) {
		for t := 0; t < txs; t++ {
			rs := txRanges(t)
			t0 := time.Now()
			_, _, n, err := log.Append(uint64(t+1), 0, rs)
			appendNs += time.Since(t0).Nanoseconds()
			if err != nil {
				return 0, 0, 0, 0, err
			}
			bytes += n
			if (t+1)%replayForceEvery == 0 || t == txs-1 {
				t0 = time.Now()
				err := log.Force()
				forceNs += time.Since(t0).Nanoseconds()
				forces++
				if err != nil {
					return 0, 0, 0, 0, err
				}
			}
		}
		return appendNs, forceNs, forces, bytes, nil
	}
	appendNs, forceNs, forces, logBytes, err := fill()
	if err != nil {
		return lt, err
	}
	mb := float64(logBytes) / 1e6
	lt.walAppendNsPerRec = float64(appendNs) / float64(txs)
	lt.walAppendBytesPerRec = float64(logBytes) / float64(txs)
	lt.walForceNs = float64(forceNs) / float64(forces)

	t0 := time.Now()
	if err := log.ScanForward(func(*wal.Record) error { return nil }); err != nil {
		return lt, err
	}
	lt.walScanNsPerMB = float64(time.Since(t0).Nanoseconds()) / mb

	// recovery: the epoch-truncation pair on the full log, then crash
	// recovery on the same records appended again.
	t0 = time.Now()
	epoch, err := recovery.CollectEpoch(log)
	if err != nil {
		return lt, err
	}
	lt.collectEpochNsPerMB = float64(time.Since(t0).Nanoseconds()) / mb
	t0 = time.Now()
	if _, err := epoch.Apply(lookup, nil); err != nil {
		return lt, err
	}
	lt.applyNsPerMB = float64(time.Since(t0).Nanoseconds()) / mb
	if _, _, _, _, err := fill(); err != nil {
		return lt, err
	}
	t0 = time.Now()
	if _, err := recovery.RecoverParallel(log, lookup, nil, recovery.Config{Parallelism: runtime.GOMAXPROCS(0)}); err != nil {
		return lt, err
	}
	lt.recoverNsPerMB = float64(time.Since(t0).Nanoseconds()) / mb

	// wal.SetHead on its own: one forced record, then the head moves past it.
	if _, _, _, err := log.Append(1, 0, txRanges(0)); err != nil {
		return lt, err
	}
	if err := log.Force(); err != nil {
		return lt, err
	}
	pos, seq := log.Tail()
	t0 = time.Now()
	if err := log.SetHead(pos, seq); err != nil {
		return lt, err
	}
	lt.walSetHeadNs = float64(time.Since(t0).Nanoseconds())

	// itree: oldest-first with overwrite, as epoch truncation inserts, and
	// newest-first keeping what is there, as recovery does.
	var over, keep itree.Tree
	t0 = time.Now()
	for i := 0; i < nranges; i++ {
		over.Insert(uint64(r.off[i]), data[r.off[i]:r.off[i]+r.n[i]], itree.OverwriteExisting)
	}
	lt.itreeOverwriteNsPerRange = float64(time.Since(t0).Nanoseconds()) / float64(nranges)
	lt.itreeIntervals = float64(over.Len())
	t0 = time.Now()
	for i := nranges - 1; i >= 0; i-- {
		keep.Insert(uint64(r.off[i]), data[r.off[i]:r.off[i]+r.n[i]], itree.KeepExisting)
	}
	lt.itreeKeepNsPerRange = float64(time.Since(t0).Nanoseconds()) / float64(nranges)
	var walked uint64
	t0 = time.Now()
	err = keep.Walk(func(iv itree.Interval) error { walked += uint64(len(iv.Data)); return nil })
	lt.itreeWalkNsPerInterval = float64(time.Since(t0).Nanoseconds()) / float64(keep.Len())
	if err != nil || walked != keep.Bytes() {
		return lt, fmt.Errorf("itree walk visited %d of %d bytes: %v", walked, keep.Bytes(), err)
	}

	// pagevec.Queue: one push per page a range touches, then pop them all.
	var q pagevec.Queue
	pages := make([]int64, 0, segBytes/pageBytes)
	ops := 0
	t0 = time.Now()
	for i := 0; i < nranges; i++ {
		for p := r.off[i] / pageBytes; p <= (r.off[i]+r.n[i]-1)/pageBytes; p++ {
			q.Push(pagevec.PageID{Page: p}, r.off[i], uint64(i))
			ops++
		}
	}
	for q.Len() > 0 {
		pages = append(pages, q.PopFirst().ID.Page)
		ops++
	}
	lt.queuePushPopNs = float64(time.Since(t0).Nanoseconds()) / float64(ops)

	// segment: write each touched page once, in queue order, and sync, as
	// truncation does.
	t0 = time.Now()
	for _, p := range pages {
		if err := seg.WriteAt(data[p*pageBytes:(p+1)*pageBytes], p*pageBytes); err != nil {
			return lt, err
		}
	}
	if err := seg.Sync(); err != nil {
		return lt, err
	}
	lt.segmentWriteNsPerPage = float64(time.Since(t0).Nanoseconds()) / float64(len(pages))
	return lt, nil
}
