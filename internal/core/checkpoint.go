package core

import (
	"time"

	"github.com/rvm-go/rvm/internal/obs"
)

// Checkpoint bounds the next restart by the log written after it: it is an
// incremental truncation down to an empty log (paper §5.1.2) that never
// falls back to an epoch.  It drains the spool, writes the queued dirty
// pages to their segments, syncs them, and moves the log's head past every
// record they cover; a restart reads from the head.
//
// Committers are never stalled: the pages go out through the page cleaner
// (clean), each page's region lock held only for that page's copy, and a
// page that stays pinned by an in-flight commit keeps the head at its first
// log reference instead of blocking anyone.  A checkpoint writes no record:
// the head in the log's status block is all a restart needs to know.
func (e *Engine) Checkpoint() error {
	if err := e.check(); err != nil {
		return err
	}
	t0 := time.Now()
	if err := e.claimTruncation(); err != nil {
		return err
	}
	e.met.OpEnter(obs.StallCheckpoint)
	pages, err := e.truncateClaimed(cleanEverything, &e.stats.CheckpointPages, false)
	e.met.OpExit(obs.StallCheckpoint)
	e.releaseTruncation()
	if err != nil {
		return err
	}
	e.stats.Checkpoints.Add(1)
	ns := time.Since(t0).Nanoseconds()
	e.met.ObserveCheckpoint(ns)
	_, head := e.log.Head()
	e.tr.SpanFor(obs.EvCheckpoint, t0, ns, 0, pages, head)
	return nil
}
