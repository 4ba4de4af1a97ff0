package core

// Test-only views of unexported engine state.

// spoolTIDs returns the transaction IDs of the live spool entries, in
// spool (and so in log) order.
func (e *Engine) spoolTIDs() []uint64 {
	p := &e.pipe
	p.mu.Lock()
	defer p.mu.Unlock()
	var tids []uint64
	for _, sp := range p.spool {
		if !sp.dead {
			tids = append(tids, sp.tid)
		}
	}
	return tids
}

// spoolChecks returns how many full subsumption checks the spool has run:
// what a no-flush commit pays for the spool it joins.
func (e *Engine) spoolChecks() uint64 {
	p := &e.pipe
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.spoolChecks
}

// spoolRefCount returns the live spool references on page pg of r.
func (r *Region) spoolRefCount(pg int) int32 {
	p := &r.eng.pipe
	p.mu.Lock()
	defer p.mu.Unlock()
	return r.spoolRefs[pg]
}
