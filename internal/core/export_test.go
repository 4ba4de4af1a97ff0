package core

// Test-only views of unexported engine state.

// spoolTIDs returns the transaction IDs of the spool entries, in spool (and
// so in commit) order.
func (e *Engine) spoolTIDs() []uint64 {
	p := &e.pipe
	p.mu.Lock()
	defer p.mu.Unlock()
	var tids []uint64
	for _, sp := range p.spool {
		tids = append(tids, sp.tid)
	}
	return tids
}

// spoolRefCount returns the spool references on page pg of r.
func (r *Region) spoolRefCount(pg int) int32 {
	p := &r.eng.pipe
	p.mu.Lock()
	defer p.mu.Unlock()
	return r.spoolRefs[pg]
}
