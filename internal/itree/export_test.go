package itree

// CheckInvariants exposes the internal structural check to tests.
func (t *Tree) CheckInvariants() { t.checkInvariants() }

// Intervals returns a copy of the maximal intervals for white-box assertions.
func (t *Tree) Intervals() []Interval {
	var out []Interval
	t.Walk(func(iv Interval) error {
		out = append(out, Interval{Off: iv.Off, Data: append([]byte(nil), iv.Data...)})
		return nil
	})
	return out
}

// Get reads the byte at off, reporting whether it is covered.  The engine
// only ever walks a tree; point reads are the tests' oracle.
func (t *Tree) Get(off uint64) (byte, bool) {
	cs := t.pages[off>>pageShift]
	rel := uint32(off & (pageSize - 1))
	if i := search(cs, rel); i < len(cs) && cs[i].off <= rel {
		return t.data(cs[i])[rel-cs[i].off], true
	}
	return 0, false
}
