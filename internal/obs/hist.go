package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Hist is a log-linear histogram: every power-of-two octave is cut into
// four equal sub-buckets (values below 8 get a bucket each), so a value
// is known to within a quarter of itself — tight enough that the p50s of
// a commit's phases add up to the commit's p50 (DESIGN.md §14), which
// whole octaves miss by a third.  Observing is one index computation and
// a few atomic adds — no locks, no allocation.
//
// The zero Hist is ready to use.  All methods are safe for concurrent
// use.
type Hist struct {
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [numBuckets]atomic.Uint64
}

// numBuckets covers the whole uint64 range: 0..3 exactly, then four
// sub-buckets for each of the octaves [2^2, 2^3) .. [2^63, 2^64).
const numBuckets = 4 + 4*62

// bucketOf returns the index of the bucket v lands in.
func bucketOf(u uint64) int {
	if u < 4 {
		return int(u)
	}
	e := bits.Len64(u) - 1 // the octave: 2^e <= u < 2^(e+1), e >= 2
	return 4*(e-1) + int(u>>(e-2))&3
}

// bucketRange returns bucket i's lowest value and its width.
func bucketRange(i int) (lo, width uint64) {
	if i < 4 {
		return uint64(i), 1
	}
	e := i/4 + 1
	return uint64(4+i%4) << (e - 2), 1 << (e - 2)
}

// Observe records one value.  Negative values are clamped to zero.  It is
// the out-of-line call of the observation path — too big for the inliner,
// which is what lets the nil-safe (*Metrics).Observe* wrappers around it
// inline into their callers, so an engine without metrics pays a nil
// check, not a call (TestObserveEntryPointsInline).
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	h.sum.Add(u)
	for {
		cur := h.max.Load()
		if u <= cur || h.max.CompareAndSwap(cur, u) {
			break
		}
	}
	h.buckets[bucketOf(u)].Add(1)
}

// HistStat is a JSON-marshalable summary of a histogram: cumulative
// count (the sum of the buckets) and sum plus quantiles estimated from the
// buckets (each quantile is interpolated inside the bucket it falls in, so
// it is accurate to within a quarter of its value).
type HistStat struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
}

// Snapshot summarizes the histogram.  Buckets are read without a global
// lock, so a snapshot taken during concurrent observation is consistent
// per counter, not across counters — fine for monitoring.
func (h *Hist) Snapshot() HistStat {
	var counts [numBuckets]uint64
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	st := HistStat{Count: total, Sum: h.sum.Load(), Max: int64(h.max.Load())}
	if total == 0 {
		return st
	}
	st.Mean = float64(st.Sum) / float64(total)
	st.P50 = quantile(&counts, total, 0.50)
	st.P90 = quantile(&counts, total, 0.90)
	st.P99 = quantile(&counts, total, 0.99)
	if st.Max > 0 {
		// Bucket midpoints can overshoot the true maximum; clamping
		// every quantile also keeps them mutually ordered.
		for _, p := range []*int64{&st.P50, &st.P90, &st.P99} {
			if *p > st.Max {
				*p = st.Max
			}
		}
	}
	return st
}

// quantile returns the estimated q-quantile: a point inside the bucket
// containing the q*total'th observation, linearly interpolated by the
// rank's position within the bucket.
func quantile(counts *[numBuckets]uint64, total uint64, q float64) int64 {
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range counts {
		if seen+c >= rank {
			return bucketAt(i, float64(rank-seen)/float64(c))
		}
		seen += c
	}
	return bucketAt(numBuckets-1, 1)
}

// bucketAt returns the point a fraction frac (in (0, 1]) of the way
// through bucket i, never past the bucket's last value.
func bucketAt(i int, frac float64) int64 {
	lo, width := bucketRange(i)
	off := uint64(float64(width) * frac)
	if off >= width {
		off = width - 1
	}
	return int64(min(lo+off, math.MaxInt64))
}
