package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// CountNumBuckets is the number of finite buckets of a CountHist. Bucket i
// counts observations with value ≤ 2^i, so the finite range spans 1 ..
// 2^15 = 32768; anything larger lands in the +Inf bucket. The serving layer
// records streams per /v1/query batch and spans per trace here — both
// bounded well inside the range.
const CountNumBuckets = 16

// CountHist is Histogram's sibling for dimensionless counts instead of
// durations: lock-free, fixed power-of-two buckets, three atomic adds per
// observation, zero value ready to use. The same mid-observation snapshot
// caveat as Histogram applies.
type CountHist struct {
	counts [CountNumBuckets + 1]atomic.Uint64 // [CountNumBuckets] is +Inf
	count  atomic.Uint64
	sum    atomic.Int64
}

// CountBucketIndex returns the index of the finite bucket covering n, or
// CountNumBuckets (the +Inf bucket) when n exceeds the finite range.
// Bucket i covers (2^(i-1), 2^i], with bucket 0 absorbing everything ≤ 1.
func CountBucketIndex(n int64) int {
	if n <= 1 {
		return 0
	}
	i := bits.Len64(uint64(n - 1)) // smallest i with 2^i ≥ n
	if i > CountNumBuckets-1 {
		return CountNumBuckets
	}
	return i
}

// CountUpperBound returns bucket i's inclusive upper bound (2^i), or +Inf
// for the overflow bucket.
func CountUpperBound(i int) float64 {
	if i >= CountNumBuckets {
		return math.Inf(1)
	}
	return float64(int64(1) << i)
}

// Observe records one count. Negative values (impossible sizes) count as 0.
func (h *CountHist) Observe(n int64) {
	if n < 0 {
		n = 0
	}
	h.counts[CountBucketIndex(n)].Add(1)
	h.count.Add(1)
	h.sum.Add(n)
}

// Count returns the number of observations recorded so far.
func (h *CountHist) Count() uint64 { return h.count.Load() }

// CountHistSnapshot is a point-in-time copy of a CountHist's cells.
type CountHistSnapshot struct {
	Counts [CountNumBuckets + 1]uint64 // per-bucket (non-cumulative) counts
	Count  uint64                      // total observations
	Sum    int64                       // summed observed values
}

// Snapshot copies the histogram's cells.
func (h *CountHist) Snapshot() CountHistSnapshot {
	var s CountHistSnapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// CumulativeCount returns the number of observations in buckets 0..i — the
// Prometheus bucket value for le = CountUpperBound(i).
func (s CountHistSnapshot) CumulativeCount(i int) uint64 {
	var c uint64
	for j := 0; j <= i && j < len(s.Counts); j++ {
		c += s.Counts[j]
	}
	return c
}

// Mean returns the average observed count, or 0 when empty.
func (s CountHistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
