// Package stream maintains workload and arrival curves INCREMENTALLY over a
// sliding window of demand samples — the long-running-service counterpart of
// the batch extraction in internal/kernel.
//
// The batch kernel answers "given this whole trace, what are the curves?" in
// O(K·m). A service ingesting samples forever cannot afford that per sample.
// This package keeps the same quantities — for every offset k ≤ K the
// extrema of the k-differences data[j+k] − data[j], restricted to windows
// that lie entirely inside the last W data points — continuously up to date:
//
//   - workload curves: data is the running demand prefix sum, so
//     γᵘ(k)/γˡ(k) are the max/min k-differences (Def. 1 of the paper,
//     restricted to the sliding window);
//   - span tables: data is the event timestamps, so d(k)/D(k) are the
//     min/max (k−1)-differences.
//
// The structure is deliberately NOT the classic monotone deque. Per offset
// it stores only the current extremum and the (latest) window index
// achieving it — 4 int64 per offset, contiguous in memory. A batch of B new
// samples advances each offset with one branch-predictable linear scan over
// the B new windows; only when an offset's recorded extremal window falls
// out of the sliding window does that offset rescan its live range. The
// extremal position of non-adversarial data is uniform over the window, so
// a rescan costs O(W) with probability B/W per offset: expected amortized
// O(maxOff) per sample, the same bound as the deques — but the scans are
// sequential ring reads with rarely-taken branches (~10× cheaper per
// (sample, offset) pair than deque pushes, which chase ~2·maxOff scattered
// cache lines per sample and mispredict on every pop loop). Worst case
// (data crafted so an extremum expires every batch) degrades to O(maxOff·W)
// per batch — the cost of one batch kernel run, which is the natural
// ceiling anyway. Memory is O(W + maxOff), independent of data.
//
// Results are BIT-IDENTICAL to kernel.Extract over the current window
// contents: both compute exact int64 differences of the same values (the
// prefix-sum base cancels in every difference). Stream re-runs the batch
// kernel periodically as a correctness anchor and counts any disagreement in
// a drift counter (see Stream).
package stream

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadConfig is wrapped by every configuration-validation error of the
// package.
var ErrBadConfig = errors.New("stream: invalid configuration")

// Inc maintains, for every offset k = 1..maxOff, the extrema of the
// k-differences data[j+k] − data[j] over all windows contained in the last
// `window` pushed data points. It is the incremental counterpart of
// kernel.Extract; Push costs expected amortized O(maxOff).
type Inc struct {
	maxOff int
	window int     // max data points retained
	ring   []int64 // last ≤ window data points, ring[i % window]
	total  int64   // data points ever pushed

	// Per-offset extrema over the live windows, k−1 indexed. The idx
	// arrays hold the LATEST window start achieving the extremum (ties
	// break to the freshest index, maximizing its lifetime); −1 marks an
	// offset that has never been scanned.
	maxVal []int64
	maxIdx []int64
	minVal []int64
	minIdx []int64
}

// NewInc builds an incremental extractor for offsets 1..maxOff over a
// sliding window of `window` data points. Every offset must always have at
// least one live window, so 1 ≤ maxOff ≤ window−1.
func NewInc(maxOff, window int) (*Inc, error) {
	if maxOff < 1 || window < maxOff+1 {
		return nil, fmt.Errorf("%w: maxOff=%d, window=%d (need 1 ≤ maxOff ≤ window−1)",
			ErrBadConfig, maxOff, window)
	}
	x := &Inc{
		maxOff: maxOff,
		window: window,
		ring:   make([]int64, window),
		maxVal: make([]int64, maxOff),
		maxIdx: make([]int64, maxOff),
		minVal: make([]int64, maxOff),
		minIdx: make([]int64, maxOff),
	}
	for i := 0; i < maxOff; i++ {
		x.maxIdx[i] = -1
		x.minIdx[i] = -1
	}
	return x, nil
}

// Reset empties the extractor in place, keeping its buffers: afterwards it
// behaves exactly like a fresh NewInc with the same parameters.
func (x *Inc) Reset() {
	x.total = 0
	for i := range x.maxIdx {
		x.maxVal[i], x.maxIdx[i] = 0, -1
		x.minVal[i], x.minIdx[i] = 0, -1
	}
}

// Total returns the number of data points ever pushed.
func (x *Inc) Total() int64 { return x.total }

// Retained returns the number of data points currently in the window.
func (x *Inc) Retained() int {
	if x.total < int64(x.window) {
		return int(x.total)
	}
	return x.window
}

// EffOff returns the largest offset with at least one live window:
// min(maxOff, Retained()−1).
func (x *Inc) EffOff() int {
	e := x.Retained() - 1
	if e > x.maxOff {
		e = x.maxOff
	}
	return e
}

// Push appends one data point. Equivalent to PushBatch of a single value.
func (x *Inc) Push(v int64) {
	var one [1]int64
	one[0] = v
	x.pushChunk(one[:])
}

// PushBatch appends every value of vs in ingest order — the service ingest
// fast path. The final state is identical to calling Push per value, but
// each offset's extremum is advanced by ONE linear scan over the batch's
// new windows, so the per-offset state (4 int64) stays in registers while a
// whole chunk streams through it.
func (x *Inc) PushBatch(vs []int64) {
	// A chunk is capped at window−maxOff points: the ring slots it
	// overwrites then belong only to data points no live window still
	// references, so every difference a scan needs is available.
	maxChunk := x.window - x.maxOff
	for len(vs) > maxChunk {
		x.pushChunk(vs[:maxChunk])
		vs = vs[maxChunk:]
	}
	if len(vs) > 0 {
		x.pushChunk(vs)
	}
}

func (x *Inc) pushChunk(vs []int64) {
	w := int64(x.window)
	start := x.total
	for i, v := range vs {
		x.ring[(start+int64(i))%w] = v
	}
	x.total += int64(len(vs))
	low := x.total - w // oldest live window start (clamped below)
	if low < 0 {
		low = 0
	}
	kEff := x.total - 1
	if kEff > int64(x.maxOff) {
		kEff = int64(x.maxOff)
	}
	for k := int64(1); k <= kEff; k++ {
		jhi := x.total - k // windows are [j, j+k], j < jhi
		mx, mxj := x.maxVal[k-1], x.maxIdx[k-1]
		mn, mnj := x.minVal[k-1], x.minIdx[k-1]
		a := start - k // first NEW window (ends inside this chunk)
		if a < 0 {
			a = 0
		}
		if mxj < low || mnj < low {
			// A recorded extremal window expired (or the offset just
			// activated): rescan the whole live range. Rescanning windows
			// the fresh extremum already covers is idempotent, so one
			// fused scan serves both extrema.
			a = low
			mx, mxj = math.MinInt64, -1
			mn, mnj = math.MaxInt64, -1
		}
		mx, mxj, mn, mnj = scanRange(x.ring, a, jhi, k, w, mx, mxj, mn, mnj)
		x.maxVal[k-1], x.maxIdx[k-1] = mx, mxj
		x.minVal[k-1], x.minIdx[k-1] = mn, mnj
	}
}

// scanRange advances the running extrema (mx@mxj, mn@mnj) over the
// k-differences ring[(j+k)%w] − ring[j%w] for j in [a, jhi) and returns the
// updated state. It is the hot loop of the package — every (sample, offset)
// pair of an ingest passes through here — written for throughput but
// BIT-IDENTICAL to the naive scan (see TestScanRangeDifferential):
//
//   - the wrap-around modular walk is split into runs where both the j and
//     j+k columns are contiguous ring slices, so the per-element bounds
//     checks and wrap branches hoist out of the inner loop;
//   - each run is consumed in 8-wide blocks whose min/max fold into block
//     extrema first; a block whose max is strictly below mx AND whose min is
//     strictly above mn cannot change either extremum OR either index and is
//     skipped wholesale. Blocks that tie or beat fall back to the original
//     scalar `>=`/`<=` walk, preserving latest-index tie-breaking exactly —
//     the strictness of the skip test is what makes equality reach the
//     scalar path and refresh the index.
//
// On steady-state data the extrema advance rarely, so nearly every block
// takes the 8-comparison skip path with no index bookkeeping, and the loads
// are sequential with hoisted bounds — this is what buys the single-core
// throughput the 1→4 proc scaling figures are measured against.
func scanRange(ring []int64, a, jhi, k, w int64, mx, mxj, mn, mnj int64) (int64, int64, int64, int64) {
	jj := a % w
	kk := (a + k) % w
	for j := a; j < jhi; {
		// Longest run where neither column wraps.
		run := jhi - j
		if r := w - jj; r < run {
			run = r
		}
		if r := w - kk; r < run {
			run = r
		}
		lo := ring[jj : jj+run] // ring[j%w ...]
		hi := ring[kk : kk+run] // ring[(j+k)%w ...]
		var i int64
		for ; i+8 <= run; i += 8 {
			h := hi[i : i+8 : i+8]
			l := lo[i : i+8 : i+8]
			d0 := h[0] - l[0]
			d1 := h[1] - l[1]
			d2 := h[2] - l[2]
			d3 := h[3] - l[3]
			d4 := h[4] - l[4]
			d5 := h[5] - l[5]
			d6 := h[6] - l[6]
			d7 := h[7] - l[7]
			bmx := max(max(max(d0, d1), max(d2, d3)), max(max(d4, d5), max(d6, d7)))
			bmn := min(min(min(d0, d1), min(d2, d3)), min(min(d4, d5), min(d6, d7)))
			if bmx < mx && bmn > mn {
				continue // strictly inside (mn, mx): can't move values or indices
			}
			base := j + i
			if d0 >= mx {
				mx, mxj = d0, base
			}
			if d0 <= mn {
				mn, mnj = d0, base
			}
			if d1 >= mx {
				mx, mxj = d1, base+1
			}
			if d1 <= mn {
				mn, mnj = d1, base+1
			}
			if d2 >= mx {
				mx, mxj = d2, base+2
			}
			if d2 <= mn {
				mn, mnj = d2, base+2
			}
			if d3 >= mx {
				mx, mxj = d3, base+3
			}
			if d3 <= mn {
				mn, mnj = d3, base+3
			}
			if d4 >= mx {
				mx, mxj = d4, base+4
			}
			if d4 <= mn {
				mn, mnj = d4, base+4
			}
			if d5 >= mx {
				mx, mxj = d5, base+5
			}
			if d5 <= mn {
				mn, mnj = d5, base+5
			}
			if d6 >= mx {
				mx, mxj = d6, base+6
			}
			if d6 <= mn {
				mn, mnj = d6, base+6
			}
			if d7 >= mx {
				mx, mxj = d7, base+7
			}
			if d7 <= mn {
				mn, mnj = d7, base+7
			}
		}
		for ; i < run; i++ { // tail of the run, < 8 elements
			d := hi[i] - lo[i]
			if d >= mx {
				mx, mxj = d, j+i
			}
			if d <= mn {
				mn, mnj = d, j+i
			}
		}
		j += run
		if jj += run; jj == w {
			jj = 0
		}
		if kk += run; kk == w {
			kk = 0
		}
	}
	return mx, mxj, mn, mnj
}

// UpAt returns the maximum k-difference over the live windows. k must be in
// 1..EffOff().
func (x *Inc) UpAt(k int) (int64, error) {
	if k < 1 || k > x.EffOff() {
		return 0, fmt.Errorf("%w: offset k=%d, effective max %d", ErrBadConfig, k, x.EffOff())
	}
	return x.maxVal[k-1], nil
}

// LoAt returns the minimum k-difference over the live windows. k must be in
// 1..EffOff().
func (x *Inc) LoAt(k int) (int64, error) {
	if k < 1 || k > x.EffOff() {
		return 0, fmt.Errorf("%w: offset k=%d, effective max %d", ErrBadConfig, k, x.EffOff())
	}
	return x.minVal[k-1], nil
}

// AppendCurves appends the current extrema for offsets 0..EffOff() to up and
// lo (index 0 is 0 by construction, matching kernel.Extract) and returns the
// extended slices. Pass nil slices to allocate, or recycle buffers for
// zero-allocation snapshots.
func (x *Inc) AppendCurves(up, lo []int64) (outUp, outLo []int64) {
	eff := x.EffOff()
	up = append(up, 0)
	lo = append(lo, 0)
	up = append(up, x.maxVal[:eff]...)
	lo = append(lo, x.minVal[:eff]...)
	return up, lo
}

// Rebase subtracts delta from every retained data point. All maintained
// k-differences are invariant under a uniform shift, so only the ring
// changes; the caller must shift every subsequently pushed value by the same
// delta. Stream uses this to keep running prefix sums far from int64
// overflow on effectively endless streams.
func (x *Inc) Rebase(delta int64) {
	for i := range x.ring {
		x.ring[i] -= delta
	}
}
