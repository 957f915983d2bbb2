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
// ceiling anyway. The trackers read the stream's own rings, so the window
// is stored once; the extrema are allocated at the first read and grow
// with the offsets the window has data for, up to maxOff.
//
// Results are BIT-IDENTICAL to kernel.Extract over the current window
// contents: both compute exact int64 differences of the same values. The
// prefix-sum base cancels in every difference, and so does int64
// wrap-around: an endless stream's running sum may overflow, but a window
// difference that fits in int64 is exact modulo 2⁶⁴. An audit
// (Stream.Reextract, or a caller's sampled auditor through Stream.Audit)
// re-runs the batch kernel over the window, counts any disagreement as a
// mismatch and rebuilds from the window (see Stream).
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
// `window` data points. It keeps no copy of the data: CatchUp reads the
// caller's ring, so the caller's window is the only one. It is the
// incremental counterpart of kernel.Extract; catching up costs expected
// amortized O(maxOff) per data point.
type Inc struct {
	maxOff int
	window int   // data points the caller's ring retains
	total  int64 // data points caught up with

	// Per-offset extrema over the live windows, k−1 indexed, grown by
	// CatchUp to cover the offsets it has data for (see growExtrema). The
	// idx arrays hold the LATEST window start achieving the extremum (ties
	// break to the freshest index, maximizing its lifetime); −1 marks an
	// offset not scanned since the last Reset or since it was added.
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
	return &Inc{maxOff: maxOff, window: window}, nil
}

// Reset forgets every data point and recorded extremum, keeping the
// buffers: the next CatchUp rescans every offset from scratch.
func (x *Inc) Reset() {
	x.total = 0
	for i := range x.maxIdx {
		x.maxIdx[i], x.minIdx[i] = -1, -1
	}
}

// Total returns the number of data points caught up with.
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

// CatchUp advances the extrema from the data points already caught up with
// to the first `total` ones. ring holds the newest min(total, window) of
// them, data point i at ring[i % window], so every difference a live
// window needs is there however long the backlog is. len(ring) is window,
// or, before the window first fills, at least total: no index has wrapped
// yet, so i % window is i either way.
//
// Each offset makes ONE linear scan over its new windows, keeping its
// state (4 int64) in registers while the backlog streams through it. If a
// recorded extremal window has slid out — a backlog of a whole window
// expires them all — the offset rescans its live range instead. Either way
// the state is the (value, latest index) of each extremum over the live
// windows, so it does not depend on how the backlog was split.
func (x *Inc) CatchUp(ring []int64, total int64) {
	start := x.total
	x.total = total
	kEff := min(total-1, int64(x.maxOff))
	x.growExtrema(int(kEff))
	w := int64(x.window)
	low := max(total-w, 0) // oldest live window start
	for k := int64(1); k <= kEff; k++ {
		jhi := total - k // windows are [j, j+k], j < jhi
		mx, mxj := x.maxVal[k-1], x.maxIdx[k-1]
		mn, mnj := x.minVal[k-1], x.minIdx[k-1]
		a := max(start-k, 0) // first NEW window
		if mxj < low || mnj < low {
			// A recorded extremal window expired (or the offset was just
			// activated or forgotten): rescan the whole live range.
			// Rescanning windows the fresh extremum already covers is
			// idempotent, so one fused scan serves both extrema.
			a = low
			mx, mxj = math.MinInt64, -1
			mn, mnj = math.MaxInt64, -1
		}
		mx, mxj, mn, mnj = scanRange(ring, a, jhi, k, w, mx, mxj, mn, mnj)
		x.maxVal[k-1], x.maxIdx[k-1] = mx, mxj
		x.minVal[k-1], x.minIdx[k-1] = mn, mnj
	}
}

// minGrow is the smallest buffer growth allocates: a stream's rings hold at
// least this many samples, a tracker's extrema this many offsets.
const minGrow = 8

// growExtrema makes the extrema cover offsets 1..n: short of maxOff it
// doubles them (at least to n, at most to maxOff), keeping the recorded
// offsets and adding unscanned ones, which CatchUp rescans as just
// activated.
func (x *Inc) growExtrema(n int) {
	c := len(x.maxVal)
	if c >= n {
		return
	}
	m := min(max(n, 2*c, minGrow), x.maxOff)
	buf := make([]int64, 4*m)
	maxVal, maxIdx, minVal, minIdx := buf[:m:m], buf[m:2*m:2*m], buf[2*m:3*m:3*m], buf[3*m:]
	copy(maxVal, x.maxVal)
	copy(maxIdx, x.maxIdx)
	copy(minVal, x.minVal)
	copy(minIdx, x.minIdx)
	for i := c; i < m; i++ {
		maxIdx[i], minIdx[i] = -1, -1
	}
	x.maxVal, x.maxIdx, x.minVal, x.minIdx = maxVal, maxIdx, minVal, minIdx
}

// covers reports whether the extrema already hold every offset a catch-up
// to the first total data points scans, so it would allocate none.
func (x *Inc) covers(total int64) bool {
	return total > 1 && int64(len(x.maxVal)) >= min(total-1, int64(x.maxOff))
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
