// Package kernel is the shared extraction kernel behind every curve
// extraction in the repository: workload curves γᵘ/γˡ (internal/core),
// minimal/maximal span tables d(k)/D(k) (internal/arrival) and the
// admissibility scan of the runtime monitor.
//
// All of these reduce to ONE primitive. Given a non-empty array
// data[0..m−1] and a window offset k, the k-differences are
//
//	diff(j, k) = data[j+k] − data[j]     for j = 0..m−1−k
//
// and the extraction needs, for every k in 1..maxK, the maximum and the
// minimum k-difference:
//
//   - workload curves: data is the demand prefix-sum array (m = n+1);
//     γᵘ(k) = max_j diff(j, k) and γˡ(k) = min_j diff(j, k);
//   - span tables: data is the timestamp array itself (m = n);
//     d(k) = min_j diff(j, k−1) and D(k) = max_j diff(j, k−1);
//   - admissibility: a window of length k violates (γˡ, γᵘ) iff the
//     minimum or maximum k-difference of the prefix array escapes
//     [γˡ(k), γᵘ(k)].
//
// The naive formulation (one full pass over data per curve per k) costs
// 2·K·m scattered reads. This kernel restructures the computation three
// ways, preserving bit-identical results (see ExtractNaive and the
// differential tests):
//
//  1. FUSE: max and min accumulate in the same pass, so data is read once
//     where the naive code reads it twice.
//  2. BLOCK over k: offsets are processed in contiguous groups of four by
//     a register-blocked micro-kernel — one streaming pass over data
//     serves four window lengths, with all eight max/min accumulators in
//     registers (wider grouping spills and measures slower), branchless
//     min/max updates (CMOV, no data-dependent branches) and equal-length
//     subslices so the compiler drops every bounds check. Passes over data
//     fall from 2 per offset to ¼, and data[j] is loaded once per four
//     windows. Options.BlockSize sets the outer scheduling granularity
//     (work chunks handed to the pool / early-exit quantum of Scan).
//  3. POOL-PARALLELIZE over contiguous k-blocks: the 1..maxK range is cut
//     into one contiguous chunk per worker, so each goroutine writes a
//     contiguous region of the result slices (no false sharing) and keeps
//     the best possible locality. Small inputs skip the pool entirely
//     (SeqThreshold) so goroutine overhead never dominates.
package kernel

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
)

// ErrBadInput is wrapped by every argument-validation error of the package.
var ErrBadInput = errors.New("kernel: invalid extraction input")

// DefaultBlockSize is the k-block width B: the granularity at which work
// is chunked (pool scheduling, Scan's early-exit quantum). The micro-
// kernel processes 4 offsets per streaming pass regardless; B only has to
// be large enough that per-block overhead stays negligible. The
// differential tests exercise many other widths.
const DefaultBlockSize = 64

// DefaultSeqThreshold is the approximate number of window evaluations
// (≈ maxK·m) below which Extract stays sequential: at ~tens of ns per
// goroutine handoff, smaller jobs finish faster on one core.
const DefaultSeqThreshold = 1 << 16

// Options tunes the kernel. The zero value picks defaults that are right
// for nearly all callers.
type Options struct {
	// BlockSize is the width of the contiguous k-blocks streamed per pass.
	// 0 means DefaultBlockSize.
	BlockSize int
	// Workers caps the worker pool. 0 means runtime.GOMAXPROCS(0);
	// 1 forces a sequential run.
	Workers int
	// SeqThreshold is the approximate window-evaluation count below which
	// the pool is skipped even when Workers > 1. 0 means
	// DefaultSeqThreshold; pass a negative value to force the pool on.
	SeqThreshold int64
}

func (o Options) blockSize() int {
	if o.BlockSize <= 0 {
		return DefaultBlockSize
	}
	return o.BlockSize
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

func (o Options) seqThreshold() int64 {
	if o.SeqThreshold == 0 {
		return DefaultSeqThreshold
	}
	if o.SeqThreshold < 0 {
		return 0
	}
	return o.SeqThreshold
}

func validate(m, maxK int) error {
	if m == 0 {
		return fmt.Errorf("%w: empty data", ErrBadInput)
	}
	if maxK < 0 || maxK > m-1 {
		return fmt.Errorf("%w: maxK=%d, len(data)=%d", ErrBadInput, maxK, m)
	}
	return nil
}

// Extract computes, for every offset k = 0..maxK, the extrema of the
// k-differences of data:
//
//	up[k] = max_j data[j+k] − data[j]
//	lo[k] = min_j data[j+k] − data[j]
//
// up[0] = lo[0] = 0 by construction. maxK must satisfy
// 0 ≤ maxK ≤ len(data)−1 so every offset has at least one window.
func Extract(data []int64, maxK int, opt Options) (up, lo []int64, err error) {
	if err := validate(len(data), maxK); err != nil {
		return nil, nil, err
	}
	up = make([]int64, maxK+1)
	lo = make([]int64, maxK+1)
	if err := ExtractInto(data, maxK, opt, up, lo); err != nil {
		return nil, nil, err
	}
	return up, lo, nil
}

// ExtractInto is Extract writing into caller-provided slices, for hot loops
// that re-extract periodically and want zero steady-state allocations (an
// internal/stream audit). up and lo must each hold at
// least maxK+1 elements; only indices 0..maxK are written.
func ExtractInto(data []int64, maxK int, opt Options, up, lo []int64) error {
	if err := validate(len(data), maxK); err != nil {
		return err
	}
	if len(up) < maxK+1 || len(lo) < maxK+1 {
		return fmt.Errorf("%w: result slices hold %d/%d values, need %d",
			ErrBadInput, len(up), len(lo), maxK+1)
	}
	up[0], lo[0] = 0, 0
	if maxK == 0 {
		return nil
	}

	work := int64(maxK) * int64(len(data))
	workers := opt.workers()
	if workers > maxK {
		workers = maxK
	}
	if workers <= 1 || work < opt.seqThreshold() {
		extractBlocked(data, 1, maxK, opt.blockSize(), up, lo)
		return nil
	}

	// Contiguous k-chunks: worker w owns [1+w·chunk, 1+(w+1)·chunk), so all
	// its writes to up/lo land in a contiguous region it alone touches.
	chunk := (maxK + workers - 1) / workers
	var wg sync.WaitGroup
	for kLo := 1; kLo <= maxK; kLo += chunk {
		kHi := kLo + chunk - 1
		if kHi > maxK {
			kHi = maxK
		}
		wg.Add(1)
		go func(kLo, kHi int) {
			defer wg.Done()
			extractBlocked(data, kLo, kHi, opt.blockSize(), up, lo)
		}(kLo, kHi)
	}
	wg.Wait()
	return nil
}

// extractBlocked fills up[k], lo[k] for k in [kLo, kHi] by streaming one
// fused pass per k-block of width blockSize.
func extractBlocked(data []int64, kLo, kHi, blockSize int, up, lo []int64) {
	for k := kLo; k <= kHi; k += blockSize {
		end := k + blockSize - 1
		if end > kHi {
			end = kHi
		}
		extractRange(data, k, end, up, lo)
	}
}

// extractRange fills up[k], lo[k] for k in [kLo, kHi] using the fused
// register-blocked micro-kernel: offsets are processed four at a time, so
// one streaming pass over data serves four window lengths with all eight
// max/min accumulators held in registers and data[j] loaded once per four
// windows. Compared to the naive code this cuts loads per window from 4
// (two passes × two loads) to 1.25 and passes over data from 2 per offset
// to ¼ per offset.
func extractRange(data []int64, kLo, kHi int, up, lo []int64) {
	k := kLo
	for ; k+3 <= kHi; k += 4 {
		extract4(data, k, up, lo)
	}
	for ; k <= kHi; k++ {
		extract1(data, k, up, lo)
	}
}

// extract4 computes the extrema for offsets k..k+3 in one fused pass.
// Accumulators start at the j=0 window of their offset (which always
// exists: k+3 ≤ maxK ≤ m−1); updates use the max/min builtins, which
// compile to branchless conditional moves — measurably faster here than
// compare-and-branch, whose taken/not-taken pattern is data-dependent.
func extract4(data []int64, k int, up, lo []int64) {
	m := len(data)
	b0 := data[0]
	u0, u1, u2, u3 := data[k]-b0, data[k+1]-b0, data[k+2]-b0, data[k+3]-b0
	l0, l1, l2, l3 := u0, u1, u2, u3
	n3 := m - (k + 3) // number of j positions where all four offsets fit
	// e_i[j] = data[(j+1)+k+i]: the four window ends for start j+1. All
	// four are resliced to exactly len(base) so every access below is
	// provably in bounds — the compiler drops the checks.
	base := data[1:n3]
	e0 := data[k+1:][:len(base)]
	e1 := data[k+2:][:len(base)]
	e2 := data[k+3:][:len(base)]
	e3 := data[k+4:][:len(base)]
	for j, b := range base {
		v0 := e0[j] - b
		u0, l0 = max(u0, v0), min(l0, v0)
		v1 := e1[j] - b
		u1, l1 = max(u1, v1), min(l1, v1)
		v2 := e2[j] - b
		u2, l2 = max(u2, v2), min(l2, v2)
		v3 := e3[j] - b
		u3, l3 = max(u3, v3), min(l3, v3)
	}
	// Ragged tail: the last ≤3 windows of the three shorter offsets.
	for j := n3; j < m-k; j++ {
		v := data[j+k] - data[j]
		if v > u0 {
			u0 = v
		}
		if v < l0 {
			l0 = v
		}
		if j < m-k-1 {
			v = data[j+k+1] - data[j]
			if v > u1 {
				u1 = v
			}
			if v < l1 {
				l1 = v
			}
		}
		if j < m-k-2 {
			v = data[j+k+2] - data[j]
			if v > u2 {
				u2 = v
			}
			if v < l2 {
				l2 = v
			}
		}
	}
	up[k], up[k+1], up[k+2], up[k+3] = u0, u1, u2, u3
	lo[k], lo[k+1], lo[k+2], lo[k+3] = l0, l1, l2, l3
}

// extract1 is the single-offset fused pass used for the ≤3 leftover
// offsets of a block. Same register-accumulator scheme as extract4.
func extract1(data []int64, k int, up, lo []int64) {
	u := data[k] - data[0]
	l := u
	base := data[1 : len(data)-k]
	dk := data[k+1:][:len(base)]
	for j, b := range base {
		v := dk[j] - b
		u, l = max(u, v), min(l, v)
	}
	up[k], lo[k] = u, l
}

// ExtractNaive is the textbook reference implementation: one full pass
// over data per curve per k, exactly as the pre-kernel extraction did it.
// It is kept as the ground truth for the differential/fuzz tests and as
// the baseline the benchmarks measure speedups against.
func ExtractNaive(data []int64, maxK int) (up, lo []int64, err error) {
	if err := validate(len(data), maxK); err != nil {
		return nil, nil, err
	}
	up = make([]int64, maxK+1)
	lo = make([]int64, maxK+1)
	for k := 1; k <= maxK; k++ {
		best := int64(math.MinInt64)
		for j := 0; j+k < len(data); j++ {
			if v := data[j+k] - data[j]; v > best {
				best = v
			}
		}
		up[k] = best
		worst := int64(math.MaxInt64)
		for j := 0; j+k < len(data); j++ {
			if v := data[j+k] - data[j]; v < worst {
				worst = v
			}
		}
		lo[k] = worst
	}
	return up, lo, nil
}

// Scan streams the fused blocked extraction in ascending-k order and hands
// each offset's extrema to visit(k, min, max). It stops (and skips all
// remaining passes) as soon as visit returns false — the early-exit shape
// of an admissibility check, where the first out-of-bounds window length
// terminates the scan. The visit order is deterministic: k = 1, 2, ...
func Scan(data []int64, maxK int, blockSize int, visit func(k int, lo, up int64) bool) error {
	if err := validate(len(data), maxK); err != nil {
		return err
	}
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	up := make([]int64, maxK+1)
	lo := make([]int64, maxK+1)
	for k := 1; k <= maxK; k += blockSize {
		end := k + blockSize - 1
		if end > maxK {
			end = maxK
		}
		extractRange(data, k, end, up, lo)
		for kk := k; kk <= end; kk++ {
			if !visit(kk, lo[kk], up[kk]) {
				return nil
			}
		}
	}
	return nil
}
