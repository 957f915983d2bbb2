package stream

import (
	"math"
	"math/rand"
	"testing"
)

// refScanRange is the pre-unroll scalar scan, kept verbatim as the oracle:
// one modular walk, `>=`/`<=` comparisons so ties refresh the index.
func refScanRange(ring []int64, a, jhi, k, w int64, mx, mxj, mn, mnj int64) (int64, int64, int64, int64) {
	jj := a % w
	kk := (a + k) % w
	for j := a; j < jhi; j++ {
		d := ring[kk] - ring[jj]
		if d >= mx {
			mx, mxj = d, j
		}
		if d <= mn {
			mn, mnj = d, j
		}
		if jj++; jj == w {
			jj = 0
		}
		if kk++; kk == w {
			kk = 0
		}
	}
	return mx, mxj, mn, mnj
}

// TestScanRangeDifferential fuzzes the unrolled scan against the scalar
// oracle across ring sizes, offsets, alignments (wrap positions), and data
// shapes chosen to stress tie-breaking and block skipping.
func TestScanRangeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	gens := map[string]func(n int) []int64{
		"constant": func(n int) []int64 { return make([]int64, n) }, // all differences tie at 0
		"monotone": func(n int) []int64 {
			vs := make([]int64, n)
			for i := range vs {
				vs[i] = int64(i) * 3
			}
			return vs
		},
		"sawtooth": func(n int) []int64 {
			vs := make([]int64, n)
			for i := range vs {
				vs[i] = int64(i % 5)
			}
			return vs
		},
		"twolevel": func(n int) []int64 { // long ties: many blocks tie the extremum
			vs := make([]int64, n)
			for i := range vs {
				vs[i] = int64((i / 7) % 2)
			}
			return vs
		},
		"random": func(n int) []int64 {
			vs := make([]int64, n)
			for i := range vs {
				vs[i] = rng.Int63n(1000) - 500
			}
			return vs
		},
		"extreme": func(n int) []int64 { // near-overflow magnitudes
			vs := make([]int64, n)
			for i := range vs {
				if i%2 == 0 {
					vs[i] = math.MaxInt64/2 - int64(i)
				} else {
					vs[i] = math.MinInt64/2 + int64(i)
				}
			}
			return vs
		},
	}
	for name, gen := range gens {
		for _, w := range []int64{8, 16, 31, 64} {
			ring := gen(int(w))
			for trial := 0; trial < 200; trial++ {
				k := 1 + rng.Int63n(w-1)
				// total simulates how far the stream has advanced, so a and
				// jhi land at arbitrary ring alignments including wraps.
				total := rng.Int63n(10 * w)
				if total < k+1 {
					total = k + 1
				}
				low := total - w
				if low < 0 {
					low = 0
				}
				jhi := total - k
				a := low + rng.Int63n(jhi-low+1)
				// Seed the running extrema three ways: fresh rescan, already
				// converged, and mid-range values that blocks can tie.
				seeds := [][4]int64{
					{math.MinInt64, -1, math.MaxInt64, -1},
					{0, low, 0, low},
					{5, low, -5, low},
				}
				for _, s := range seeds {
					gmx, gmxj, gmn, gmnj := scanRange(ring, a, jhi, k, w, s[0], s[1], s[2], s[3])
					wmx, wmxj, wmn, wmnj := refScanRange(ring, a, jhi, k, w, s[0], s[1], s[2], s[3])
					if gmx != wmx || gmxj != wmxj || gmn != wmn || gmnj != wmnj {
						t.Fatalf("%s w=%d k=%d a=%d jhi=%d seed=%v:\n got (mx=%d@%d mn=%d@%d)\nwant (mx=%d@%d mn=%d@%d)",
							name, w, k, a, jhi, s, gmx, gmxj, gmn, gmnj, wmx, wmxj, wmn, wmnj)
					}
				}
			}
		}
	}
}

// refInc mirrors the original self-contained Inc (its own ring, batches
// split into chunks of window−maxOff) with the scalar oracle scan, so
// whole-structure evolution (rescans on expiry, backlog splitting) is
// compared end to end against an independent implementation.
type refInc struct {
	maxOff, window int
	ring           []int64
	total          int64
	maxVal, maxIdx []int64
	minVal, minIdx []int64
}

func newRefInc(maxOff, window int) *refInc {
	r := &refInc{
		maxOff: maxOff, window: window,
		ring:   make([]int64, window),
		maxVal: make([]int64, maxOff), maxIdx: make([]int64, maxOff),
		minVal: make([]int64, maxOff), minIdx: make([]int64, maxOff),
	}
	for i := 0; i < maxOff; i++ {
		r.maxIdx[i] = -1
		r.minIdx[i] = -1
	}
	return r
}

func (x *refInc) push(vs []int64) {
	maxChunk := x.window - x.maxOff
	for len(vs) > maxChunk {
		x.pushChunk(vs[:maxChunk])
		vs = vs[maxChunk:]
	}
	if len(vs) > 0 {
		x.pushChunk(vs)
	}
}

func (x *refInc) pushChunk(vs []int64) {
	w := int64(x.window)
	start := x.total
	for i, v := range vs {
		x.ring[(start+int64(i))%w] = v
	}
	x.total += int64(len(vs))
	low := x.total - w
	if low < 0 {
		low = 0
	}
	kEff := x.total - 1
	if kEff > int64(x.maxOff) {
		kEff = int64(x.maxOff)
	}
	for k := int64(1); k <= kEff; k++ {
		jhi := x.total - k
		mx, mxj := x.maxVal[k-1], x.maxIdx[k-1]
		mn, mnj := x.minVal[k-1], x.minIdx[k-1]
		a := start - k
		if a < 0 {
			a = 0
		}
		if mxj < low || mnj < low {
			a = low
			mx, mxj = math.MinInt64, -1
			mn, mnj = math.MaxInt64, -1
		}
		mx, mxj, mn, mnj = refScanRange(x.ring, a, jhi, k, w, mx, mxj, mn, mnj)
		x.maxVal[k-1], x.maxIdx[k-1] = mx, mxj
		x.minVal[k-1], x.minIdx[k-1] = mn, mnj
	}
}

// offsetState returns offset k+1's recorded (max, index, min, index). Inc
// grows its arrays with the offsets its data covers, so an offset past
// their end reads as unscanned, value and index — both values 0, both
// indices −1 — which is what a freshly added offset and the reference's
// untouched ones hold.
func offsetState(maxVal, maxIdx, minVal, minIdx []int64, k int) [4]int64 {
	if k >= len(maxVal) {
		return [4]int64{0, -1, 0, -1}
	}
	return [4]int64{maxVal[k], maxIdx[k], minVal[k], minIdx[k]}
}

// TestIncDifferentialVsReference evolves Inc and the oracle through the same
// randomized batch schedule and demands full state equality after every
// batch — values AND indices, so rescan timing matches forever after.
func TestIncDifferentialVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	shapes := []func(i int) int64{
		func(i int) int64 { return 0 },
		func(i int) int64 { return int64(i) },
		func(i int) int64 { return int64(i % 9) },
		func(i int) int64 { return rng.Int63n(200) - 100 },
		// Crafted expiry: a huge spike early, then flat — the max expires as
		// the spike leaves the window, forcing the rescan path repeatedly.
		func(i int) int64 {
			if i%40 == 0 {
				return 1_000_000
			}
			return int64(i % 3)
		},
	}
	for si, shape := range shapes {
		for _, cfg := range []struct{ maxOff, window int }{{3, 8}, {7, 20}, {16, 64}} {
			inc := newRingInc(t, cfg.maxOff, cfg.window)
			ref := newRefInc(cfg.maxOff, cfg.window)
			n := 0
			for batch := 0; batch < 60; batch++ {
				b := 1 + rng.Intn(2*cfg.window) // backlogs up to two windows
				vs := make([]int64, b)
				for i := range vs {
					vs[i] = shape(n + i)
				}
				n += b
				inc.push(vs...)
				ref.push(vs)
				for k := 0; k < cfg.maxOff; k++ {
					got := offsetState(inc.maxVal, inc.maxIdx, inc.minVal, inc.minIdx, k)
					want := offsetState(ref.maxVal, ref.maxIdx, ref.minVal, ref.minIdx, k)
					if got != want {
						t.Fatalf("shape %d cfg %+v batch %d k=%d: inc (mx=%d@%d mn=%d@%d) != ref (mx=%d@%d mn=%d@%d)",
							si, cfg, batch, k+1, got[0], got[1], got[2], got[3], want[0], want[1], want[2], want[3])
					}
				}
			}
		}
	}
}
