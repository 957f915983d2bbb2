package main

import (
	"math"
	"sort"
)

// tailPercentiles are the candidate tail percentiles, highest first. A
// latency report uses the highest one that leaves at least minBeyond
// samples above it, so a short run never reports a "p99" that rests on one
// or two requests.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

const minBeyond = 10

// tailPct returns the highest percentile in tailPercentiles with at least
// minBeyond of n samples beyond it, or 0 when even the median has fewer.
func tailPct(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= minBeyond-1e-6 { // tolerate 100-99.9 rounding
			return p
		}
	}
	return 0
}

// quantile returns the p-th percentile (0..100) of sorted by nearest rank.
// Empty input reads NaN.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// latencySummary is one latency distribution: its median, its tail at the
// highest percentile the sample count supports (capped at p99, the metrics'
// name), and the count behind both.
type latencySummary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
}

// summarize sorts xs in place and summarizes it.
func summarize(xs []float64) latencySummary {
	sort.Float64s(xs)
	// Below 20 samples no tail exists and the median stands in.
	pct := min(99, max(50, tailPct(len(xs))))
	return latencySummary{N: len(xs), P50: quantile(xs, 50), Tail: quantile(xs, pct), TailPct: pct}
}

// median returns the median of xs (sorted in place); NaN when empty.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
