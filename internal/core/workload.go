// Package core implements the paper's primary contribution: workload curves.
//
// Definition 1 of the paper: for a task τ triggered by a sequence of typed
// events, the upper workload curve γᵘ(k) and lower workload curve γˡ(k) give
// an upper (lower) bound on the number of processor cycles needed to process
// ANY k consecutive activations of τ:
//
//	γᵘ(k) = max_j γ_w(j, k)        γˡ(k) = min_j γ_b(j, k)
//
// Workload curves sit between the classical single-value WCET abstraction
// (safe but pessimistic — it ignores correlation between consecutive
// demands) and probabilistic execution-time models (tight but without hard
// guarantees). A workload curve is a guaranteed bound that still captures
// the structure of demand variability, e.g. "at most one expensive
// activation in any three".
//
// The package provides two construction routes, mirroring Section 2 of the
// paper:
//
//   - analytic construction from application constraints (Example 1's
//     polling task; type-count bounds), valid for hard real-time analysis;
//   - extraction from traces (Analyzer), valid as a guaranteed bound for
//     those traces — the route the paper uses for the MPEG-2 case study.
package core

import (
	"errors"
	"fmt"

	"wcm/internal/curve"
	"wcm/internal/events"
	"wcm/internal/kernel"
)

// Errors returned by this package.
var (
	ErrNoTraces   = errors.New("core: need at least one trace")
	ErrBadK       = errors.New("core: k must be within 1..trace length")
	ErrCrossed    = errors.New("core: lower curve exceeds upper curve")
	ErrBadPolling = errors.New("core: invalid polling-task parameters")
)

// Workload is a task's workload characterization: the pair (γᵘ, γˡ). The
// paper's properties hold by construction for values produced by this
// package: both curves are monotone with γ(0) = 0, γˡ ≤ γᵘ pointwise, γᵘ is
// subadditive and γˡ superadditive.
type Workload struct {
	Upper curve.Curve // γᵘ: worst-case cycles of any k consecutive activations
	Lower curve.Curve // γˡ: best-case cycles of any k consecutive activations
}

// WCET returns the task's worst-case execution time γᵘ(1).
// (The paper's running text transposes γᵘ(1)/γˡ(1) in one sentence; by
// Definition 1 the WCET is γᵘ(1).)
func (w Workload) WCET() int64 { return w.Upper.MustAt(1) }

// BCET returns the task's best-case execution time γˡ(1).
func (w Workload) BCET() int64 { return w.Lower.MustAt(1) }

// WCETOnly returns the single-value characterization the paper compares
// against: the line γ(k) = WCET·k ("WCET only" in Fig. 2 and Fig. 6).
func (w Workload) WCETOnly() curve.Curve { return curve.MustLinear(w.WCET()) }

// BCETOnly returns the line γ(k) = BCET·k ("BCET only" in Fig. 2 and Fig. 6).
func (w Workload) BCETOnly() curve.Curve { return curve.MustLinear(w.BCET()) }

// Validate checks the cross-curve invariants over k = 0..maxK: γˡ ≤ γᵘ, and
// both curves sandwiched between the BCET and WCET lines.
func (w Workload) Validate(maxK int) error {
	leq, err := w.Lower.LeqOn(w.Upper, maxK)
	if err != nil {
		return err
	}
	if !leq {
		return ErrCrossed
	}
	wcetLine, bcetLine := w.WCETOnly(), w.BCETOnly()
	if ok, err := w.Upper.LeqOn(wcetLine, maxK); err != nil || !ok {
		if err != nil {
			return err
		}
		return fmt.Errorf("core: γᵘ exceeds the WCET·k line")
	}
	if ok, err := bcetLine.LeqOn(w.Lower, maxK); err != nil || !ok {
		if err != nil {
			return err
		}
		return fmt.Errorf("core: γˡ below the BCET·k line")
	}
	return nil
}

// Gain computes the relative saving of the upper workload curve against the
// WCET line at k: 1 − γᵘ(k)/(k·WCET). This is the grey-shaded area of
// Fig. 2 expressed as a ratio; 0 means the curve degenerates to the WCET
// abstraction at that k.
func (w Workload) Gain(k int) (float64, error) {
	if k < 1 {
		return 0, ErrBadK
	}
	up, err := w.Upper.At(k)
	if err != nil {
		return 0, err
	}
	full := float64(k) * float64(w.WCET())
	if full == 0 {
		return 0, nil
	}
	return 1 - float64(up)/full, nil
}

// Analyzer extracts workload curves from a demand trace in the sense of
// Definition 1 restricted to the windows present in the trace. Extraction
// uses prefix sums: γᵘ(k) = max_j S[j+k] − S[j]. Single-k queries cost
// O(n) and are exposed so hot paths (the Fmin search of eq. 9) can
// evaluate lazily; full-curve extraction routes through the fused, blocked
// and pool-parallel kernel of internal/kernel, which computes γᵘ and γˡ
// together in ⌈K/B⌉ cache-resident passes instead of 2·K scattered ones.
type Analyzer struct {
	prefix []int64 // prefix[i] = sum of the first i demands; len = n+1
}

// NewAnalyzer builds an analyzer over a validated demand trace.
func NewAnalyzer(d events.DemandTrace) (*Analyzer, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	prefix := make([]int64, len(d)+1)
	for i, v := range d {
		prefix[i+1] = prefix[i] + v
	}
	return &Analyzer{prefix: prefix}, nil
}

// Len returns the trace length n.
func (a *Analyzer) Len() int { return len(a.prefix) - 1 }

// UpperAt returns γᵘ(k) = max over all length-k windows of the trace.
func (a *Analyzer) UpperAt(k int) (int64, error) {
	if k == 0 {
		return 0, nil
	}
	if k < 0 || k > a.Len() {
		return 0, fmt.Errorf("%w: k=%d, n=%d", ErrBadK, k, a.Len())
	}
	best := int64(-1)
	for j := 0; j+k < len(a.prefix); j++ {
		if v := a.prefix[j+k] - a.prefix[j]; v > best {
			best = v
		}
	}
	return best, nil
}

// LowerAt returns γˡ(k) = min over all length-k windows of the trace.
func (a *Analyzer) LowerAt(k int) (int64, error) {
	if k == 0 {
		return 0, nil
	}
	if k < 0 || k > a.Len() {
		return 0, fmt.Errorf("%w: k=%d, n=%d", ErrBadK, k, a.Len())
	}
	best := int64(-1)
	for j := 0; j+k < len(a.prefix); j++ {
		if v := a.prefix[j+k] - a.prefix[j]; best < 0 || v < best {
			best = v
		}
	}
	return best, nil
}

// UpperCurve materializes γᵘ on k = 0..maxK.
func (a *Analyzer) UpperCurve(maxK int) (curve.Curve, error) {
	w, err := a.Workload(maxK)
	if err != nil {
		return curve.Curve{}, err
	}
	return w.Upper, nil
}

// LowerCurve materializes γˡ on k = 0..maxK.
func (a *Analyzer) LowerCurve(maxK int) (curve.Curve, error) {
	w, err := a.Workload(maxK)
	if err != nil {
		return curve.Curve{}, err
	}
	return w.Lower, nil
}

// extract runs the shared kernel over the prefix array and packages the
// result as a curve pair. All full-curve extraction funnels through here.
func (a *Analyzer) extract(maxK int, opt kernel.Options) (Workload, error) {
	if maxK < 1 || maxK > a.Len() {
		return Workload{}, fmt.Errorf("%w: maxK=%d, n=%d", ErrBadK, maxK, a.Len())
	}
	upVals, loVals, err := kernel.Extract(a.prefix, maxK, opt)
	if err != nil {
		return Workload{}, err
	}
	up, err := curve.NewFinite(upVals)
	if err != nil {
		return Workload{}, err
	}
	lo, err := curve.NewFinite(loVals)
	if err != nil {
		return Workload{}, err
	}
	return Workload{Upper: up, Lower: lo}, nil
}

// WorkloadParallel extracts (γᵘ, γˡ) up to maxK with the k-range split
// across `workers` goroutines. It delegates to the shared kernel, which
// partitions k into CONTIGUOUS per-worker blocks: each worker writes a
// contiguous region of the result arrays (the previous strided-k split
// interleaved all workers' writes into the same cache lines — false
// sharing — and gave each worker the worst possible read locality).
// Results are identical to Workload; small inputs fall back to the
// sequential path so goroutine overhead never dominates.
func (a *Analyzer) WorkloadParallel(maxK, workers int) (Workload, error) {
	if workers < 1 {
		return Workload{}, fmt.Errorf("core: workers=%d", workers)
	}
	return a.extract(maxK, kernel.Options{Workers: workers})
}

// Workload extracts the full characterization (γᵘ, γˡ) up to maxK using
// the fused blocked kernel with its default worker pool (GOMAXPROCS-wide
// for large jobs, sequential below the size threshold).
func (a *Analyzer) Workload(maxK int) (Workload, error) {
	return a.extract(maxK, kernel.Options{})
}

// FromTrace extracts the workload characterization of a single demand trace
// up to window maxK.
func FromTrace(d events.DemandTrace, maxK int) (Workload, error) {
	a, err := NewAnalyzer(d)
	if err != nil {
		return Workload{}, err
	}
	return a.Workload(maxK)
}

// FromTraces extracts workload curves valid for a set of traces, as in the
// paper's case study: "the resulting ... workload curves were obtained by
// taking maximum over all respective curves of individual video clips"
// (maximum of the upper curves, minimum of the lower curves).
func FromTraces(traces []events.DemandTrace, maxK int) (Workload, error) {
	if len(traces) == 0 {
		return Workload{}, ErrNoTraces
	}
	acc, err := FromTrace(traces[0], maxK)
	if err != nil {
		return Workload{}, err
	}
	for _, d := range traces[1:] {
		w, err := FromTrace(d, maxK)
		if err != nil {
			return Workload{}, err
		}
		up, err := curve.Max(acc.Upper, w.Upper)
		if err != nil {
			return Workload{}, err
		}
		lo, err := curve.Min(acc.Lower, w.Lower)
		if err != nil {
			return Workload{}, err
		}
		acc = Workload{Upper: up, Lower: lo}
	}
	return acc, nil
}

// within caps n to the largest k both curves are defined at.
func (w Workload) within(n int) int {
	for _, c := range [2]curve.Curve{w.Upper, w.Lower} {
		if !c.Infinite() {
			n = min(n, c.MaxK())
		}
	}
	return n
}

// Violation reports where a demand trace breaks a workload characterization.
type Violation struct {
	Start int   // window start index (0-based)
	Len   int   // window length k
	Sum   int64 // observed demand of the window
	Bound int64 // the violated curve value
	Upper bool  // true: exceeded γᵘ; false: undercut γˡ
}

// Admits verifies that a COMPLETE demand trace is consistent with the
// characterization: every window of every length k within the curves'
// domain satisfies γˡ(k) ≤ Σ demand ≤ γᵘ(k). It returns the first
// violation found (scanning short windows first, so the report is the
// tightest inconsistency), or nil when the trace conforms.
//
// Admits is the offline audit: it sees the whole trace at once and costs
// O(K·n). For checking demands as they arrive, use Monitor (the O(window)
// per-sample streaming equivalent) — or stream.Stream.SetContract /
// wcmd's /contract + /verdict endpoints, which run the same per-sample
// check, Bounds.Check, over the stream's own prefix ring inside the live
// characterization service. The failure-injection tests use Admits to
// show the analysis guarantees are exactly as strong as the model.
func (w Workload) Admits(d events.DemandTrace) (*Violation, error) {
	a, err := NewAnalyzer(d)
	if err != nil {
		return nil, err
	}
	return w.AdmitsAnalyzed(a)
}

// AdmitsAnalyzed is Admits against a pre-built Analyzer: audit pipelines
// check the same trace against many candidate characterizations (or the
// same characterization repeatedly as curves are refined), and rebuilding
// the O(n) prefix array per check was pure waste. The scan itself runs on
// the fused blocked kernel — one cache-resident pass per k-block computing
// the min AND max window sum together — and exits on the first block
// containing a violation; only then is that single window length rescanned
// to locate the first offending window, so the reported Violation is
// exactly the one the naive shortest-window-first scan finds.
func (w Workload) AdmitsAnalyzed(a *Analyzer) (*Violation, error) {
	n := a.Len()
	maxK := w.within(n)
	if maxK < 1 {
		return nil, nil
	}
	var (
		scanErr  error
		badK     int
		badUp    int64
		badLo    int64
		violated bool
	)
	err := kernel.Scan(a.prefix, maxK, 0, func(k int, minSum, maxSum int64) bool {
		up, err := w.Upper.At(k)
		if err != nil {
			scanErr = err
			return false
		}
		lo, err := w.Lower.At(k)
		if err != nil {
			scanErr = err
			return false
		}
		if maxSum > up || minSum < lo {
			badK, badUp, badLo, violated = k, up, lo, true
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if scanErr != nil {
		return nil, scanErr
	}
	if !violated {
		return nil, nil
	}
	// Rescan the one violating window length for its first bad window.
	for j := 0; j+badK <= n; j++ {
		sum := a.prefix[j+badK] - a.prefix[j]
		if sum > badUp {
			return &Violation{Start: j, Len: badK, Sum: sum, Bound: badUp, Upper: true}, nil
		}
		if sum < badLo {
			return &Violation{Start: j, Len: badK, Sum: sum, Bound: badLo, Upper: false}, nil
		}
	}
	// Unreachable: the kernel found an extremum outside [lo, up].
	return nil, fmt.Errorf("core: internal scan inconsistency at k=%d", badK)
}

// WorstTrace synthesizes the greedy-worst demand sequence consistent with
// an upper workload curve: activation k (0-based) demands
// γᵘ(k+1) − γᵘ(k), front-loading every expensive activation. Any window
// [j, j+k) of the result sums to γᵘ(j+k) − γᵘ(j) ≤ γᵘ(k) (subadditivity),
// so the trace is admissible under the curve while realizing γᵘ(k) exactly
// on the prefix windows — the adversarial input for validating analyses by
// simulation.
//
// n must lie within the curve's domain: the admissibility argument needs
// the true curve differences (the subadditive extension of finite curves
// does NOT preserve it — its wrap-around windows can overshoot γᵘ).
func WorstTrace(gammaU curve.Curve, n int) (events.DemandTrace, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadK, n)
	}
	d := make(events.DemandTrace, n)
	for k := 0; k < n; k++ {
		hi, err := gammaU.At(k + 1)
		if err != nil {
			return nil, fmt.Errorf("core: WorstTrace needs γᵘ up to %d: %w", n, err)
		}
		d[k] = hi - gammaU.MustAt(k)
	}
	return d, nil
}

// FromSequence extracts the workload characterization of a typed event
// sequence (Fig. 1 of the paper): upper curve from the per-event WCETs,
// lower curve from the per-event BCETs.
func FromSequence(s *events.Sequence, maxK int) (Workload, error) {
	up, err := FromTrace(s.WorstDemands(), maxK)
	if err != nil {
		return Workload{}, err
	}
	lo, err := FromTrace(s.BestDemands(), maxK)
	if err != nil {
		return Workload{}, err
	}
	return Workload{Upper: up.Upper, Lower: lo.Lower}, nil
}
