package core

import "fmt"

// Bounds is a runtime contract's curves as plain slices: up[k] = γᵘ(k) and
// lo[k] = γˡ(k) for k = 0..Window(). Copying them once at install means
// the per-sample check reads two slices and evaluates no curve.
type Bounds struct {
	up, lo []int64
}

// NewBounds works out a contract's window and copies w's curves on it.
// Window 0 means "as far as both curves are defined", and never more than
// limit; an explicit window above limit is an error, and one above the
// curves' common domain is capped to it.
func NewBounds(w Workload, window, limit int) (Bounds, error) {
	if window < 0 || window > limit {
		return Bounds{}, fmt.Errorf("%w: window=%d (limit %d)", ErrBadK, window, limit)
	}
	if window == 0 {
		window = limit
	}
	if window = w.within(window); window < 1 {
		return Bounds{}, fmt.Errorf("%w: curves define no window", ErrBadK)
	}
	b := Bounds{up: make([]int64, window+1), lo: make([]int64, window+1)}
	for k := range b.up {
		b.up[k], b.lo[k] = w.Upper.MustAt(k), w.Lower.MustAt(k)
	}
	return b, nil
}

// Window returns the longest window the bounds check.
func (b Bounds) Window() int { return len(b.up) - 1 }

// Check checks every window of k = 1..min(seen, Window()) demands ending at
// the newest sample of a prefix-sum ring: ring[end] is the sum through that
// sample and ring[(end−k) mod len(ring)] the sum before the window, so the
// window sums to their difference (exact under int64 wrap-around). seen
// counts the samples since the first one the contract covers, and the ring
// must hold min(seen, Window())+1 sums. Windows are checked shortest
// first, γᵘ before γˡ at each k, and the first violation is returned, its
// Start counted from that first covered sample; nil means none.
func (b Bounds) Check(ring []int64, end, seen int) *Violation {
	n := min(seen, b.Window())
	top := ring[end]
	k := 1
	// The earlier sums, newest first, are two contiguous runs read
	// backwards: the slots below end, then, once the window reaches back
	// past slot 0, the slots above it.
	for _, run := range [2][]int64{ring[:end], ring[end+1:]} {
		m := min(len(run), n+1-k)
		r := run[len(run)-m:]
		up, lo := b.up[k:k+m], b.lo[k:k+m]
		lo = lo[:len(up)]
		for j := range up {
			sum := top - r[len(r)-1-j]
			if sum > up[j] {
				return &Violation{Start: seen - k - j, Len: k + j, Sum: sum, Bound: up[j], Upper: true}
			}
			if sum < lo[j] {
				return &Violation{Start: seen - k - j, Len: k + j, Sum: sum, Bound: lo[j]}
			}
		}
		k += m
	}
	return nil
}

// Monitor is the streaming counterpart of Workload.Admits: it watches a
// live sequence of per-activation demands and reports, at each new
// activation, whether some window ENDING at it violates the upper or lower
// workload curve. A deployed system can run one next to each task whose
// schedulability argument assumed the curves, turning the model into an
// enforceable runtime contract (cf. the paper's requirement that curves
// "represent guaranteed bounds").
//
// The monitor keeps the prefix sums of its last `window` demands and runs
// Bounds.Check on them, the check stream.Stream runs on its own window;
// each Push costs O(window).
type Monitor struct {
	b      Bounds
	ring   []int64 // ring[i % len] is the sum of the first i demands
	pushed int64   // total activations observed
}

// NewMonitor builds a monitor checking windows up to `window` ≥ 1
// activations (capped to the curves' common domain).
func NewMonitor(w Workload, window int) (*Monitor, error) {
	b, err := NewBounds(w, window, window)
	if err != nil {
		return nil, err
	}
	return &Monitor{b: b, ring: make([]int64, b.Window()+1)}, nil
}

// Window returns the effective window length.
func (m *Monitor) Window() int { return m.b.Window() }

// Pushed returns the total number of activations observed.
func (m *Monitor) Pushed() int64 { return m.pushed }

// Push records the demand of the next activation and checks every window
// ending at it. A non-nil Violation reports the tightest (shortest)
// violated window; Start is the absolute activation index (0-based).
func (m *Monitor) Push(demand int64) (*Violation, error) {
	if demand < 0 {
		return nil, fmt.Errorf("core: negative demand %d", demand)
	}
	w := int64(len(m.ring))
	prev := m.ring[m.pushed%w]
	m.pushed++
	end := int(m.pushed % w)
	m.ring[end] = prev + demand
	return m.b.Check(m.ring, end, int(m.pushed)), nil
}
