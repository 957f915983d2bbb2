package stream

import (
	"fmt"
	"math/rand"
	"testing"

	"wcm/internal/core"
	"wcm/internal/curve"
)

// BenchmarkIngestContract times a 64-sample ingest into a full default
// stream with no contract and under contracts of 256 and 1024 windows.
// The contract admits every demand, so each sample checks every window,
// and it is installed before the window fills, so the contract has a full
// window of history in every timed batch.
func BenchmarkIngestContract(b *testing.B) {
	const batch = 64
	for _, window := range []int{0, 256, 1024} {
		name := "none"
		if window > 0 {
			name = fmt.Sprintf("window=%d", window)
		}
		b.Run(name, func(b *testing.B) {
			s, err := New(Config{})
			if err != nil {
				b.Fatal(err)
			}
			if window > 0 {
				up, lo := make([]int64, window+1), make([]int64, window+1)
				for k := range up {
					up[k] = 10_000 * int64(k)
				}
				w := core.Workload{Upper: curve.MustNew(up, 0, 0), Lower: curve.MustNew(lo, 0, 0)}
				if err := s.SetContract(w, window); err != nil {
					b.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(1))
			ts, d := make([]int64, batch), make([]int64, batch)
			var now int64
			for i := range ts {
				now += int64(rng.Intn(1000))
				ts[i], d[i] = now, int64(rng.Intn(10_000))
			}
			step := now + 1
			next := func() {
				if res, err := s.Ingest(ts, d); err != nil || res.Violation != nil {
					b.Fatal(err, res.Violation)
				}
				for i := range ts {
					ts[i] += step
				}
			}
			for i := 0; i < DefaultWindow/batch; i++ {
				next()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next()
			}
			b.ReportMetric(batch, "samples/op")
		})
	}
}

// refMonitor is the contract check as it ran before the stream read its
// own prefix ring: a private ring of the last window demands, summed afresh
// for every sample with a modulo and two Curve.At calls per k. The
// differential below holds the stream's check and core.Monitor to it.
type refMonitor struct {
	w      core.Workload
	window int
	buf    []int64 // the last ≤ window demands
	head   int     // next write position
	count  int     // filled entries (≤ window)
	pushed int64   // activations observed
}

func newRefMonitor(w core.Workload, window int) *refMonitor {
	if !w.Upper.Infinite() && w.Upper.MaxK() < window {
		window = w.Upper.MaxK()
	}
	if !w.Lower.Infinite() && w.Lower.MaxK() < window {
		window = w.Lower.MaxK()
	}
	return &refMonitor{w: w, window: window, buf: make([]int64, window)}
}

func (m *refMonitor) push(demand int64) *core.Violation {
	m.buf[m.head] = demand
	m.head = (m.head + 1) % m.window
	if m.count < m.window {
		m.count++
	}
	m.pushed++
	var sum int64
	for k := 1; k <= m.count; k++ {
		sum += m.buf[(m.head-k+m.window*2)%m.window]
		up, lo := m.w.Upper.MustAt(k), m.w.Lower.MustAt(k)
		if sum > up {
			return &core.Violation{Start: int(m.pushed) - k, Len: k, Sum: sum, Bound: up, Upper: true}
		}
		if sum < lo {
			return &core.Violation{Start: int(m.pushed) - k, Len: k, Sum: sum, Bound: lo}
		}
	}
	return nil
}

func sameViolation(a, b *core.Violation) bool {
	return (a == nil && b == nil) || (a != nil && b != nil && *a == *b)
}

// randomContract draws curves of a random domain (1..window+3) that a
// demand in [0, 10] both overruns and undercuts now and then; with
// generous set, the curves admit every such demand, so every window is
// checked to its full length.
func randomContract(rng *rand.Rand, window int, generous bool) core.Workload {
	n := 2 + rng.Intn(window+3)
	up, lo := make([]int64, n), make([]int64, n)
	for k := 1; k < n; k++ {
		if generous {
			up[k] = 10 * int64(k)
			continue
		}
		up[k] = up[k-1] + 4 + rng.Int63n(6)
		lo[k] = lo[k-1] + rng.Int63n(5)
	}
	return core.Workload{Upper: curve.MustNew(up, 0, 0), Lower: curve.MustNew(lo, 0, 0)}
}

// TestContractDifferential feeds a stream, core.Monitor and refMonitor the
// same seeded histories and compares every violation field by field: the
// stream's first violation per batch, its cumulative count and its first
// violation ever, and core.Monitor's answer to every push. The histories
// cover windows 1..W and omitted; batches of 1 to 3W samples, single and
// through IngestBatches; contracts installed on an empty stream, mid-fill,
// after the ring wraps and re-installed; upper and lower violations; and
// prefix sums driven past 2⁶³ before the install.
func TestContractDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 300; trial++ {
		W := 2 + rng.Intn(15)
		s, err := New(Config{Window: W, MaxK: 1 + rng.Intn(W)})
		if err != nil {
			t.Fatal(err)
		}
		var (
			now, count int64
			first      *core.Violation
			ref        *refMonitor
			mon        *core.Monitor
		)
		gen := func(n int, huge bool) Batch {
			b := Batch{Ts: make([]int64, n), Demands: make([]int64, n)}
			for i := range b.Ts {
				now += rng.Int63n(3)
				b.Ts[i], b.Demands[i] = now, rng.Int63n(11)
				if huge {
					b.Demands[i] = 1<<62 + rng.Int63n(1<<40)
				}
			}
			return b
		}
		install := func() {
			window := rng.Intn(W + 1) // 0: omitted
			w := randomContract(rng, W, rng.Intn(4) == 0)
			if err := s.SetContract(w, window); err != nil {
				t.Fatal(err)
			}
			if window == 0 {
				window = W
			}
			ref = newRefMonitor(w, window)
			if mon, err = core.NewMonitor(w, window); err != nil {
				t.Fatal(err)
			}
		}
		// Where the contract first goes in: on the empty stream, mid-fill
		// or after the ring wraps, the last behind prefix sums past 2⁶³.
		switch rng.Intn(4) {
		case 1:
			b := gen(1+rng.Intn(W-1), false)
			if _, err := s.Ingest(b.Ts, b.Demands); err != nil {
				t.Fatal(err)
			}
		case 2:
			b := gen(W+1+rng.Intn(2*W), false)
			if _, err := s.Ingest(b.Ts, b.Demands); err != nil {
				t.Fatal(err)
			}
		case 3:
			b := gen(3+rng.Intn(W), true)
			if _, err := s.Ingest(b.Ts, b.Demands); err != nil {
				t.Fatal(err)
			}
		}
		install()
		for step := 0; step < 12; step++ {
			if rng.Intn(6) == 0 {
				install()
			}
			batches := make([]Batch, 1+rng.Intn(3))
			for i := range batches {
				batches[i] = gen(1+rng.Intn(3*W), rng.Intn(20) == 0)
			}
			results := make([]BatchResult, len(batches))
			if rng.Intn(2) == 0 {
				s.IngestBatches(batches, results)
			} else {
				for i, b := range batches {
					results[i].Res, results[i].Err = s.Ingest(b.Ts, b.Demands)
				}
			}
			for i, b := range batches {
				var want *core.Violation
				for _, d := range b.Demands {
					v := ref.push(d)
					got, err := mon.Push(d)
					if err != nil || !sameViolation(got, v) {
						t.Fatalf("trial %d step %d: core.Monitor %+v %v, reference %+v", trial, step, got, err, v)
					}
					if v != nil {
						count++
						if first == nil {
							first = v
						}
						if want == nil {
							want = v
						}
					}
				}
				res := results[i].Res
				if results[i].Err != nil || !sameViolation(res.Violation, want) || res.Violations != count {
					t.Fatalf("trial %d step %d batch %d (window %d, %d samples): stream %+v (%d, %v), reference %+v (%d)",
						trial, step, i, ref.window, len(b.Demands), res.Violation, res.Violations, results[i].Err, want, count)
				}
			}
			if st := s.Stats(); !sameViolation(st.FirstViolation, first) || st.Violations != count {
				t.Fatalf("trial %d step %d: first violation %+v (%d), reference %+v (%d)",
					trial, step, st.FirstViolation, st.Violations, first, count)
			}
		}
	}
}
