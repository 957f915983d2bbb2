package stream

// CatchUp is the settle fast path: one linear scan per offset over the
// backlog's new windows (with full rescans whenever a recorded extremum
// expires), reading the caller's ring. These tests pin it bit-for-bit —
// values and indices — to catching up one data point at a time, across
// backlogs up to several windows, ring wraparound and degenerate
// window/offset combinations.

import (
	"math/rand"
	"testing"
)

// ringInc is an Inc that owns its data ring, for tests that drive the
// tracker on its own: push writes values into the ring and catches up.
type ringInc struct {
	*Inc
	ring    []int64
	written int64
}

func newRingInc(t testing.TB, maxOff, window int) *ringInc {
	t.Helper()
	x, err := NewInc(maxOff, window)
	if err != nil {
		t.Fatal(err)
	}
	return &ringInc{Inc: x, ring: make([]int64, window)}
}

func (r *ringInc) push(vs ...int64) {
	for _, v := range vs {
		r.ring[r.written%int64(len(r.ring))] = v
		r.written++
	}
	r.CatchUp(r.ring, r.written)
}

// incEqual compares the full observable state of two extractors: retained
// counts and every live extremum.
func incEqual(t *testing.T, got, want *Inc, ctx string) {
	t.Helper()
	if got.Total() != want.Total() || got.Retained() != want.Retained() || got.EffOff() != want.EffOff() {
		t.Fatalf("%s: totals (%d,%d,%d) vs (%d,%d,%d)", ctx,
			got.Total(), got.Retained(), got.EffOff(),
			want.Total(), want.Retained(), want.EffOff())
	}
	for k := 1; k <= want.EffOff(); k++ {
		gu, err1 := got.UpAt(k)
		wu, err2 := want.UpAt(k)
		gl, err3 := got.LoAt(k)
		wl, err4 := want.LoAt(k)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			t.Fatalf("%s: query errors at k=%d: %v %v %v %v", ctx, k, err1, err2, err3, err4)
		}
		if gu != wu || gl != wl {
			t.Fatalf("%s: k=%d: batch (%d,%d), sequential (%d,%d)", ctx, k, gu, gl, wu, wl)
		}
		if got.maxIdx[k-1] != want.maxIdx[k-1] || got.minIdx[k-1] != want.minIdx[k-1] {
			t.Fatalf("%s: k=%d: batch indices (%d,%d), sequential (%d,%d)", ctx, k,
				got.maxIdx[k-1], got.minIdx[k-1], want.maxIdx[k-1], want.minIdx[k-1])
		}
	}
}

// checkBatchMatchesSeq pushes data into one tracker in batches of sizes()
// points, each caught up with a single CatchUp, and into its twin one data
// point at a time, and requires identical values and indices after every
// batch and identical curves at the end.
func checkBatchMatchesSeq(t *testing.T, window, maxOff int, data []int64, sizes func() int) {
	t.Helper()
	batch := newRingInc(t, maxOff, window)
	seq := newRingInc(t, maxOff, window)
	for i := 0; i < len(data); {
		b := min(sizes(), len(data)-i)
		batch.push(data[i : i+b]...)
		for _, v := range data[i : i+b] {
			seq.push(v)
		}
		i += b
		incEqual(t, batch.Inc, seq.Inc, "mid-stream")
	}
	// AppendCurves must agree too (it reads every offset at once).
	bu, bl := batch.AppendCurves(nil, nil)
	su, sl := seq.AppendCurves(nil, nil)
	if len(bu) != len(su) {
		t.Fatalf("curve lengths %d vs %d", len(bu), len(su))
	}
	for k := range bu {
		if bu[k] != su[k] || bl[k] != sl[k] {
			t.Fatalf("AppendCurves k=%d: (%d,%d) vs (%d,%d)", k, bu[k], bl[k], su[k], sl[k])
		}
	}
}

// TestPushBatchMatchesPush pushes batches of 1, 7, W−K, W−1, W and 3W data
// points (and random sizes between), each caught up with one CatchUp, and
// requires the tracker to match its twin pushed one data point at a time.
func TestPushBatchMatchesPush(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	for trial := 0; trial < 60; trial++ {
		window := 2 + rng.Intn(40)
		maxOff := 1 + rng.Intn(window-1)
		if trial%10 == 0 {
			maxOff = window - 1 // W−K = 1: every window is live for one point only
		}
		data := make([]int64, 1+rng.Intn(8*window)) // several ring wraps
		for i := range data {
			// Mix drifting runs (extrema survive) with jumps (extrema expire).
			if rng.Intn(3) == 0 {
				data[i] = rng.Int63n(1 << 30)
			} else if i > 0 {
				data[i] = data[i-1] + rng.Int63n(100) - 50
			}
		}
		backlogs := []int{1, 7, window - maxOff, window - 1, window, 3 * window}
		checkBatchMatchesSeq(t, window, maxOff, data, func() int {
			if rng.Intn(4) == 0 {
				return 1 + rng.Intn(2*window)
			}
			return backlogs[rng.Intn(len(backlogs))]
		})
	}
}

// TestPushBatchSingleChunkCap exercises the degenerate maxOff = window−1
// configuration, where every window is live for one data point only, with
// the whole backlog caught up at once.
func TestPushBatchSingleChunkCap(t *testing.T) {
	checkBatchMatchesSeq(t, 4, 3, []int64{5, 1, 4, 9, 2, 2, 7, 0, 3, 8}, func() int { return 10 })
}
