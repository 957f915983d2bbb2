package stream

// Differential tests: the incremental sliding-window state must be
// BIT-IDENTICAL to a full batch re-extraction (internal/kernel) of the
// current window contents — after every batch, for randomized demands,
// timestamps (including simultaneous events), window sizes, curve domains,
// batch splits and re-extraction policies.

import (
	"math/rand"
	"testing"

	"wcm/internal/kernel"
)

// batchCurves extracts ground truth for the last min(len, window) samples.
func batchCurves(t *testing.T, ts, d []int64, window, maxK int) (up, lo, dmin, dmax []int64) {
	t.Helper()
	n := len(d)
	if n > window {
		ts, d = ts[n-window:], d[n-window:]
		n = window
	}
	effK := maxK
	if effK > n {
		effK = n
	}
	prefix := make([]int64, n+1)
	for i, v := range d {
		prefix[i+1] = prefix[i] + v
	}
	up, lo, err := kernel.Extract(prefix, effK, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dmax, dmin, err = kernel.Extract(ts, effK-1, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return up, lo, dmin, dmax
}

func checkAgainstBatch(t *testing.T, s *Stream, ts, d []int64, window, maxK int) {
	t.Helper()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshotAgainstBatch(t, snap, ts, d, window, maxK)
}

func checkSnapshotAgainstBatch(t *testing.T, snap Snapshot, ts, d []int64, window, maxK int) {
	t.Helper()
	wantUp, wantLo, wantDmin, wantDmax := batchCurves(t, ts, d, window, maxK)
	effK := len(wantUp) - 1
	if snap.Workload.Upper.MaxK() != effK {
		t.Fatalf("workload domain %d, want %d (n=%d)", snap.Workload.Upper.MaxK(), effK, len(d))
	}
	for k := 0; k <= effK; k++ {
		if got := snap.Workload.Upper.MustAt(k); got != wantUp[k] {
			t.Fatalf("γᵘ(%d) = %d, want %d (n=%d, window=%d)", k, got, wantUp[k], len(d), window)
		}
		if got := snap.Workload.Lower.MustAt(k); got != wantLo[k] {
			t.Fatalf("γˡ(%d) = %d, want %d (n=%d, window=%d)", k, got, wantLo[k], len(d), window)
		}
	}
	if snap.Spans.MaxK() != effK {
		t.Fatalf("span domain %d, want %d", snap.Spans.MaxK(), effK)
	}
	for k := 2; k <= effK; k++ {
		gd, _ := snap.Spans.At(k)
		gD, _ := snap.MaxSpans.At(k)
		if gd != wantDmin[k-1] || gD != wantDmax[k-1] {
			t.Fatalf("spans(%d) = (%d, %d), want (%d, %d)", k, gd, gD, wantDmin[k-1], wantDmax[k-1])
		}
	}
}

func TestDifferentialIncrementalVsKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	for trial := 0; trial < 40; trial++ {
		window := 2 + rng.Intn(50)
		maxK := 1 + rng.Intn(window)
		reevery := []int{-1, 0, 1 + rng.Intn(2*window)}[rng.Intn(3)]
		total := 1 + rng.Intn(300)

		s, err := New(Config{Window: window, MaxK: maxK, ReextractEvery: reevery})
		if err != nil {
			t.Fatal(err)
		}

		ts := make([]int64, total)
		d := make([]int64, total)
		var now int64
		for i := range ts {
			// gap 0 keeps simultaneous events in play (d(k) = 0 paths).
			now += int64(rng.Intn(50))
			ts[i] = now
			d[i] = int64(rng.Intn(1000))
		}

		for i := 0; i < total; {
			b := 1 + rng.Intn(17)
			if i+b > total {
				b = total - i
			}
			if _, err := s.Ingest(ts[i:i+b], d[i:i+b]); err != nil {
				t.Fatal(err)
			}
			i += b
			checkAgainstBatch(t, s, ts[:i], d[:i], window, maxK)
		}
		if st := s.Stats(); st.Drift != 0 {
			t.Fatalf("trial %d: anchor drift %d (re-extractions %d)", trial, st.Drift, st.Reextractions)
		}
	}
}

// TestDifferentialForcedAnchors interleaves explicit Reextract calls with
// ingestion: the anchor must never disagree, whatever its cadence.
func TestDifferentialForcedAnchors(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s, err := New(Config{Window: 16, MaxK: 8, ReextractEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	var ts, d []int64
	var now int64
	for i := 0; i < 200; i++ {
		now += int64(rng.Intn(10))
		ts = append(ts, now)
		d = append(d, int64(rng.Intn(100)))
		if _, err := s.Ingest(ts[len(ts)-1:], d[len(d)-1:]); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if drift, err := s.Reextract(); err != nil || drift != 0 {
				t.Fatalf("step %d: drift=%d, %v", i, drift, err)
			}
		}
		checkAgainstBatch(t, s, ts, d, 16, 8)
	}
}

// BenchmarkIngest times ingest alone: validation, the O(batch) timestamp
// copy and prefix-sum append. The curves are settled by the next read; BenchmarkIngestSettle
// times the two together.
func BenchmarkIngest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const batch = 512
	ts := make([]int64, batch)
	d := make([]int64, batch)
	var now int64
	for i := range ts {
		now += int64(rng.Intn(1000))
		ts[i] = now
		d[i] = int64(rng.Intn(10_000))
	}
	step := ts[batch-1] + 1
	s, err := New(Config{Window: 4096, MaxK: 256})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Ingest(ts, d); err != nil {
			b.Fatal(err)
		}
		for j := range ts {
			ts[j] += step
		}
	}
	b.ReportMetric(float64(batch), "samples/op")
}

// BenchmarkIngestSettle times the ingest-then-read cycle of a live stream:
// a 64-sample batch into a full Window 1024 / MaxK 256 stream, then a
// Snapshot, which settles the batch into the extrema (the scan path).
func BenchmarkIngestSettle(b *testing.B) {
	const window, batch = 1024, 64
	rng := rand.New(rand.NewSource(1))
	s, err := New(Config{Window: window, MaxK: 256})
	if err != nil {
		b.Fatal(err)
	}
	ts := make([]int64, window)
	d := make([]int64, window)
	var now int64
	next := func(n int) {
		for i := 0; i < n; i++ {
			now += int64(rng.Intn(1000))
			ts[i] = now
			d[i] = int64(rng.Intn(10_000))
		}
		if _, err := s.Ingest(ts[:n], d[:n]); err != nil {
			b.Fatal(err)
		}
	}
	next(window)
	if _, err := s.Snapshot(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next(batch)
		if _, err := s.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(batch), "samples/op")
}
