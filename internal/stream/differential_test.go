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
		auditEvery := []int{0, 1, 1 + rng.Intn(8)}[rng.Intn(3)] // batches per audit; 0 = none
		total := 1 + rng.Intn(300)

		s, err := New(Config{Window: window, MaxK: maxK})
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

		for i, batches := 0, 1; i < total; batches++ {
			b := 1 + rng.Intn(17)
			if i+b > total {
				b = total - i
			}
			if _, err := s.Ingest(ts[i:i+b], d[i:i+b]); err != nil {
				t.Fatal(err)
			}
			i += b
			if auditEvery > 0 && batches%auditEvery == 0 {
				if _, err := s.Reextract(); err != nil {
					t.Fatal(err)
				}
			}
			checkAgainstBatch(t, s, ts[:i], d[:i], window, maxK)
		}
		if st := s.Stats(); st.Mismatches != 0 {
			t.Fatalf("trial %d: %d audit mismatches (%d audits)", trial, st.Mismatches, st.Audits)
		}
	}
}

// TestDifferentialForcedAnchors interleaves explicit Reextract calls (audits)
// with ingestion: an audit must never disagree, whatever its cadence.
func TestDifferentialForcedAnchors(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s, err := New(Config{Window: 16, MaxK: 8})
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
			if mismatches, err := s.Reextract(); err != nil || mismatches != 0 {
				t.Fatalf("step %d: mismatches=%d, %v", i, mismatches, err)
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
// Snapshot, which settles the batch into the extrema (the scan path). The
// rows differ in the demands: pseudo-random ones, whose extrema rarely
// expire; a rising trend, whose every γˡ extremum expires each batch; and
// a decreasing sawtooth (teeth of three windows), whose γᵘ extrema do.
func BenchmarkIngestSettle(b *testing.B) {
	const window, batch = 1024, 64
	rng := rand.New(rand.NewSource(1))
	for _, row := range []struct {
		name   string
		demand func(i int64) int64
	}{
		{"random", func(int64) int64 { return int64(rng.Intn(10_000)) }},
		{"trend", func(i int64) int64 { return 1000 + i }},
		{"sawtooth", func(i int64) int64 { return 10_000 - 3*(i%(3*window)) }},
	} {
		b.Run(row.name, func(b *testing.B) {
			s, err := New(Config{Window: window, MaxK: 256})
			if err != nil {
				b.Fatal(err)
			}
			ts := make([]int64, window)
			d := make([]int64, window)
			var now, n int64
			next := func(m int) {
				for i := 0; i < m; i++ {
					now += int64(rng.Intn(1000))
					ts[i], d[i] = now, row.demand(n)
					n++
				}
				if _, err := s.Ingest(ts[:m], d[:m]); err != nil {
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
		})
	}
}
