package stream

import (
	"math/rand"
	"testing"

	"wcm/internal/core"
	"wcm/internal/curve"
)

// buildBatches generates a randomized schedule of ingest batches, a fraction
// of them invalid (regressing timestamp or negative demand) so the coalesced
// path's skip-and-continue behavior is exercised between valid runs.
func buildBatches(rng *rand.Rand, nBatches int) []Batch {
	batches := make([]Batch, nBatches)
	t := int64(1000)
	for i := range batches {
		n := 1 + rng.Intn(40)
		ts := make([]int64, n)
		ds := make([]int64, n)
		for j := 0; j < n; j++ {
			t += rng.Int63n(5)
			ts[j] = t
			ds[j] = rng.Int63n(50)
		}
		switch rng.Intn(10) {
		case 0: // timestamp regression inside the batch
			ts[rng.Intn(n)] = 1
		case 1: // negative demand
			ds[rng.Intn(n)] = -3
		case 2: // length mismatch
			ds = ds[:n-1]
		}
		batches[i] = Batch{Ts: ts, Demands: ds}
	}
	return batches
}

func streamStateEqual(t *testing.T, tag string, a, b *Stream) {
	t.Helper()
	if a.total != b.total || a.lastT != b.lastT || a.settled != b.settled ||
		a.sinceAnchor != b.sinceAnchor || a.reextractions != b.reextractions ||
		a.drift != b.drift || a.violations != b.violations {
		t.Fatalf("%s: scalar state diverged:\n seq (total=%d lastT=%d settled=%d anchor=%d reex=%d drift=%d viol=%d)\n coa (total=%d lastT=%d settled=%d anchor=%d reex=%d drift=%d viol=%d)",
			tag,
			a.total, a.lastT, a.settled, a.sinceAnchor, a.reextractions, a.drift, a.violations,
			b.total, b.lastT, b.settled, b.sinceAnchor, b.reextractions, b.drift, b.violations)
	}
	if a.version.Load() != b.version.Load() {
		t.Fatalf("%s: version diverged: seq %d, coalesced %d", tag, a.version.Load(), b.version.Load())
	}
	if !equal(a.prefix, b.prefix) || !equal(a.times, b.times) {
		t.Fatalf("%s: ring contents diverged", tag)
	}
	if !equal(a.pre.maxVal, b.pre.maxVal) || !equal(a.pre.maxIdx, b.pre.maxIdx) ||
		!equal(a.pre.minVal, b.pre.minVal) || !equal(a.pre.minIdx, b.pre.minIdx) {
		t.Fatalf("%s: demand Inc state diverged", tag)
	}
	if (a.spi == nil) != (b.spi == nil) {
		t.Fatalf("%s: spi presence diverged", tag)
	}
	if a.spi != nil {
		if !equal(a.spi.maxVal, b.spi.maxVal) || !equal(a.spi.maxIdx, b.spi.maxIdx) ||
			!equal(a.spi.minVal, b.spi.minVal) || !equal(a.spi.minIdx, b.spi.minIdx) {
			t.Fatalf("%s: span Inc state diverged", tag)
		}
	}
}

// TestIngestBatchesDifferential drives the same batch schedule through
// sequential Ingest calls and through IngestBatches in random groupings, and
// requires identical per-batch results (counts, totals, violation
// attribution, errors) and identical full stream state after every group.
func TestIngestBatchesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	cfgs := []Config{
		{Window: 64, MaxK: 16, ReextractEvery: 32},
		{Window: 64, MaxK: 16, ReextractEvery: 7}, // anchors mid-batch, constantly
		{Window: 32, MaxK: 8, ReextractEvery: -1}, // no anchors
		{Window: 16, MaxK: 1},                     // spi == nil
	}
	for ci, cfg := range cfgs {
		for trial := 0; trial < 20; trial++ {
			seq, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			coa, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			withMonitor := trial%2 == 0
			if withMonitor {
				// A tight contract most random batches violate somewhere, so
				// per-batch violation attribution is exercised hard.
				up, err := curve.NewFinite([]int64{0, 30, 55})
				if err != nil {
					t.Fatal(err)
				}
				lo, err := curve.NewFinite([]int64{0, 0, 0})
				if err != nil {
					t.Fatal(err)
				}
				w := core.Workload{Upper: up, Lower: lo}
				if err := seq.SetContract(w, 2); err != nil {
					t.Fatal(err)
				}
				if err := coa.SetContract(w, 2); err != nil {
					t.Fatal(err)
				}
			}
			batches := buildBatches(rng, 30)
			results := make([]BatchResult, len(batches))
			for i := 0; i < len(batches); {
				g := 1 + rng.Intn(6) // coalesce group size, incl. 1
				if i+g > len(batches) {
					g = len(batches) - i
				}
				group := batches[i : i+g]
				coa.IngestBatches(group, results[i:i+g])
				for bi, b := range group {
					wantRes, wantErr := seq.Ingest(b.Ts, b.Demands)
					got := results[i+bi]
					if (wantErr == nil) != (got.Err == nil) ||
						(wantErr != nil && wantErr.Error() != got.Err.Error()) {
						t.Fatalf("cfg %d trial %d batch %d: err mismatch:\n seq: %v\n coa: %v",
							ci, trial, i+bi, wantErr, got.Err)
					}
					if wantErr != nil {
						continue
					}
					if got.Res.Accepted != wantRes.Accepted || got.Res.Total != wantRes.Total ||
						got.Res.Violations != wantRes.Violations || got.Res.Drift != wantRes.Drift {
						t.Fatalf("cfg %d trial %d batch %d: result mismatch:\n seq: %+v\n coa: %+v",
							ci, trial, i+bi, wantRes, got.Res)
					}
					sv, cv := wantRes.Violation, got.Res.Violation
					if (sv == nil) != (cv == nil) {
						t.Fatalf("cfg %d trial %d batch %d: violation presence mismatch: seq %v, coa %v",
							ci, trial, i+bi, sv, cv)
					}
					if sv != nil && *sv != *cv {
						t.Fatalf("cfg %d trial %d batch %d: violation mismatch:\n seq: %+v\n coa: %+v",
							ci, trial, i+bi, *sv, *cv)
					}
				}
				streamStateEqual(t, "mid-schedule", seq, coa)
				i += g
			}
			// Final snapshots must agree wholesale (curves, spans, stats).
			ss, serr := seq.Snapshot()
			cs, cerr := coa.Snapshot()
			if (serr == nil) != (cerr == nil) {
				t.Fatalf("cfg %d trial %d: snapshot err mismatch: %v vs %v", ci, trial, serr, cerr)
			}
			if serr == nil && (ss.Version != cs.Version || ss.Total != cs.Total || ss.InWindow != cs.InWindow) {
				t.Fatalf("cfg %d trial %d: snapshot mismatch: %+v vs %+v", ci, trial, ss, cs)
			}
		}
	}
}

// TestIngestBatchesSingleEqualsIngest: a 1-batch IngestBatches must behave
// exactly like Ingest even for edge batches (empty, mismatched lengths).
func TestIngestBatchesSingleEqualsIngest(t *testing.T) {
	mk := func() *Stream {
		s, err := New(Config{Window: 16, MaxK: 4, ReextractEvery: 8})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []Batch{
		{Ts: nil, Demands: nil},
		{Ts: []int64{1, 2}, Demands: []int64{5}},
		{Ts: []int64{5, 4}, Demands: []int64{1, 1}},
		{Ts: []int64{5, 6}, Demands: []int64{1, -1}},
		{Ts: []int64{5, 6, 7}, Demands: []int64{1, 2, 3}},
	}
	for i, b := range cases {
		seq, coa := mk(), mk()
		wantRes, wantErr := seq.Ingest(b.Ts, b.Demands)
		var res [1]BatchResult
		coa.IngestBatches([]Batch{b}, res[:])
		if (wantErr == nil) != (res[0].Err == nil) ||
			(wantErr != nil && wantErr.Error() != res[0].Err.Error()) {
			t.Fatalf("case %d: err mismatch: %v vs %v", i, wantErr, res[0].Err)
		}
		if wantErr == nil && res[0].Res != wantRes {
			t.Fatalf("case %d: result mismatch: %+v vs %+v", i, wantRes, res[0].Res)
		}
		if seq.Version() != coa.Version() {
			t.Fatalf("case %d: version mismatch: %d vs %d", i, seq.Version(), coa.Version())
		}
	}
}

// TestIngestBatchesZeroAlloc: a grouped apply must not allocate in steady
// state with reused batch and result scratch.
func TestIngestBatchesZeroAlloc(t *testing.T) {
	s, err := New(Config{Window: 256, MaxK: 64})
	if err != nil {
		t.Fatal(err)
	}
	const nb = 4
	batches := make([]Batch, nb)
	results := make([]BatchResult, nb)
	tt := int64(0)
	fill := func() {
		for i := range batches {
			ts := make([]int64, 32)
			ds := make([]int64, 32)
			for j := range ts {
				tt += 2
				ts[j] = tt
				ds[j] = int64(j % 17)
			}
			batches[i] = Batch{Ts: ts, Demands: ds}
		}
	}
	fill()
	s.IngestBatches(batches, results) // warm scratch buffers
	// Pre-build all schedules so the measured closure only ingests.
	pre := make([][]Batch, 60)
	for i := range pre {
		fill()
		cp := make([]Batch, nb)
		copy(cp, batches)
		pre[i] = cp
	}
	i := 0
	got := testing.AllocsPerRun(50, func() {
		s.IngestBatches(pre[i%len(pre)], results)
		i++
	})
	if got != 0 {
		t.Fatalf("IngestBatches allocates %.1f/op in steady state, want 0", got)
	}
}
