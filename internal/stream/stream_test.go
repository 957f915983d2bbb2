package stream

import (
	"errors"
	"testing"

	"wcm/internal/arrival"
	"wcm/internal/core"
	"wcm/internal/events"
	"wcm/internal/netcalc"
	"wcm/internal/service"
)

func TestNewIncValidation(t *testing.T) {
	for _, tc := range []struct{ off, win int }{{0, 4}, {-1, 4}, {4, 4}, {1, 1}} {
		if _, err := NewInc(tc.off, tc.win); !errors.Is(err, ErrBadConfig) {
			t.Errorf("NewInc(%d, %d): want ErrBadConfig, got %v", tc.off, tc.win, err)
		}
	}
	if _, err := NewInc(1, 2); err != nil {
		t.Fatalf("NewInc(1, 2): %v", err)
	}
}

func TestIncSmallByHand(t *testing.T) {
	// data = [5, 1, 4, 9], window 3, offsets up to 2.
	x := newRingInc(t, 2, 3)
	for _, v := range []int64{5, 1, 4, 9} {
		x.push(v)
	}
	// Retained: [1, 4, 9]. Offset 1 diffs: 3, 5 → up 5, lo 3.
	// Offset 2 diffs: 9−1 = 8 → up = lo = 8.
	if up, _ := x.UpAt(1); up != 5 {
		t.Errorf("UpAt(1) = %d, want 5", up)
	}
	if lo, _ := x.LoAt(1); lo != 3 {
		t.Errorf("LoAt(1) = %d, want 3", lo)
	}
	if up, _ := x.UpAt(2); up != 8 {
		t.Errorf("UpAt(2) = %d, want 8", up)
	}
	if lo, _ := x.LoAt(2); lo != 8 {
		t.Errorf("LoAt(2) = %d, want 8", lo)
	}
	if _, err := x.UpAt(3); err == nil {
		t.Error("UpAt(3) beyond maxOff must fail")
	}
}

func TestStreamConfigValidation(t *testing.T) {
	if _, err := New(Config{Window: 1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("window=1: want ErrBadConfig, got %v", err)
	}
	if _, err := New(Config{MaxK: -1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("maxK=-1: want ErrBadConfig, got %v", err)
	}
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Window != DefaultWindow || st.MaxK != DefaultMaxK {
		t.Errorf("defaults: %+v", st)
	}
	// MaxK caps to Window.
	s2, err := New(Config{Window: 8, MaxK: 99})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Stats().MaxK != 8 {
		t.Errorf("maxK not capped: %+v", s2.Stats())
	}
}

func TestIngestValidationAllOrNothing(t *testing.T) {
	s, err := New(Config{Window: 8, MaxK: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(nil, nil); !errors.Is(err, ErrBadBatch) {
		t.Errorf("empty batch: got %v", err)
	}
	if _, err := s.Ingest([]int64{1, 2}, []int64{3}); !errors.Is(err, ErrBadBatch) {
		t.Errorf("length mismatch: got %v", err)
	}
	if _, err := s.Ingest([]int64{5, 4}, []int64{1, 1}); !errors.Is(err, ErrBadBatch) {
		t.Errorf("unsorted timestamps: got %v", err)
	}
	if _, err := s.Ingest([]int64{1, 2}, []int64{1, -1}); !errors.Is(err, ErrBadBatch) {
		t.Errorf("negative demand: got %v", err)
	}
	if s.Stats().Total != 0 {
		t.Fatalf("rejected batches must leave no state: %+v", s.Stats())
	}
	if _, err := s.Ingest([]int64{10}, []int64{7}); err != nil {
		t.Fatal(err)
	}
	// Timestamps must not go backwards ACROSS batches either.
	if _, err := s.Ingest([]int64{9}, []int64{7}); !errors.Is(err, ErrBadBatch) {
		t.Errorf("cross-batch time regression: got %v", err)
	}
}

func TestEmptyStreamQueries(t *testing.T) {
	s, err := New(Config{Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Workload(); !errors.Is(err, ErrNoSamples) {
		t.Errorf("Workload on empty: %v", err)
	}
	if _, _, err := s.Spans(); !errors.Is(err, ErrNoSamples) {
		t.Errorf("Spans on empty: %v", err)
	}
	if _, err := s.MinFrequency(1); !errors.Is(err, ErrNoSamples) {
		t.Errorf("MinFrequency on empty: %v", err)
	}
	if drift, err := s.Reextract(); err != nil || drift != 0 {
		t.Errorf("Reextract on empty: %d, %v", drift, err)
	}
}

func TestSingleSampleEdge(t *testing.T) {
	s, err := New(Config{Window: 8, MaxK: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest([]int64{100}, []int64{42}); err != nil {
		t.Fatal(err)
	}
	w, err := s.Workload()
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Upper.MustAt(1); got != 42 {
		t.Errorf("γᵘ(1) = %d, want 42", got)
	}
	spans, maxs, err := s.Spans()
	if err != nil {
		t.Fatal(err)
	}
	if spans.MaxK() != 1 || spans[0] != 0 || maxs[0] != 0 {
		t.Errorf("single-sample spans: %v %v", spans, maxs)
	}
	if _, err := s.MinFrequency(0); !errors.Is(err, ErrNoSpans) {
		t.Errorf("MinFrequency with 1 sample: %v", err)
	}
}

func TestMaxK1SpansOnly(t *testing.T) {
	s, err := New(Config{Window: 4, MaxK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest([]int64{0, 10, 20}, []int64{5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	w, err := s.Workload()
	if err != nil {
		t.Fatal(err)
	}
	if w.Upper.MaxK() != 1 || w.Upper.MustAt(1) != 7 {
		t.Errorf("maxK=1 workload: %v", w.Upper)
	}
	spans, _, err := s.Spans()
	if err != nil || spans.MaxK() != 1 {
		t.Errorf("maxK=1 spans: %v %v", spans, err)
	}
}

// TestQueriesMatchBatchPath pins the service queries to the established
// batch pipeline: ingest a trace, then compare MinFrequency and
// CheckService against netcalc fed with kernel-extracted curves.
func TestQueriesMatchBatchPath(t *testing.T) {
	const n, maxK = 300, 48
	d, err := events.ModalDemands([]events.Mode{
		{Lo: 100, Hi: 900, MinRun: 2, MaxRun: 5},
		{Lo: 2000, Hi: 5000, MinRun: 1, MaxRun: 2},
	}, n, 11)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := events.Sporadic(0, 1_000, 5_000, n, 5)
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{Window: n, MaxK: maxK})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(tt, d); err != nil {
		t.Fatal(err)
	}

	wantW, err := core.FromTrace(d, maxK)
	if err != nil {
		t.Fatal(err)
	}
	wantSpans, wantMax, err := arrival.ExtractSpans(tt, maxK)
	if err != nil {
		t.Fatal(err)
	}

	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= maxK; k++ {
		if snap.Workload.Upper.MustAt(k) != wantW.Upper.MustAt(k) ||
			snap.Workload.Lower.MustAt(k) != wantW.Lower.MustAt(k) {
			t.Fatalf("workload mismatch at k=%d", k)
		}
	}
	for k := 1; k <= maxK; k++ {
		ws, _ := wantSpans.At(k)
		gs, _ := snap.Spans.At(k)
		wm, _ := wantMax.At(k)
		gm, _ := snap.MaxSpans.At(k)
		if ws != gs || wm != gm {
			t.Fatalf("span mismatch at k=%d: d %d vs %d, D %d vs %d", k, gs, ws, gm, wm)
		}
	}

	const b = 3
	got, err := s.MinFrequency(b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := netcalc.CompareFrequencies(wantSpans, wantW.Upper, b)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("MinFrequency: got %+v want %+v", got, want)
	}

	// eq. 8 must pass at Fᵞmin (the definition of minimality) and the
	// service returns the same verdicts as direct netcalc calls.
	for _, hz := range []float64{want.Gamma.Hz, want.Gamma.Hz * 0.7} {
		beta, err := service.Full(hz)
		if err != nil {
			t.Fatal(err)
		}
		wantOK, err := netcalc.CheckServiceConstraint(wantSpans, beta, wantW.Upper, b)
		if err != nil {
			t.Fatal(err)
		}
		gotOK, err := s.CheckService(hz, 0, b)
		if err != nil {
			t.Fatal(err)
		}
		if gotOK != wantOK {
			t.Fatalf("CheckService(%g): got %v want %v", hz, gotOK, wantOK)
		}
	}
}

func TestContractMonitor(t *testing.T) {
	task := core.PollingTask{Period: 10, ThetaMin: 30, ThetaMax: 50, Ep: 9, Ec: 2}
	w, err := task.Workload(32)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := events.PollingDemands(10, 30, 50, 9, 2, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]int64, len(healthy))
	for i := range ts {
		ts[i] = int64(i) * 1000
	}

	s, err := New(Config{Window: 256, MaxK: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetContract(w, 32); err != nil {
		t.Fatal(err)
	}
	res, err := s.Ingest(ts, healthy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil || res.Violations != 0 {
		t.Fatalf("healthy trace flagged: %+v", res)
	}

	// One activation at 3× the modeled WCET must trip the monitor.
	res, err = s.Ingest([]int64{int64(len(healthy)) * 1000}, []int64{3 * task.Ep})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil || !res.Violation.Upper {
		t.Fatalf("fault not flagged: %+v", res)
	}
	st := s.Stats()
	if !st.ContractSet || st.Violations == 0 || st.FirstViolation == nil {
		t.Fatalf("stats after violation: %+v", st)
	}
}

// TestPrefixSumHorizon drives the running demand prefix sum past 2⁶² and
// then past the int64 horizon, where it wraps. Every window difference
// still fits in int64 and so stays exact, whether the stream is read after
// every batch or never until the end, and whether it survives an
// export/restore round trip.
func TestPrefixSumHorizon(t *testing.T) {
	const window, maxK, n = 8, 4, 64
	ts, d := make([]int64, n), make([]int64, n)
	for i := range ts {
		ts[i] = int64(i) * 10
		d[i] = 1<<59 + int64(i%7) // Σ d crosses 2⁶² after 8 samples, 2⁶³ after 16
	}
	for _, readEvery := range []bool{true, false} {
		cfg := Config{Window: window, MaxK: maxK, ReextractEvery: 4}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wrapped := false
		for i := 0; i < n; i += 3 {
			j := min(i+3, n)
			if _, err := s.Ingest(ts[i:j], d[i:j]); err != nil {
				t.Fatal(err)
			}
			wrapped = wrapped || s.prefix[s.total%(window+1)] < 0
			if readEvery {
				checkAgainstBatch(t, s, ts[:j], d[:j], window, maxK)
			}
		}
		if !wrapped {
			t.Fatal("the running prefix sum never wrapped")
		}
		checkAgainstBatch(t, s, ts, d, window, maxK)
		if st := s.Stats(); st.Drift != 0 || st.Reextractions == 0 {
			t.Fatalf("readEvery=%v: drift=%d after %d anchors", readEvery, st.Drift, st.Reextractions)
		}
		if got := s.DemandTrace(); !equal(got, d[n-window:]) {
			t.Fatalf("readEvery=%v: window trace %v, want %v", readEvery, got, d[n-window:])
		}
		r, err := Restore(cfg, s.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstBatch(t, r, ts, d, window, maxK)
	}
}

func TestRebuildRecoversFromCorruption(t *testing.T) {
	s, err := New(Config{Window: 8, MaxK: 4, ReextractEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts, d := make([]int64, 20), make([]int64, 20)
	for i := range ts {
		ts[i] = int64(i) * 5
		d[i] = int64(10 * (i%3 + 1))
	}
	if _, err := s.Ingest(ts, d); err != nil {
		t.Fatal(err)
	}
	// Settle first: corruption of unsettled state would be overwritten by
	// the settle's rebuild before the anchor could see it.
	if _, err := s.Workload(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the incremental state behind the anchor's back.
	s.mu.Lock()
	s.pre.maxVal[0] += 999
	s.mu.Unlock()
	drift, err := s.Reextract()
	if err != nil {
		t.Fatal(err)
	}
	if drift != 1 {
		t.Fatalf("drift = %d, want 1", drift)
	}
	// The rebuild restored ground truth.
	w, err := s.Workload()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.FromTrace(events.DemandTrace(d[12:]), 4)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= 4; k++ {
		if w.Upper.MustAt(k) != want.Upper.MustAt(k) {
			t.Fatalf("rebuild mismatch at k=%d", k)
		}
	}
	// A subsequent anchor run agrees again.
	if drift, err := s.Reextract(); err != nil || drift != 1 {
		t.Fatalf("post-rebuild anchor: drift=%d, %v", drift, err)
	}
}

func TestDemandTraceReturnsWindow(t *testing.T) {
	s, err := New(Config{Window: 4, MaxK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest([]int64{0, 1, 2, 3, 4, 5}, []int64{10, 20, 30, 40, 50, 60}); err != nil {
		t.Fatal(err)
	}
	got := s.DemandTrace()
	want := []int64{30, 40, 50, 60}
	if len(got) != len(want) {
		t.Fatalf("window trace %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("window trace %v, want %v", got, want)
		}
	}
}

// TestObserveClampsAndMatchesIngest pins the single-sample Observe hook:
// a sequence of observations with out-of-order timestamps must produce
// exactly the state Ingest would produce for the clamped (sorted-forward)
// sequence, negative demand is rejected without a state change, and the
// version bumps once per accepted observation.
func TestObserveClampsAndMatchesIngest(t *testing.T) {
	cfg := Config{Window: 16, MaxK: 8}
	obs, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ts := []int64{10, 30, 20, 25, 40, 40, 35}      // 20, 25, 35 lag and must clamp
	clamped := []int64{10, 30, 30, 30, 40, 40, 40} // what Ingest should see
	ds := []int64{5, 7, 6, 9, 5, 8, 7}
	for i := range ts {
		v0 := obs.Version()
		res, err := obs.Observe(ts[i], ds[i])
		if err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
		if res.Accepted != 1 || res.Total != int64(i+1) {
			t.Fatalf("observe %d: %+v", i, res)
		}
		if obs.Version() != v0+1 {
			t.Fatalf("observe %d: version %d → %d", i, v0, obs.Version())
		}
	}
	if _, err := ref.Ingest(clamped, ds); err != nil {
		t.Fatal(err)
	}

	so, err := obs.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sr, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	gu := so.Workload.Upper.Values()
	wu := sr.Workload.Upper.Values()
	for k := range wu {
		if gu[k] != wu[k] {
			t.Fatalf("γᵘ(%d): observe %d, ingest %d", k, gu[k], wu[k])
		}
	}
	for k := 2; k <= so.Spans.MaxK(); k++ {
		a, _ := so.Spans.At(k)
		b, _ := sr.Spans.At(k)
		if a != b {
			t.Fatalf("d(%d): observe %d, ingest %d", k, a, b)
		}
	}

	v0 := obs.Version()
	if _, err := obs.Observe(100, -1); !errors.Is(err, ErrBadBatch) {
		t.Fatalf("negative demand: %v", err)
	}
	if obs.Version() != v0 {
		t.Fatal("rejected observation bumped the version")
	}
	if obs.Stats().Total != int64(len(ts)) {
		t.Fatal("rejected observation changed state")
	}

	// An early timestamp after a rejection still clamps, not errors.
	if _, err := obs.Observe(0, 3); err != nil {
		t.Fatalf("clamped late observation: %v", err)
	}
	if got := obs.Stats().LastTimestamp; got != 40 {
		t.Fatalf("lastT = %d, want clamped 40", got)
	}
}

// TestObserveSteadyStateAllocs pins the Observe hot path at zero
// allocations once scratch capacity is warm — it runs on every completed
// request of the wcmd service.
func TestObserveSteadyStateAllocs(t *testing.T) {
	s, err := New(Config{Window: 64, MaxK: 16})
	if err != nil {
		t.Fatal(err)
	}
	var tick int64
	for i := 0; i < 200; i++ { // warm: fill window, cross one anchor
		tick += 3
		if _, err := s.Observe(tick, int64(i%11)); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(300, func() {
		tick += 3
		if _, err := s.Observe(tick, 7); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Observe allocates %.2f/op, want 0", avg)
	}
}
