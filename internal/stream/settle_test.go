package stream

import (
	"math/rand"
	"testing"
	"time"
)

// checkReadAgainstBatch answers one read of the given kind on s and
// requires it to equal a batch extraction of the window. Every kind settles
// on its own, so the read under test is always the one paying the catch-up.
func checkReadAgainstBatch(t *testing.T, s *Stream, kind int, ts, d []int64, window, maxK int) {
	t.Helper()
	wantUp, wantLo, wantDmin, wantDmax := batchCurves(t, ts, d, window, maxK)
	effK := len(wantUp) - 1
	switch kind {
	case 0: // Workload
		w, err := s.Workload()
		if err != nil {
			t.Fatal(err)
		}
		if w.Upper.MaxK() != effK {
			t.Fatalf("Workload domain %d, want %d", w.Upper.MaxK(), effK)
		}
		for k := 0; k <= effK; k++ {
			if w.Upper.MustAt(k) != wantUp[k] || w.Lower.MustAt(k) != wantLo[k] {
				t.Fatalf("Workload at k=%d: (%d, %d), want (%d, %d)",
					k, w.Upper.MustAt(k), w.Lower.MustAt(k), wantUp[k], wantLo[k])
			}
		}
	case 1: // Spans
		mins, maxs, err := s.Spans()
		if err != nil {
			t.Fatal(err)
		}
		if mins.MaxK() != effK {
			t.Fatalf("Spans domain %d, want %d", mins.MaxK(), effK)
		}
		for k := 2; k <= effK; k++ {
			gd, _ := mins.At(k)
			gD, _ := maxs.At(k)
			if gd != wantDmin[k-1] || gD != wantDmax[k-1] {
				t.Fatalf("Spans(%d) = (%d, %d), want (%d, %d)", k, gd, gD, wantDmin[k-1], wantDmax[k-1])
			}
		}
	case 2: // Snapshot
		checkAgainstBatch(t, s, ts, d, window, maxK)
	case 3: // SnapshotWithin
		snap, err := s.SnapshotWithin(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		checkSnapshotAgainstBatch(t, snap, ts, d, window, maxK)
	}
}

// TestSettleOnReadDifferential interleaves ingests of 1 to 3×Window
// samples (through Ingest and IngestBatches), reads of every kind, forced
// anchors and ExportState→Restore round trips at random. Whatever the
// backlog a read finds — none, incremental, or a full-window rebuild — its
// answer must equal a batch extraction of the window, and the anchor must
// never disagree.
func TestSettleOnReadDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	for trial := 0; trial < 30; trial++ {
		window := 2 + rng.Intn(60)
		maxK := 1 + rng.Intn(window)
		reevery := []int{-1, 0, 1 + rng.Intn(2*window)}[rng.Intn(3)]
		cfg := Config{Window: window, MaxK: maxK, ReextractEvery: reevery}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ts, d []int64
		var now int64
		for step := 0; step < 80; step++ {
			switch op := rng.Intn(10); {
			case op < 4 || len(ts) == 0: // ingest
				n := 1 + rng.Intn(3*window)
				from := len(ts)
				for i := 0; i < n; i++ {
					now += int64(rng.Intn(20))
					ts = append(ts, now)
					d = append(d, int64(rng.Intn(500)))
				}
				if rng.Intn(2) == 0 {
					if _, err := s.Ingest(ts[from:], d[from:]); err != nil {
						t.Fatal(err)
					}
					break
				}
				mid := from + rng.Intn(n+1)
				batches := []Batch{{Ts: ts[from:mid], Demands: d[from:mid]}, {Ts: ts[mid:], Demands: d[mid:]}}
				results := make([]BatchResult, 2)
				s.IngestBatches(batches, results)
				for i, r := range results {
					if r.Err != nil && len(batches[i].Ts) > 0 {
						t.Fatal(r.Err)
					}
				}
			case op < 8: // read
				checkReadAgainstBatch(t, s, rng.Intn(4), ts, d, window, maxK)
			case op == 8: // forced anchor
				if drift, err := s.Reextract(); err != nil || drift != 0 {
					t.Fatalf("trial %d step %d: Reextract drift=%d, %v", trial, step, drift, err)
				}
			default: // durability round trip; the restored stream carries on
				r, err := Restore(cfg, s.ExportState())
				if err != nil {
					t.Fatal(err)
				}
				if r.Stats() != s.Stats() {
					t.Fatalf("trial %d step %d: restored stats %+v, want %+v", trial, step, r.Stats(), s.Stats())
				}
				s = r
				checkReadAgainstBatch(t, s, rng.Intn(4), ts, d, window, maxK)
			}
			if st := s.Stats(); st.Drift != 0 || st.Total != int64(len(ts)) {
				t.Fatalf("trial %d step %d: drift=%d total=%d (want 0, %d)", trial, step, st.Drift, st.Total, len(ts))
			}
		}
	}
}

// TestSettleIsLazy pins where the curve work happens: ingest never touches
// (or allocates) the extrema or runs the anchor, and the first read after a
// backlog of a window or more pays exactly one rebuild and one anchor.
func TestSettleIsLazy(t *testing.T) {
	const window = 64
	s, err := New(Config{Window: window, MaxK: 16})
	if err != nil {
		t.Fatal(err)
	}
	var ts, d []int64
	feed := func(n int) {
		for i := 0; i < n; i++ {
			ts = append(ts, int64(len(ts))*7)
			d = append(d, int64(len(d)*31%97))
		}
		if _, err := s.Ingest(ts[len(ts)-n:], d[len(d)-n:]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*window/8; i++ {
		feed(8)
	}
	if st := s.Stats(); st.Reextractions != 0 || st.Total != 4*window {
		t.Fatalf("after ingest only: %+v, want 0 re-extractions", st)
	}
	if s.pre.Total() != 0 || s.pre.maxVal != nil || s.spi.maxVal != nil {
		t.Fatalf("ingest caught the extrema up with %d points", s.pre.Total())
	}

	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Settled != 4*window || !snap.Rebuilt {
		t.Fatalf("first read settled %d (rebuilt %v), want %d rebuilt", snap.Settled, snap.Rebuilt, 4*window)
	}
	if st := s.Stats(); st.Reextractions != 1 || st.Drift != 0 {
		t.Fatalf("first read: %d re-extractions, drift %d; want exactly one anchor", st.Reextractions, st.Drift)
	}
	checkAgainstBatch(t, s, ts, d, window, 16)

	v := s.Version()
	snap, err = s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Settled != 0 || snap.Rebuilt || s.Version() != v {
		t.Fatalf("settled read re-settled %d (rebuilt %v) or moved the version", snap.Settled, snap.Rebuilt)
	}

	// A backlog shorter than the window is caught up, not rebuilt; the
	// anchor waits until a window's worth has been settled.
	feed(5)
	snap, err = s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Settled != 5 || snap.Rebuilt {
		t.Fatalf("short backlog settled %d (rebuilt %v), want 5 incremental", snap.Settled, snap.Rebuilt)
	}
	if st := s.Stats(); st.Reextractions != 1 {
		t.Fatalf("short backlog ran the anchor early: %d re-extractions", st.Reextractions)
	}
	checkAgainstBatch(t, s, ts, d, window, 16)

	// The anchor fires on the settle that brings the settled count since
	// the last anchor to ReextractEvery (default Window), not before.
	settleAndCount := func(n int, wantRebuilt bool, wantAnchors int64) {
		t.Helper()
		feed(n)
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Settled != n || snap.Rebuilt != wantRebuilt {
			t.Fatalf("backlog %d: settled %d, rebuilt %v", n, snap.Settled, snap.Rebuilt)
		}
		if st := s.Stats(); st.Reextractions != wantAnchors || st.Drift != 0 {
			t.Fatalf("backlog %d: %d re-extractions (drift %d), want %d", n, st.Reextractions, st.Drift, wantAnchors)
		}
	}
	settleAndCount(window-6, false, 1) // window−1 settled since the anchor
	settleAndCount(1, false, 2)        // window reached
	settleAndCount(window, true, 3)    // a backlog of exactly Window rebuilds
	checkAgainstBatch(t, s, ts, d, window, 16)
}
