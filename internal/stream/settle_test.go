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
// samples (through Ingest and IngestBatches), reads of every kind, audits
// and ExportState→Restore round trips at random. Whatever the backlog a
// read finds — none, incremental, or a full-window rebuild — its answer
// must equal a batch extraction of the window, and an audit must never
// disagree.
func TestSettleOnReadDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	for trial := 0; trial < 30; trial++ {
		window := 2 + rng.Intn(60)
		maxK := 1 + rng.Intn(window)
		cfg := Config{Window: window, MaxK: maxK}
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
			case op == 8: // audit
				if mismatches, err := s.Reextract(); err != nil || mismatches != 0 {
					t.Fatalf("trial %d step %d: Reextract mismatches=%d, %v", trial, step, mismatches, err)
				}
			default: // durability round trip; the restored stream carries on
				r, err := Restore(cfg, s.ExportState())
				if err != nil {
					t.Fatal(err)
				}
				want := s.Stats()
				want.Audits = 0 // audit counters are the process's, not the state's
				if r.Stats() != want {
					t.Fatalf("trial %d step %d: restored stats %+v, want %+v", trial, step, r.Stats(), want)
				}
				s = r
				checkReadAgainstBatch(t, s, rng.Intn(4), ts, d, window, maxK)
			}
			if st := s.Stats(); st.Mismatches != 0 || st.Total != int64(len(ts)) {
				t.Fatalf("trial %d step %d: mismatches=%d total=%d (want 0, %d)", trial, step, st.Mismatches, st.Total, len(ts))
			}
		}
	}
}

// TestSettleIsLazy pins where the curve work happens: ingest never touches
// (or allocates) the extrema, the first read after a backlog of a window or
// more rebuilds them from the window, a shorter backlog is caught up, and
// no read runs an audit.
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
	if st := s.Stats(); st.Total != 4*window {
		t.Fatalf("after ingest only: %+v", st)
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
	checkAgainstBatch(t, s, ts, d, window, 16)

	v := s.Version()
	snap, err = s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Settled != 0 || snap.Rebuilt || s.Version() != v {
		t.Fatalf("settled read re-settled %d (rebuilt %v) or moved the version", snap.Settled, snap.Rebuilt)
	}

	settle := func(n int, wantRebuilt bool) {
		t.Helper()
		feed(n)
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Settled != n || snap.Rebuilt != wantRebuilt {
			t.Fatalf("backlog %d: settled %d, rebuilt %v; want rebuilt %v", n, snap.Settled, snap.Rebuilt, wantRebuilt)
		}
		checkAgainstBatch(t, s, ts, d, window, 16)
	}
	settle(5, false)
	settle(window-1, false)
	settle(window, true) // a backlog of exactly Window rebuilds
	if st := s.Stats(); st.Audits != 0 {
		t.Fatalf("reads ran %d audits, want none", st.Audits)
	}
}
