package stream

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestIngestMultiprocAllocs pins the warmed ingest-and-settle path (the
// settle runs the anchor every 32 samples here) at ~0 allocations per batch
// with GOMAXPROCS=4 — the configuration where a regression hid
// for two releases: reextractLocked used to pass kernel.Options{}, whose
// worker autosizing spawned goroutines at every anchor once GOMAXPROCS ≥ 2,
// and the runtime's malg/allocm allocations showed up as 189 allocs/op in
// benchjson while the (GOMAXPROCS=1) AllocsPerRun test stayed green.
// testing.AllocsPerRun cannot catch this class of bug — it forces
// GOMAXPROCS=1 for the measured run — so this test counts raw Mallocs
// around a manual loop instead.
func TestIngestMultiprocAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // keep GC noise out of Mallocs
	s, err := New(Config{Window: 64, MaxK: 16, ReextractEvery: 32})
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]int64, 4)
	ds := make([]int64, 4)
	var tick int64
	ingest := func() {
		for j := range ts {
			tick += 3
			ts[j] = tick
			ds[j] = tick % 11
		}
		if _, err := s.Ingest(ts, ds); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		_, _, err := s.settleLocked()
		s.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ { // warm: fill window, cross several anchors
		ingest()
	}
	runtime.GC()
	const iters = 2000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < iters; i++ {
		ingest()
	}
	runtime.ReadMemStats(&m1)
	if perOp := float64(m1.Mallocs-m0.Mallocs) / iters; perOp > 0.1 {
		t.Fatalf("ingest allocates %.3f/op at GOMAXPROCS=4, want ~0", perOp)
	}
}
