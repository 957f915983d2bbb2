package stream

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"wcm/internal/kernel"
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

// TestSnapshotAllocs pins a settling read of a warmed stream — catch-up,
// anchor every few reads, and the four tables — at one allocation per
// table it returns (γᵘ, γˡ, d, D): the temporaries the tables are built in
// come from the shared scratch free list.
func TestSnapshotAllocs(t *testing.T) {
	s, err := New(Config{Window: 256, MaxK: 64, ReextractEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]int64, 8)
	ds := make([]int64, 8)
	var tick int64
	read := func() {
		for j := range ts {
			tick += 3
			ts[j] = tick
			ds[j] = tick % 13
		}
		if _, err := s.Ingest(ts, ds); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // warm: fill the window, cross several anchors
		read()
	}
	if got := testing.AllocsPerRun(200, read); got > 4 {
		t.Fatalf("ingest + settling Snapshot allocates %.1f/op, want ≤ 4 (one per table)", got)
	}
}

// TestStreamFootprint is the per-stream heap guard at the default window
// and curve domain (W = 1024, K = 256). A fully ingested stream holds one
// copy of the window — the timestamp and prefix-sum rings — until its first
// read, and the trackers' extrema on top of it after. The bounds leave no
// room for a second copy of the window or for a stream's own set of anchor
// scratch (~19 KiB): those live in the shared free list.
func TestStreamFootprint(t *testing.T) {
	const n = 256
	heap := func() float64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc)
	}
	ts := make([]int64, DefaultWindow)
	ds := make([]int64, DefaultWindow)
	for i := range ts {
		ts[i] = int64(i) * 10
		ds[i] = int64(i*37%101) + 1
	}
	base := heap()
	streams := make([]*Stream, n)
	for i := range streams {
		s, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Ingest(ts, ds); err != nil {
			t.Fatal(err)
		}
		streams[i] = s
	}
	unread := (heap() - base) / n
	for _, s := range streams {
		if _, err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	read := (heap() - base) / n
	runtime.KeepAlive(streams)
	t.Logf("bytes per stream: %.0f before any read, %.0f after one Snapshot", unread, read)
	if unread > 18<<10 {
		t.Errorf("an unread stream holds %.0f bytes, want ≤ %d", unread, 18<<10)
	}
	if read > 34<<10 {
		t.Errorf("a read stream holds %.0f bytes, want ≤ %d", read, 34<<10)
	}
}

// TestConcurrentReadsShareScratch reads streams of different window sizes
// from several goroutines at once, so the shared scratch free list hands
// buffers of one stream's size to another's read; every answer must still
// equal a batch extraction of its own window.
func TestConcurrentReadsShareScratch(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(window int) {
			defer wg.Done()
			const maxK = 8
			s, err := New(Config{Window: window, MaxK: maxK, ReextractEvery: 5})
			if err != nil {
				t.Error(err)
				return
			}
			var ts, ds []int64
			for i := 0; i < 300; i++ {
				ts = append(ts, int64(i)*3)
				ds = append(ds, int64(i*window%17))
				if _, err := s.Ingest(ts[i:], ds[i:]); err != nil {
					t.Error(err)
					return
				}
				w, err := s.Workload()
				if err != nil {
					t.Error(err)
					return
				}
				n := min(len(ds), window)
				prefix := make([]int64, n+1)
				for j, d := range ds[len(ds)-n:] {
					prefix[j+1] = prefix[j] + d
				}
				up, lo, err := kernel.Extract(prefix, min(maxK, n), kernel.Options{})
				if err != nil {
					t.Error(err)
					return
				}
				for k := range up {
					if w.Upper.MustAt(k) != up[k] || w.Lower.MustAt(k) != lo[k] {
						t.Errorf("window %d after %d samples: k=%d (%d, %d), want (%d, %d)",
							window, i+1, k, w.Upper.MustAt(k), w.Lower.MustAt(k), up[k], lo[k])
						return
					}
				}
			}
			if st := s.Stats(); st.Drift != 0 {
				t.Errorf("window %d: drift %d", window, st.Drift)
			}
		}(16 << g)
	}
	wg.Wait()
}
