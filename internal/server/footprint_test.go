package server

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"testing"

	"wcm/internal/wal"
)

// heapAlloc returns the live heap after a full collection.
func heapAlloc() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// serveOK runs one JSON request through h and requires a 200.
func serveOK(t *testing.T, h http.Handler, method, path string, body []byte) {
	t.Helper()
	req, err := http.NewRequest(method, path, rb{bytes.NewReader(body)})
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.ContentLength = int64(len(body))
	rw := &nullWriter{h: make(http.Header)}
	h.ServeHTTP(rw, req)
	if rw.status != http.StatusOK {
		t.Fatalf("%s %s: status %d", method, path, rw.status)
	}
}

// fullWindowBody is a JSON ingest body of one default window of samples.
func fullWindowBody() []byte {
	const window = 1024
	ts := make([]int64, window)
	ds := make([]int64, window)
	for i := range ts {
		ts[i] = int64(i) * 1000
		ds[i] = 100 + int64(i*i*7)%900
	}
	return []byte(fmt.Sprintf(`{"t":%s,"demand":%s}`, jsonInts(ts), jsonInts(ds)))
}

// TestStreamCreationFootprint pins the heap one stream costs the server
// when a one-sample JSON ingest creates it: the registry entry, its query
// cache and the stream, whose rings and extrema grow with its window. A
// client can create streams at the price of a ~22-byte body, so this is
// the per-stream cost a server-wide stream budget is derived from.
func TestStreamCreationFootprint(t *testing.T) {
	const n = 2000
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	body := []byte(`{"t":[1],"demand":[5]}`)
	serveOK(t, h, "POST", "/v1/streams/s-1/ingest", body) // warm the pools and first-use state
	base := heapAlloc()
	for i := 0; i < n; i++ {
		serveOK(t, h, "POST", fmt.Sprintf("/v1/streams/s%d/ingest", i), body)
	}
	per := (heapAlloc() - base) / n
	runtime.KeepAlive(s)
	t.Logf("heap per one-sample stream: %.0f bytes", per)
	// ~890 B measured (Go 1.24, amd64); a full-window ring alone is 8 KiB.
	if per > 1536 {
		t.Errorf("a one-sample stream costs the server %.0f bytes of heap, want ≤ 1536", per)
	}
}

// TestReadStreamFootprint pins what a read leaves behind once its stream
// moves on: each of n full-window streams is read once (/curves and
// /check), then ingested into once, so every answer the reads produced is
// stale. What stays per stream is the settled extrema and the rendered
// bodies (the degraded-read fallback) — not a curve snapshot pinned at a
// version no read can ask for again (~9 KiB of copies at MaxK 256).
func TestReadStreamFootprint(t *testing.T) {
	const n = 200
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	do := func(method, path string, body []byte) { serveOK(t, h, method, path, body) }
	const window = 1024
	fill := fullWindowBody()
	check := []byte(`{"freq_hz":100000000,"latency_ns":10,"buffer":2}`)
	for i := -1; i < n; i++ {
		do("POST", fmt.Sprintf("/v1/streams/s%d/ingest", i), fill)
	}
	do("GET", "/v1/streams/s-1/curves", nil) // warm the read path's pools
	do("POST", "/v1/streams/s-1/check", check)
	base := heapAlloc()
	for i := 0; i < n; i++ {
		do("GET", fmt.Sprintf("/v1/streams/s%d/curves", i), nil)
		do("POST", fmt.Sprintf("/v1/streams/s%d/check", i), check)
		do("POST", fmt.Sprintf("/v1/streams/s%d/ingest", i),
			[]byte(fmt.Sprintf(`{"t":[%d],"demand":[5]}`, window*1000)))
	}
	per := (heapAlloc() - base) / n
	runtime.KeepAlive(s)
	t.Logf("heap a read leaves per stream after the next ingest: %.0f bytes", per)
	// ~24.4 KiB measured (Go 1.24, amd64): ~16 KiB of settled extrema plus
	// the rendered bodies. A pinned stale snapshot adds ~8.9 KiB (33.2 KiB).
	if per > 28<<10 {
		t.Errorf("a read leaves %.0f bytes per stream after the next ingest, want ≤ %d", per, 28<<10)
	}
}

// TestCheckpointFootprint pins that a checkpoint leaves every stream's heap
// as it found it: exporting a stream copies its rings into the snapshot
// and allocates no extrema (~16 KiB for a full stream), so streams no read
// asked for stay as small as their windows.
func TestCheckpointFootprint(t *testing.T) {
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"one-sample", []byte(`{"t":[1],"demand":[5]}`)},
		{"full-window", fullWindowBody()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 200
			cfg := Config{}
			m, err := wal.Open(wal.Options{Dir: t.TempDir(), Shards: DefaultShards, Policy: wal.PolicyNone})
			if err != nil {
				t.Fatal(err)
			}
			cfg.WAL = m
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			h := s.Handler()
			for i := 0; i < n; i++ {
				serveOK(t, h, "POST", fmt.Sprintf("/v1/streams/s%d/ingest", i), tc.body)
			}
			base := heapAlloc()
			s.checkpointAll()
			per := (heapAlloc() - base) / n
			runtime.KeepAlive(s)
			t.Logf("heap a checkpoint adds per stream: %.0f bytes", per)
			if per > 64 {
				t.Errorf("a checkpoint grows each stream by %.0f bytes of heap, want ≤ 64", per)
			}
		})
	}
}
