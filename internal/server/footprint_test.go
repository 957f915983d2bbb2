package server

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"testing"
)

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
	h := s.Handler()
	body := []byte(`{"t":[1],"demand":[5]}`)
	rw := &nullWriter{h: make(http.Header)}
	ingest := func(i int) {
		req, err := http.NewRequest("POST", fmt.Sprintf("/v1/streams/s%d/ingest", i), rb{bytes.NewReader(body)})
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.ContentLength = int64(len(body))
		rw.status = 0
		h.ServeHTTP(rw, req)
		if rw.status != http.StatusOK {
			t.Fatalf("ingest %d: status %d", i, rw.status)
		}
	}
	heap := func() float64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc)
	}
	ingest(-1) // warm the pools and the handler's first-use state
	base := heap()
	for i := 0; i < n; i++ {
		ingest(i)
	}
	per := (heap() - base) / n
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
	h := s.Handler()
	rw := &nullWriter{h: make(http.Header)}
	do := func(method, path string, body []byte) {
		req, err := http.NewRequest(method, path, rb{bytes.NewReader(body)})
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.ContentLength = int64(len(body))
		rw.status = 0
		h.ServeHTTP(rw, req)
		if rw.status != http.StatusOK {
			t.Fatalf("%s %s: status %d", method, path, rw.status)
		}
	}
	const window = 1024
	ts := make([]int64, window)
	ds := make([]int64, window)
	for i := range ts {
		ts[i] = int64(i) * 1000
		ds[i] = 100 + int64(i*i*7)%900
	}
	fill := []byte(fmt.Sprintf(`{"t":%s,"demand":%s}`, jsonInts(ts), jsonInts(ds)))
	check := []byte(`{"freq_hz":100000000,"latency_ns":10,"buffer":2}`)
	heap := func() float64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc)
	}
	for i := -1; i < n; i++ {
		do("POST", fmt.Sprintf("/v1/streams/s%d/ingest", i), fill)
	}
	do("GET", "/v1/streams/s-1/curves", nil) // warm the read path's pools
	do("POST", "/v1/streams/s-1/check", check)
	base := heap()
	for i := 0; i < n; i++ {
		do("GET", fmt.Sprintf("/v1/streams/s%d/curves", i), nil)
		do("POST", fmt.Sprintf("/v1/streams/s%d/check", i), check)
		do("POST", fmt.Sprintf("/v1/streams/s%d/ingest", i),
			[]byte(fmt.Sprintf(`{"t":[%d],"demand":[5]}`, window*1000)))
	}
	per := (heap() - base) / n
	runtime.KeepAlive(s)
	t.Logf("heap a read leaves per stream after the next ingest: %.0f bytes", per)
	// ~24.4 KiB measured (Go 1.24, amd64): ~16 KiB of settled extrema plus
	// the rendered bodies. A pinned stale snapshot adds ~8.9 KiB (33.2 KiB).
	if per > 28<<10 {
		t.Errorf("a read leaves %.0f bytes per stream after the next ingest, want ≤ %d", per, 28<<10)
	}
}
