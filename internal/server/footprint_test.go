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
