package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"wcm/internal/stream"
)

// TestConcurrentBinaryIngestCachedReads hammers ONE stream with binary
// ingest batches while reader goroutines hit the cached /curves and /check
// endpoints, under -race in CI. Every response a reader sees must be
// internally consistent — a snapshot of SOME committed state, never a torn
// one: γᵘ monotone non-decreasing in k, γˡ ≤ γᵘ pointwise, dmin ≤ dmax,
// and the response version never decreases within one reader (cache
// regressions would replay stale states).
func TestConcurrentBinaryIngestCachedReads(t *testing.T) {
	const (
		window   = 64
		maxK     = 16
		nBatches = 60
		batchLen = 9
		nReaders = 4
	)
	s, err := New(Config{Stream: stream.Config{Window: window, MaxK: maxK}})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	rng := rand.New(rand.NewSource(2026))
	var now int64
	batches := make([][]byte, nBatches)
	for b := range batches {
		tsv := make([]int64, batchLen)
		dv := make([]int64, batchLen)
		for i := range tsv {
			now += int64(rng.Intn(20))
			tsv[i] = now
			dv[i] = int64(rng.Intn(300))
		}
		batches[b] = AppendBinaryBatch(nil, tsv, dv)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, nReaders+1)

	serve := func(method, path, contentType string, body []byte) (int, []byte) {
		req, err := http.NewRequest(method, path, bytes.NewReader(body))
		if err != nil {
			panic(err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		rec := &memRecorder{header: make(http.Header)}
		h.ServeHTTP(rec, req)
		return rec.status, rec.body.Bytes()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for b, body := range batches {
			code, raw := serve("POST", "/v1/streams/hot/ingest", ContentTypeBinary, body)
			if code != http.StatusOK {
				errc <- fmt.Errorf("ingest batch %d: %d %s", b, code, raw)
				return
			}
		}
	}()

	for rd := 0; rd < nReaders; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			lastVersion := int64(-1)
			for !done.Load() {
				code, raw := serve("GET", "/v1/streams/hot/curves", "", nil)
				if code == http.StatusNotFound || code == http.StatusConflict {
					continue // stream not created / not enough samples yet
				}
				if code != http.StatusOK {
					errc <- fmt.Errorf("reader %d curves: %d %s", rd, code, raw)
					return
				}
				var cr struct {
					Version int64   `json:"version"`
					Upper   []int64 `json:"upper"`
					Lower   []int64 `json:"lower"`
					DMin    []int64 `json:"dmin"`
					DMax    []int64 `json:"dmax"`
				}
				if err := json.Unmarshal(raw, &cr); err != nil {
					errc <- fmt.Errorf("reader %d: bad body %s", rd, raw)
					return
				}
				if cr.Version < lastVersion {
					errc <- fmt.Errorf("reader %d: version went back %d → %d", rd, lastVersion, cr.Version)
					return
				}
				lastVersion = cr.Version
				for k := 1; k < len(cr.Upper); k++ {
					if cr.Upper[k] < cr.Upper[k-1] {
						errc <- fmt.Errorf("reader %d: γᵘ not monotone at k=%d: %v", rd, k, cr.Upper)
						return
					}
				}
				for k := range cr.Upper {
					if k < len(cr.Lower) && cr.Lower[k] > cr.Upper[k] {
						errc <- fmt.Errorf("reader %d: γˡ(%d)=%d > γᵘ(%d)=%d", rd, k, cr.Lower[k], k, cr.Upper[k])
						return
					}
				}
				for k := range cr.DMin {
					if k < len(cr.DMax) && cr.DMin[k] > cr.DMax[k] {
						errc <- fmt.Errorf("reader %d: dmin(%d) > dmax(%d)", rd, k, k)
						return
					}
				}
				code, raw = serve("POST", "/v1/streams/hot/check", "application/json",
					[]byte(`{"freq_hz":1e8,"latency_ns":0,"buffer":2}`))
				if code != http.StatusOK && code != http.StatusConflict && code != http.StatusNotFound {
					errc <- fmt.Errorf("reader %d check: %d %s", rd, code, raw)
					return
				}
			}
		}(rd)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// memRecorder is a minimal in-memory ResponseWriter (httptest.NewRecorder
// without the extra bookkeeping) so the hammer loop stays cheap.
type memRecorder struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (r *memRecorder) Header() http.Header { return r.header }
func (r *memRecorder) WriteHeader(c int)   { r.status = c }
func (r *memRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

var _ io.Writer = (*memRecorder)(nil)
