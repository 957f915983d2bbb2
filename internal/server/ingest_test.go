package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wcm/internal/stream"
	"wcm/internal/wal"
)

// rawReq performs one request and returns status plus the exact body bytes.
func rawReq(t *testing.T, method, url, contentType string, body []byte) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestAsyncConcurrentIngest hammers the ingest path from many goroutines,
// several streams per shard, then checks global consistency: every
// accepted sample is visible in its stream's total, and the ingest metrics
// agree with the responses the clients saw.
func TestAsyncConcurrentIngest(t *testing.T) {
	sc := stream.Config{Window: 64, MaxK: 8}
	srv, err := New(Config{Shards: 4, Stream: sc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const goroutines = 8
	const batches = 30
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("s%d", g) // one stream per goroutine: order stays deterministic
			for i := 0; i < batches; i++ {
				base := int64(i * 4)
				body := fmt.Sprintf(`{"t":[%d,%d,%d],"demand":[1,2,3]}`, base+1, base+2, base+3)
				resp, err := http.Post(ts.URL+"/v1/streams/"+id+"/ingest", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("stream %s batch %d: status %d", id, i, resp.StatusCode)
					return
				}
				accepted.Add(3)
			}
		}(g)
	}
	wg.Wait()

	var total int64
	for g := 0; g < goroutines; g++ {
		status, m := doJSON(t, "GET", ts.URL+fmt.Sprintf("/v1/streams/s%d/verdict", g), "")
		if status != http.StatusOK {
			t.Fatalf("verdict s%d: status %d", g, status)
		}
		total += int64(m["total"].(float64))
	}
	if total != accepted.Load() {
		t.Fatalf("streams hold %d samples, clients were acked %d", total, accepted.Load())
	}
	if got := srv.metrics.samples.Load(); int64(got) != accepted.Load() {
		t.Fatalf("samples counter %d, acked %d", got, accepted.Load())
	}
}

// TestShutdownDrainsInflight closes the server while ingests are in flight
// and checks that acknowledged means kept, with no handler hanging:
//
//   - memory: Close has nothing to shut, so every batch keeps answering 200
//     and every acked sample is in its stream afterwards;
//   - durable: Close lands mid-traffic on a PolicyBatch WAL server; from
//     then on ingest answers 500, never 200, and after reopening the data
//     directory every stream holds exactly the samples that got a 200 —
//     nothing acked is lost, and nothing refused was captured by the final
//     checkpoint.
func TestShutdownDrainsInflight(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Shards: 4, Stream: stream.Config{Window: 64, MaxK: 8}}
			if durable {
				cfg.WAL = openTestWAL(t, dir, cfg, wal.PolicyBatch)
			}
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			const goroutines = 6
			var acked [goroutines]int64
			var wg sync.WaitGroup
			start := make(chan struct{})
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					<-start
					id := fmt.Sprintf("d%d", g)
					for i := 0; ; i++ {
						base := int64(i * 3)
						body := fmt.Sprintf(`{"t":[%d,%d],"demand":[1,1]}`, base+1, base+2)
						resp, err := http.Post(ts.URL+"/v1/streams/"+id+"/ingest", "application/json", strings.NewReader(body))
						if err != nil {
							t.Error(err)
							return
						}
						io.Copy(io.Discard, resp.Body) //nolint:errcheck
						resp.Body.Close()
						if durable && resp.StatusCode == http.StatusInternalServerError {
							return // refused after Close: not acknowledged
						}
						if resp.StatusCode != http.StatusOK {
							t.Errorf("stream %s batch %d: status %d", id, i, resp.StatusCode)
							return
						}
						acked[g] += 2
						if !durable && i >= 40 {
							return
						}
					}
				}(g)
			}
			close(start)
			// Let traffic build so Close races requests mid-flight.
			for deadline := time.Now().Add(5 * time.Second); srv.metrics.batches.Load() < 30 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			srv.Close()
			wg.Wait()

			late := `{"t":[1,2],"demand":[5,5]}`
			status, m := doJSON(t, "POST", ts.URL+"/v1/streams/late/ingest", late)
			if durable {
				if status != http.StatusInternalServerError {
					t.Fatalf("post-Close durable ingest: status %d, body %v, want 500", status, m)
				}
			} else if status != http.StatusOK || m["accepted"].(float64) != 2 {
				t.Fatalf("post-Close ingest: status %d, body %v", status, m)
			}
			srv.Close() // idempotent

			read := ts
			if durable {
				rec, err := New(Config{Shards: cfg.Shards, Stream: cfg.Stream,
					WAL: openTestWAL(t, dir, cfg, wal.PolicyBatch)})
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				defer rec.Close()
				read = httptest.NewServer(rec.Handler())
				defer read.Close()
			}
			var sum int64
			for g := 0; g < goroutines; g++ {
				status, m := doJSON(t, "GET", read.URL+fmt.Sprintf("/v1/streams/d%d/verdict", g), "")
				var total int64
				switch status {
				case http.StatusOK:
					total = int64(m["total"].(float64))
				case http.StatusNotFound: // never acked, so never logged
				default:
					t.Fatalf("verdict d%d: status %d", g, status)
				}
				if total != acked[g] {
					t.Fatalf("stream d%d holds %d samples, client was acked %d", g, total, acked[g])
				}
				sum += acked[g]
			}
			if sum == 0 {
				t.Fatal("no batch was acknowledged before Close")
			}
		})
	}
}
