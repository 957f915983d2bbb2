package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"wcm/internal/stream"
)

// postBody POSTs a JSON body and returns status + raw response bytes.
func postBody(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
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

func getRaw(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

// TestCachedQueriesBitIdenticalToUncached is the differential proof the
// query cache demands: after every mutation it queries a CACHING server
// twice (miss, then hit) and a freshly built REFERENCE server that replayed
// the identical batch history but is queried exactly once — so every
// reference answer is an uncached recomputation — and requires all three
// bodies byte-identical, status included. Covers /curves, /check, /minfreq,
// /verdict, and the 409 error answers of a 1-sample stream.
func TestCachedQueriesBitIdenticalToUncached(t *testing.T) {
	const window, maxK = 48, 12
	cfg := Config{Stream: stream.Config{Window: window, MaxK: maxK}}
	cached := newTestServer(t, cfg)
	const checkBody = `{"freq_hz":1000000,"latency_ns":10,"buffer":3}`

	rng := rand.New(rand.NewSource(99))
	var now int64
	var history []string // ingest bodies, in order

	ingest := func(t *testing.T, base, body string) {
		t.Helper()
		if code, raw := postBody(t, base+"/v1/streams/s/ingest", body); code != http.StatusOK {
			t.Fatalf("ingest: %d %s", code, raw)
		}
	}

	for batch := 0; batch < 6; batch++ {
		// First batch is a single sample so the 409 (too-few-samples) answers
		// of /check and /minfreq go through the cache round too.
		n := 1
		if batch > 0 {
			n = 2 + rng.Intn(2*window/3)
		}
		tsv := make([]int64, n)
		dv := make([]int64, n)
		for i := range tsv {
			now += int64(rng.Intn(30))
			tsv[i] = now
			dv[i] = int64(rng.Intn(400))
		}
		body := fmt.Sprintf(`{"t":%s,"demand":%s}`, jsonInts(tsv), jsonInts(dv))
		history = append(history, body)
		ingest(t, cached.URL, body)

		ref := newTestServer(t, cfg)
		for _, b := range history {
			ingest(t, ref.URL, b)
		}

		for _, q := range [][2]string{
			{"GET", "/v1/streams/s/curves"},
			{"GET", "/v1/streams/s/minfreq?b=2"},
			{"GET", "/v1/streams/s/verdict"},
			{"POST", "/v1/streams/s/check"},
		} {
			var miss, hit, fresh []byte
			var mc, hc, fc int
			if q[0] == "GET" {
				mc, miss = getRaw(t, cached.URL+q[1])
				hc, hit = getRaw(t, cached.URL+q[1])
				fc, fresh = getRaw(t, ref.URL+q[1])
			} else {
				mc, miss = postBody(t, cached.URL+q[1], checkBody)
				hc, hit = postBody(t, cached.URL+q[1], checkBody)
				fc, fresh = postBody(t, ref.URL+q[1], checkBody)
			}
			if mc != hc || mc != fc {
				t.Fatalf("batch %d %s: statuses miss=%d hit=%d fresh=%d", batch, q[1], mc, hc, fc)
			}
			if !bytes.Equal(miss, hit) {
				t.Fatalf("batch %d %s: hit differs from miss:\n%s\n%s", batch, q[1], miss, hit)
			}
			if !bytes.Equal(miss, fresh) {
				t.Fatalf("batch %d %s: cached differs from uncached recomputation:\n%s\n%s",
					batch, q[1], miss, fresh)
			}
		}
	}
}

// TestCacheHitAndInvalidation pins the cache mechanics observably: repeated
// queries at one version are hits (counter moves, stream lock untouched),
// any mutation — ingest or contract — invalidates, and the version field in
// responses never decreases.
func TestCacheHitAndInvalidation(t *testing.T) {
	ts := newTestServer(t, Config{Stream: stream.Config{Window: 32, MaxK: 8}})
	hits := func() string {
		_, raw := getRaw(t, ts.URL+"/metrics")
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "wcmd_query_cache_hits_total ") {
				return strings.TrimPrefix(line, "wcmd_query_cache_hits_total ")
			}
		}
		t.Fatal("hit counter not exported")
		return ""
	}

	if code, raw := postBody(t, ts.URL+"/v1/streams/s/ingest",
		`{"t":[0,10,20,30],"demand":[4,9,2,7]}`); code != http.StatusOK {
		t.Fatalf("ingest: %d %s", code, raw)
	}

	_, first := getRaw(t, ts.URL+"/v1/streams/s/curves")
	h0 := hits()
	_, second := getRaw(t, ts.URL+"/v1/streams/s/curves")
	if h1 := hits(); h1 == h0 {
		t.Fatalf("second /curves was not a cache hit (hits %s → %s)", h0, h1)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("cache hit changed the body:\n%s\n%s", first, second)
	}
	v1 := versionOf(t, first)

	// Ingest invalidates: new body, higher version.
	if code, _ := postBody(t, ts.URL+"/v1/streams/s/ingest", `{"t":[40],"demand":[100]}`); code != http.StatusOK {
		t.Fatal("second ingest failed")
	}
	_, third := getRaw(t, ts.URL+"/v1/streams/s/curves")
	if bytes.Equal(second, third) {
		t.Fatal("ingest did not invalidate the cached /curves answer")
	}
	v2 := versionOf(t, third)
	if v2 <= v1 {
		t.Fatalf("version did not advance: %d then %d", v1, v2)
	}

	// SetContract invalidates /verdict.
	_, verdictBefore := getRaw(t, ts.URL+"/v1/streams/s/verdict")
	if code, _ := postBody(t, ts.URL+"/v1/streams/s/contract",
		`{"upper":[0,1000,2000],"lower":[0,0,0]}`); code != http.StatusOK {
		t.Fatal("contract failed")
	}
	_, verdictAfter := getRaw(t, ts.URL+"/v1/streams/s/verdict")
	if bytes.Equal(verdictBefore, verdictAfter) {
		t.Fatal("contract did not invalidate the cached /verdict answer")
	}
	if versionOf(t, verdictAfter) <= versionOf(t, verdictBefore) {
		t.Fatal("verdict version did not advance across SetContract")
	}
}

// versionOf extracts the "version" field from a JSON response body.
func versionOf(t *testing.T, body []byte) int64 {
	t.Helper()
	var m struct {
		Version int64 `json:"version"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("bad JSON %s: %v", body, err)
	}
	return m.Version
}
