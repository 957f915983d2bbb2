package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wcm/internal/qos"
	"wcm/internal/stream"
)

// streamCfg is the stream shape shared by the resilience tests.
var streamCfg = stream.Config{Window: 64, MaxK: 16}

// rawGet fetches url and returns status, headers and exact body bytes —
// the degraded-read assertions are byte-level, so doJSON is too lossy.
func rawGet(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// metricValue scrapes /metrics and returns the value line for a series
// (exact name including labels), or "" when absent.
func metricValue(t *testing.T, baseURL, series string) string {
	t.Helper()
	_, _, body := rawGet(t, baseURL+"/metrics")
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, series+" ") {
			return strings.TrimPrefix(line, series+" ")
		}
	}
	return ""
}

func TestParseFaults(t *testing.T) {
	fs, err := ParseFaults("panic:handler:curves, sleep:handler:ingest:250ms,lockhold:ingest:update:1s")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Point: "handler:curves", Kind: FaultPanic},
		{Point: "handler:ingest", Kind: FaultSleep, Dur: 250 * time.Millisecond},
		{Point: "ingest:update", Kind: FaultLockHold, Dur: time.Second},
	}
	if len(fs) != len(want) {
		t.Fatalf("ParseFaults: got %v", fs)
	}
	for i := range want {
		if fs[i] != want[i] {
			t.Fatalf("fault %d = %+v, want %+v", i, fs[i], want[i])
		}
	}
	for _, bad := range []string{
		"bogus:handler:curves", // unknown kind
		"sleep:handler:curves", // sleep without a duration
		"panic",                // no point
	} {
		if _, err := ParseFaults(bad); err == nil {
			t.Fatalf("ParseFaults(%q) accepted", bad)
		}
	}
	// Empty specs are a no-op, not an error.
	if fs, err := ParseFaults(" , "); err != nil || fs != nil {
		t.Fatalf("ParseFaults(blank) = %v, %v", fs, err)
	}
	// Duplicate points are rejected at server construction.
	dup := []Fault{{Point: "handler:curves", Kind: FaultPanic}, {Point: "handler:curves", Kind: FaultPanic}}
	if _, err := New(Config{Faults: dup}); err == nil {
		t.Fatal("duplicate fault points accepted")
	}
}

// TestPanicRecovery injects a panic into the curves handler and checks the
// full recovery contract: every hit answers a clean 500 JSON error, the
// server stays alive for other endpoints, and wcmd_panics_total counts
// exactly the injected panics.
func TestPanicRecovery(t *testing.T) {
	s, err := New(Config{
		Stream: streamCfg,
		Faults: []Fault{{Point: "handler:curves", Kind: FaultPanic}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/p/ingest", `{"t":[0,100],"demand":[1,2]}`); code != http.StatusOK {
		t.Fatalf("ingest: %d", code)
	}
	const hits = 3
	for i := 0; i < hits; i++ {
		code, m := doJSON(t, "GET", ts.URL+"/v1/streams/p/curves", "")
		if code != http.StatusInternalServerError || m["error"] != "internal server error" {
			t.Fatalf("panicking curves: %d %v", code, m)
		}
	}
	// The server keeps serving everything else.
	if code, _ := doJSON(t, "GET", ts.URL+"/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz after panics: %d", code)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/streams/p/verdict", ""); code != http.StatusOK {
		t.Fatalf("verdict after panics: %d", code)
	}
	if got := metricValue(t, ts.URL, "wcmd_panics_total"); got != fmt.Sprint(hits) {
		t.Fatalf("wcmd_panics_total = %q, want %d", got, hits)
	}
	code, m := doJSON(t, "GET", ts.URL+"/v1/stats", "")
	if code != http.StatusOK || m["panics"].(float64) != hits {
		t.Fatalf("/v1/stats panics = %v", m["panics"])
	}
	// The 500s land in the error counters too.
	if got := metricValue(t, ts.URL, `wcmd_request_errors_total{endpoint="curves"}`); got != fmt.Sprint(hits) {
		t.Fatalf(`request_errors_total{curves} = %q`, got)
	}
}

// TestRequestDeadline pins the per-request deadline on the mutating path:
// a handler stalled past Config.RequestTimeout (sleep fault) refuses to
// start the stream update and answers 503 with Retry-After.
func TestRequestDeadline(t *testing.T) {
	s, err := New(Config{
		Stream:         streamCfg,
		RequestTimeout: 30 * time.Millisecond,
		Faults:         []Fault{{Point: "handler:ingest", Kind: FaultSleep, Dur: 120 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, _ := http.NewRequest("POST", ts.URL+"/v1/streams/d/ingest",
		strings.NewReader(`{"t":[0],"demand":[1]}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stalled ingest: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	// The refused update left no stream behind.
	if code, m := doJSON(t, "GET", ts.URL+"/v1/streams/d/curves", ""); code != http.StatusNotFound {
		t.Fatalf("ghost stream after refused ingest: %d %v", code, m)
	}
}

// TestSheddingIngest fills the ingest in-flight budget with a request whose
// body never arrives and checks that the next ingest is shed with 429 +
// Retry-After while reads and observability endpoints keep working.
func TestSheddingIngest(t *testing.T) {
	s, err := New(Config{Stream: streamCfg, MaxInflightIngest: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/sh/ingest", `{"t":[0],"demand":[1]}`); code != http.StatusOK {
		t.Fatalf("seed ingest: %d", code)
	}

	pr, pw := io.Pipe()
	blockedDone := make(chan int, 1)
	go func() {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/streams/sh/ingest", pr)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			blockedDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		blockedDone <- resp.StatusCode
	}()
	for s.limIngest.Inflight() == 0 {
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/v1/streams/sh/ingest", "application/json",
		strings.NewReader(`{"t":[100],"demand":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget ingest: %d %s", resp.StatusCode, body)
	}
	// First shed in the pressure window: the hint is exactly the floor.
	if resp.Header.Get("Retry-After") != strconv.Itoa(retryAfterFloorSeconds) {
		t.Fatalf("shed Retry-After = %q", resp.Header.Get("Retry-After"))
	}
	if !strings.Contains(string(body), "overloaded") {
		t.Fatalf("shed body: %s", body)
	}
	// Reads and observability are a separate budget: both still answer.
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/streams/sh/curves", ""); code != http.StatusOK {
		t.Fatalf("read while ingest saturated: %d", code)
	}
	if got := metricValue(t, ts.URL, `wcmd_shed_total{class="ingest"}`); got != "1" {
		t.Fatalf(`wcmd_shed_total{ingest} = %q, want 1`, got)
	}
	if got := metricValue(t, ts.URL, `wcmd_inflight_limit{class="ingest"}`); got != "1" {
		t.Fatalf(`wcmd_inflight_limit{ingest} = %q, want 1`, got)
	}

	// Complete the parked request; it was admitted, so it must succeed.
	if _, err := pw.Write([]byte(`{"t":[200],"demand":[1]}`)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if code := <-blockedDone; code != http.StatusOK {
		t.Fatalf("parked ingest finished with %d", code)
	}
	if s.limIngest.Inflight() != 0 {
		t.Fatalf("in-flight not released: %d", s.limIngest.Inflight())
	}
}

// readCase is one cached read endpoint in one wire format, as the fallback
// tables drive it.
type readCase struct {
	name   string
	method string
	path   string // after /v1/streams/{id}
	body   string
	binary bool
}

// readCases lists every cached read endpoint × format (/verdict is JSON
// only).
var readCases = []readCase{
	{name: "curves/json", method: "GET", path: "/curves"},
	{name: "curves/binary", method: "GET", path: "/curves", binary: true},
	{name: "check/json", method: "POST", path: "/check", body: `{"freq_hz":1000000,"latency_ns":10,"buffer":2}`},
	{name: "check/binary", method: "POST", path: "/check", body: `{"freq_hz":1000000,"latency_ns":10,"buffer":2}`, binary: true},
	{name: "minfreq/json", method: "GET", path: "/minfreq?b=2"},
	{name: "minfreq/binary", method: "GET", path: "/minfreq?b=2", binary: true},
	{name: "verdict/json", method: "GET", path: "/verdict"},
}

// fallbackIngest gives a stream enough samples that every read case
// answers 200.
const fallbackIngest = `{"t":[0,100,200,300,400,500,600,700],"demand":[3,5,4,6,2,7,5,4]}`

// read issues c against stream id and returns status, headers and exact
// body bytes.
func (c readCase) read(t *testing.T, baseURL, id string) (int, http.Header, []byte) {
	t.Helper()
	var rd io.Reader
	if c.body != "" {
		rd = strings.NewReader(c.body)
	}
	req, err := http.NewRequest(c.method, baseURL+"/v1/streams/"+id+c.path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if c.binary {
		req.Header.Set("Accept", ContentTypeQueryBinary)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// wantDegraded checks a degraded answer against the last good one: JSON
// bodies carry "degraded":true spliced before the closing brace, binary
// bodies are served unmodified in their own content type, and both carry
// the X-Wcm-Degraded header.
func (c readCase) wantDegraded(t *testing.T, code int, hdr http.Header, body, good []byte) {
	t.Helper()
	if code != http.StatusOK || hdr.Get("X-Wcm-Degraded") != "true" {
		t.Fatalf("degraded read: %d degraded=%q %s", code, hdr.Get("X-Wcm-Degraded"), body)
	}
	want, ct := string(good[:len(good)-2])+`,"degraded":true}`+"\n", "application/json"
	if c.binary {
		want, ct = string(good), ContentTypeQueryBinary
	}
	if string(body) != want || hdr.Get("Content-Type") != ct {
		t.Fatalf("degraded body (%s):\n got %q\nwant %q (%s)", hdr.Get("Content-Type"), body, want, ct)
	}
}

// holdLocks holds every named stream's lock for d and returns once all of
// them are held; the returned channel closes when every hold has ended.
func holdLocks(t *testing.T, s *Server, d time.Duration, ids ...string) <-chan struct{} {
	t.Helper()
	var wg sync.WaitGroup
	for _, id := range ids {
		e := s.get(id)
		if e == nil {
			t.Fatalf("stream %q missing", id)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.st.HoldLock(d)
		}()
		// SnapshotWithin(0) is a single TryLock probe: it fails once the
		// holder owns the lock.
		for {
			if _, err := e.st.SnapshotWithin(0); err != nil {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	return done
}

// TestDegradedRead drives the deadline degradation path of every cached
// read: a stream whose lock is held past the request deadline serves its
// last cached answer, byte-identical to the last good answer except for
// the degraded marker, and a stream with nothing cached answers 503.
func TestDegradedRead(t *testing.T) {
	for _, c := range readCases {
		t.Run(c.name, func(t *testing.T) {
			s, err := New(Config{Stream: streamCfg, RequestTimeout: 40 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			for _, id := range []string{"g", "cold"} {
				if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/"+id+"/ingest", fallbackIngest); code != http.StatusOK {
					t.Fatalf("ingest %s: %d", id, code)
				}
			}
			code, _, good := c.read(t, ts.URL, "g") // populates the cache
			if code != http.StatusOK {
				t.Fatalf("read: %d %s", code, good)
			}
			// Bump the version so the cached answer goes stale (a fresh
			// hit never needs the lock and would mask the degraded path).
			if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/g/contract",
				`{"upper":[0,100,200],"lower":[0,0,0]}`); code != http.StatusOK {
				t.Fatalf("contract: %d", code)
			}

			released := holdLocks(t, s, 300*time.Millisecond, "g", "cold")
			code, hdr, body := c.read(t, ts.URL, "g")
			c.wantDegraded(t, code, hdr, body, good)
			// Nothing cached for this query on "cold": it cannot degrade.
			code, hdr, body = c.read(t, ts.URL, "cold")
			if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
				t.Fatalf("uncached read under contention: %d %s", code, body)
			}
			<-released

			// Lock free again: fresh answers resume, no degraded marker.
			code, hdr, fresh := c.read(t, ts.URL, "g")
			if code != http.StatusOK || hdr.Get("X-Wcm-Degraded") != "" || bytes.Contains(fresh, []byte(`"degraded"`)) {
				t.Fatalf("fresh read after hold: %d degraded=%q %s", code, hdr.Get("X-Wcm-Degraded"), fresh)
			}
			if got := metricValue(t, ts.URL, "wcmd_degraded_responses_total"); got != "1" {
				t.Fatalf("wcmd_degraded_responses_total = %q, want 1", got)
			}
		})
	}

	// One endpoint's render never drops another endpoint's last answer: a
	// /check rendered at a newer version leaves the stale /curves answer
	// in place as /curves' degraded fallback.
	t.Run("curves survives a newer check", func(t *testing.T) {
		s, err := New(Config{Stream: streamCfg, RequestTimeout: 40 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/g/ingest", fallbackIngest); code != http.StatusOK {
			t.Fatalf("ingest: %d", code)
		}
		curves, check := readCases[0], readCases[2]
		code, _, good := curves.read(t, ts.URL, "g")
		if code != http.StatusOK {
			t.Fatalf("curves: %d", code)
		}
		if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/g/contract",
			`{"upper":[0,100,200],"lower":[0,0,0]}`); code != http.StatusOK {
			t.Fatalf("contract: %d", code)
		}
		if code, _, body := check.read(t, ts.URL, "g"); code != http.StatusOK {
			t.Fatalf("check at the new version: %d %s", code, body)
		}
		released := holdLocks(t, s, 300*time.Millisecond, "g")
		code, hdr, body := curves.read(t, ts.URL, "g")
		curves.wantDegraded(t, code, hdr, body, good)
		<-released
	})
}

// TestSheddingReadDegrades saturates the read budget and checks the tiered
// shed fallback of every cached read: fresh cache → normal answer, stale
// cache → degraded answer, nothing cached → 429.
func TestSheddingReadDegrades(t *testing.T) {
	for _, c := range readCases {
		t.Run(c.name, func(t *testing.T) {
			s, err := New(Config{Stream: streamCfg, MaxInflightRead: 1})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			for _, id := range []string{"rd", "cold"} {
				if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/"+id+"/ingest", fallbackIngest); code != http.StatusOK {
					t.Fatalf("ingest %s: %d", id, code)
				}
			}
			code, _, good := c.read(t, ts.URL, "rd")
			if code != http.StatusOK {
				t.Fatalf("read: %d %s", code, good)
			}

			// Saturate the read class with a /check whose body never arrives.
			pr, pw := io.Pipe()
			blockedDone := make(chan struct{})
			go func() {
				defer close(blockedDone)
				req, _ := http.NewRequest("POST", ts.URL+"/v1/streams/rd/check", pr)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}()
			for s.limRead.Inflight() == 0 {
				time.Sleep(time.Millisecond)
			}

			// Fresh cache: the shed read is served normally from it.
			code, hdr, body := c.read(t, ts.URL, "rd")
			if code != http.StatusOK || hdr.Get("X-Wcm-Degraded") != "" || string(body) != string(good) {
				t.Fatalf("shed read with fresh cache: %d degraded=%q %s", code, hdr.Get("X-Wcm-Degraded"), body)
			}

			// Stale cache (contract bump is ingest class, not blocked): degraded.
			if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/rd/contract",
				`{"upper":[0,100,200],"lower":[0,0,0]}`); code != http.StatusOK {
				t.Fatalf("contract: %d", code)
			}
			code, hdr, body = c.read(t, ts.URL, "rd")
			c.wantDegraded(t, code, hdr, body, good)

			// Nothing cached for this query on "cold": plain shed. The hint
			// grows with shed pressure, so only its clamp range is asserted
			// here — TestRetryAfterProportional pins the proportionality.
			code, hdr, body = c.read(t, ts.URL, "cold")
			if code != http.StatusTooManyRequests {
				t.Fatalf("shed read with no cache: %d %s", code, body)
			}
			if secs, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil ||
				secs < retryAfterFloorSeconds || secs > maxRetryAfterSeconds {
				t.Fatalf("shed Retry-After = %q, want integer in [%d,%d]",
					hdr.Get("Retry-After"), retryAfterFloorSeconds, maxRetryAfterSeconds)
			}

			pw.Close() // unblock; the parked /check fails decode, that's fine
			<-blockedDone
			if s.limRead.Inflight() != 0 {
				t.Fatalf("in-flight not released: %d", s.limRead.Inflight())
			}
		})
	}

	// A shed read is parsed like an admitted one: invalid /check
	// parameters get the handler's 400, not a 429 or a cached answer.
	t.Run("check/invalid", func(t *testing.T) {
		s, err := New(Config{Stream: streamCfg, MaxInflightRead: -1, Tenants: []qos.TenantConfig{
			{Name: "ro", RatePerSec: 1, Burst: 1},
		}})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/rd/ingest", fallbackIngest); code != http.StatusOK {
			t.Fatalf("ingest: %d", code)
		}
		const bad = `{"freq_hz":0,"latency_ns":10,"buffer":2}`
		for i := 0; i < 2; i++ { // the second read is throttled into the shed fallback
			code, _, body := doAs(t, "ro", "POST", ts.URL+"/v1/streams/rd/check", bad)
			if code != http.StatusBadRequest || !strings.Contains(string(body), "need freq_hz") {
				t.Fatalf("read %d with invalid check parameters: %d %s", i, code, body)
			}
		}
		if ro := tenantRecord(t, ts.URL, "ro"); ro.Throttled+ro.Degraded != 1 {
			t.Fatalf("second read not refused admission: %+v", ro)
		}
	})
}

// TestLockHoldFault checks the lockhold fault end to end: a faulted ingest
// holds its stream's lock, and a concurrent deadline-bounded read degrades
// instead of queueing behind it.
func TestLockHoldFault(t *testing.T) {
	s, err := New(Config{
		Stream:         streamCfg,
		RequestTimeout: 40 * time.Millisecond,
		Faults:         []Fault{{Point: "ingest:update", Kind: FaultLockHold, Dur: 300 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Seed the stream and its cache through direct handler state (the HTTP
	// ingest path would trip the fault): version 1, cached curves.
	e, err := s.getOrCreate("lh", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.st.Ingest([]int64{0, 100}, []int64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := rawGet(t, ts.URL+"/v1/streams/lh/curves"); code != http.StatusOK {
		t.Fatal("seed curves")
	}
	// Stale the cache first (the lockhold fires before the ingest's own
	// version bump, so a fresh cache would be served normally — which is
	// itself correct — and never exercise the contended-lock path).
	if _, err := e.st.Ingest([]int64{150}, []int64{1}); err != nil {
		t.Fatal(err)
	}

	// The faulted ingest now holds the lock for 300ms before updating.
	ingestDone := make(chan struct{})
	go func() {
		defer close(ingestDone)
		doJSON(t, "POST", ts.URL+"/v1/streams/lh/ingest", `{"t":[200],"demand":[3]}`)
	}()
	// Wait for the hold-up to be in force.
	for {
		if _, err := e.st.SnapshotWithin(0); err != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}

	code, hdr, _ := rawGet(t, ts.URL+"/v1/streams/lh/curves")
	if code != http.StatusOK || hdr.Get("X-Wcm-Degraded") != "true" {
		t.Fatalf("read behind lockhold: %d degraded=%q", code, hdr.Get("X-Wcm-Degraded"))
	}
	<-ingestDone
}

// TestCreationRaceStrandsNothing races first batches to fresh ids through
// the handler: valid ones and invalid ones (negative demand, negative
// timestamp), from the unlimited default tenant and from a tenant with a
// stream quota. Whatever the interleaving, a stream exists exactly when
// some batch to it was acknowledged, and then holds every acknowledged
// sample; no registry entry is empty; and the quota'd tenant's stream
// count is its live streams, so a refused first batch takes no slot.
func TestCreationRaceStrandsNothing(t *testing.T) {
	const quota = 2
	s, err := New(Config{Stream: streamCfg, Tenants: []qos.TenantConfig{{Name: "q", MaxStreams: quota}}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	q := s.qos.state("q")
	post := func(tenant, id, body string) int {
		req := httptest.NewRequest("POST", "/v1/streams/"+id+"/ingest", strings.NewReader(body))
		if tenant != "" {
			req.Header.Set("X-Wcm-Tenant", tenant)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	bodies := []struct {
		body    string
		samples int64 // 0: invalid for any stream
	}{
		{`{"t":[100],"demand":[1]}`, 1},
		{`{"t":[100,200],"demand":[2,3]}`, 2},
		{`{"t":[100],"demand":[-1]}`, 0},
		{`{"t":[-5],"demand":[1]}`, 0},
	}
	const writers = 16
	for round := 0; round < 50; round++ {
		// The last id gets invalid batches only.
		ids := []string{fmt.Sprintf("r%d-a", round), fmt.Sprintf("r%d-b", round), fmt.Sprintf("r%d-c", round), fmt.Sprintf("r%d-x", round)}
		acked := make(map[string]int64)
		var mu sync.Mutex
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				i, j := g%len(ids), g/len(ids)
				if i == len(ids)-1 {
					j = 2 + j%2
				}
				id, b, tenant := ids[i], bodies[j%len(bodies)], ""
				if g/len(ids)%2 == 1 {
					tenant = "q"
				}
				<-start
				code := post(tenant, id, b.body)
				switch {
				case b.samples == 0 && code != http.StatusBadRequest:
					t.Errorf("round %d: invalid first batch to %s answered %d", round, id, code)
				case code == http.StatusOK:
					mu.Lock()
					acked[id] += b.samples
					mu.Unlock()
				case code != http.StatusBadRequest && code != http.StatusTooManyRequests:
					t.Errorf("round %d: batch to %s answered %d", round, id, code)
				}
			}(g)
		}
		close(start)
		wg.Wait()
		owned := int64(0)
		for _, sh := range s.shards {
			sh.mu.RLock()
			for id, e := range sh.streams {
				if e.st.Version() == 0 {
					t.Errorf("round %d: empty stream %s in the registry", round, id)
				}
				if e.owner == q {
					owned++
				}
			}
			sh.mu.RUnlock()
		}
		if got := q.streams.Load(); got != owned {
			t.Fatalf("round %d: tenant q counts %d streams, owns %d", round, got, owned)
		}
		for _, id := range ids {
			e := s.get(id)
			if (e != nil) != (acked[id] > 0) {
				t.Fatalf("round %d: stream %s registered=%v with %d samples acknowledged", round, id, e != nil, acked[id])
			}
			if e == nil {
				continue
			}
			if total := e.st.Stats().Total; total != acked[id] {
				t.Fatalf("round %d: stream %s holds %d samples, %d acknowledged", round, id, total, acked[id])
			}
			req := httptest.NewRequest("DELETE", "/v1/streams/"+id, nil)
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
		if got := q.streams.Load(); got != 0 {
			t.Fatalf("round %d: tenant q counts %d streams after deleting them all", round, got)
		}
	}

	// At the quota, an invalid first batch is refused as invalid, and a
	// valid one by the quota; neither takes a slot.
	for i := 0; i < quota; i++ {
		if code := post("q", fmt.Sprintf("full-%d", i), bodies[0].body); code != http.StatusOK {
			t.Fatalf("create full-%d: %d", i, code)
		}
	}
	if code := post("q", "over", bodies[2].body); code != http.StatusBadRequest {
		t.Fatalf("invalid first batch over quota: %d, want 400", code)
	}
	if code := post("q", "over", bodies[0].body); code != http.StatusTooManyRequests {
		t.Fatalf("valid first batch over quota: %d, want 429", code)
	}
	if got := q.streams.Load(); got != quota || s.get("over") != nil {
		t.Fatalf("after refusals: tenant q counts %d streams, over registered=%v", got, s.get("over") != nil)
	}
}

// TestDeleteTombstoneWins: a writer losing the race to an explicit DELETE
// does not resurrect the stream.
func TestDeleteTombstoneWins(t *testing.T) {
	s, err := New(Config{Stream: streamCfg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/del/ingest", `{"t":[0],"demand":[1]}`); code != http.StatusOK {
		t.Fatal("seed ingest")
	}
	e := s.get("del")
	if code, _ := doJSON(t, "DELETE", ts.URL+"/v1/streams/del", ""); code != http.StatusNoContent {
		t.Fatal("delete")
	}
	// A late writer that still holds the entry: mutation is accepted on
	// the detached stream, which must stay out of the registry.
	if _, err := e.st.Ingest([]int64{100}, []int64{1}); err != nil {
		t.Fatal(err)
	}
	if s.get("del") != nil {
		t.Fatal("deleted stream resurrected by late writer")
	}
}

// TestDegradedBody pins the splice helper's edge cases.
func TestDegradedBody(t *testing.T) {
	if b := degradedBody(nil); b != nil {
		t.Fatalf("nil resp: %q", b)
	}
	if b := degradedBody(&cachedResp{status: 409, body: []byte("{\"error\":\"x\"}\n")}); b != nil {
		t.Fatalf("error resp degraded: %q", b)
	}
	if b := degradedBody(&cachedResp{status: 200, body: []byte("x")}); b != nil {
		t.Fatalf("malformed body degraded: %q", b)
	}
	got := degradedBody(&cachedResp{status: 200, body: []byte("{\"version\":3}\n")})
	if string(got) != "{\"version\":3,\"degraded\":true}\n" {
		t.Fatalf("splice: %q", got)
	}
}
