package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

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

// TestDegradedRead drives the full degradation path: a stream whose lock
// is held past the request deadline serves the last cached snapshot,
// byte-identical to the last good answer except for the "degraded":true
// marker, and a query with nothing cached answers 503.
func TestDegradedRead(t *testing.T) {
	s, err := New(Config{Stream: streamCfg, RequestTimeout: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/g/ingest", `{"t":[0,100,200],"demand":[3,5,4]}`); code != http.StatusOK {
		t.Fatalf("ingest: %d", code)
	}
	// Populate the caches.
	code, _, good := rawGet(t, ts.URL+"/v1/streams/g/curves")
	if code != http.StatusOK {
		t.Fatalf("curves: %d", code)
	}
	if code, _, _ := rawGet(t, ts.URL+"/v1/streams/g/verdict"); code != http.StatusOK {
		t.Fatalf("verdict: %d", code)
	}
	// Bump the stream version so the cache goes stale (fresh cache hits
	// never need the lock and would mask the degradation path).
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/g/contract",
		`{"upper":[0,100,200],"lower":[0,0,0]}`); code != http.StatusOK {
		t.Fatalf("contract: %d", code)
	}

	e := s.get("g")
	if e == nil {
		t.Fatal("stream entry missing")
	}
	held := make(chan struct{})
	done := make(chan struct{})
	go func() {
		close(held)
		e.st.HoldLock(400 * time.Millisecond)
		close(done)
	}()
	<-held
	// Wait until the holder actually owns the lock: SnapshotWithin(0) is a
	// single TryLock probe.
	for {
		if _, err := e.st.SnapshotWithin(0); err != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}

	code, hdr, body := rawGet(t, ts.URL+"/v1/streams/g/curves")
	if code != http.StatusOK {
		t.Fatalf("degraded curves: %d %s", code, body)
	}
	if hdr.Get("X-Wcm-Degraded") != "true" {
		t.Fatal("degraded response missing X-Wcm-Degraded header")
	}
	want := string(good[:len(good)-2]) + `,"degraded":true}` + "\n"
	if string(body) != want {
		t.Fatalf("degraded body not the cached snapshot:\n got %q\nwant %q", body, want)
	}
	// A parameterized query with no cached answer cannot degrade: 503.
	code, hdr, _ = rawGet(t, ts.URL+"/v1/streams/g/minfreq?b=7")
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("uncached minfreq under contention: %d", code)
	}

	<-done
	// Lock free again: fresh answers resume, no degraded marker.
	code, hdr, fresh := rawGet(t, ts.URL+"/v1/streams/g/curves")
	if code != http.StatusOK || hdr.Get("X-Wcm-Degraded") != "" {
		t.Fatalf("fresh curves after hold: %d degraded=%q", code, hdr.Get("X-Wcm-Degraded"))
	}
	if strings.Contains(string(fresh), `"degraded"`) {
		t.Fatalf("fresh body still marked degraded: %s", fresh)
	}
	if got := metricValue(t, ts.URL, "wcmd_degraded_responses_total"); got != "1" {
		t.Fatalf("wcmd_degraded_responses_total = %q, want 1", got)
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

// TestSheddingReadDegrades saturates the read budget and checks the tiered
// fallback: fresh cache → normal answer, stale cache → degraded answer,
// nothing cached → 429.
func TestSheddingReadDegrades(t *testing.T) {
	s, err := New(Config{Stream: streamCfg, MaxInflightRead: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/rd/ingest", `{"t":[0,100],"demand":[2,3]}`); code != http.StatusOK {
		t.Fatalf("ingest: %d", code)
	}
	code, _, good := rawGet(t, ts.URL+"/v1/streams/rd/curves")
	if code != http.StatusOK {
		t.Fatalf("curves: %d", code)
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
	code, hdr, body := rawGet(t, ts.URL+"/v1/streams/rd/curves")
	if code != http.StatusOK || hdr.Get("X-Wcm-Degraded") != "" || string(body) != string(good) {
		t.Fatalf("shed read with fresh cache: %d degraded=%q", code, hdr.Get("X-Wcm-Degraded"))
	}

	// Stale cache (contract bump is ingest class, not blocked): degraded.
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/rd/contract",
		`{"upper":[0,100,200],"lower":[0,0,0]}`); code != http.StatusOK {
		t.Fatalf("contract: %d", code)
	}
	code, hdr, body = rawGet(t, ts.URL+"/v1/streams/rd/curves")
	if code != http.StatusOK || hdr.Get("X-Wcm-Degraded") != "true" {
		t.Fatalf("shed read with stale cache: %d degraded=%q %s", code, hdr.Get("X-Wcm-Degraded"), body)
	}
	if want := string(good[:len(good)-2]) + `,"degraded":true}` + "\n"; string(body) != want {
		t.Fatalf("degraded shed body:\n got %q\nwant %q", body, want)
	}

	// Nothing cached (unknown stream): plain shed. The hint grows with
	// shed pressure (this is the third shed in the window on a 1-slot
	// limiter), so only its clamp range is asserted here — the exact
	// proportionality is pinned down by TestRetryAfterProportional.
	code, hdr, _ = rawGet(t, ts.URL+"/v1/streams/nope/curves")
	if code != http.StatusTooManyRequests {
		t.Fatalf("shed read with no cache: %d", code)
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
	e, _, err := s.getOrCreate("lh", nil)
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
	if _, err := e.st.Reextract(); err != nil {
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

// TestIngestRingFullSheds fills a one-slot ingest ring past a request
// deadline. Stream x's lock is held for 300ms (stream.HoldLock, the lockhold
// fault's mechanism), so the shard's worker blocks applying the first job,
// the second job waits in the ring, and the third request finds the ring
// full until its 50ms deadline: 503 with Retry-After. The update stage
// covers every request that reached the hand-off, the shed one included.
//
// The lock is held by the test rather than through a configured lockhold
// fault: the fault holds the lock inside the ingest handler, before that
// request's job exists, and the worker wins the lock at every hand-off
// between successive holders, so the ring would fill only by chance.
func TestIngestRingFullSheds(t *testing.T) {
	s, err := New(Config{
		Shards:         1,
		Stream:         streamCfg,
		IngestRing:     1,
		RequestTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	e, _, err := s.getOrCreate("x", nil)
	if err != nil {
		t.Fatal(err)
	}
	go e.st.HoldLock(300 * time.Millisecond)
	for {
		if _, err := e.st.SnapshotWithin(0); err != nil {
			break // the hold is in force
		}
		time.Sleep(time.Millisecond)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	ingest := func(ts0 int) (*http.Response, error) {
		return http.Post(ts.URL+"/v1/streams/x/ingest", "application/json",
			strings.NewReader(fmt.Sprintf(`{"t":[%d],"demand":[1]}`, ts0)))
	}
	parked := make(chan int, 2)
	park := func(ts0 int) {
		resp, err := ingest(ts0)
		if err != nil {
			t.Error(err)
			parked <- 0
			return
		}
		resp.Body.Close()
		parked <- resp.StatusCode
	}
	p := s.pipes[0]
	go park(100)
	waitFor("the worker to take the first job", func() bool { return s.metrics.coalesce.Count() == 1 })
	go park(200)
	waitFor("the second job to fill the ring", func() bool { return p.ring.Len() == 1 })

	resp, err := ingest(300)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("ingest into a full ring: %d Retry-After=%q, want 503 with a hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	for i := 0; i < 2; i++ {
		if code := <-parked; code != http.StatusOK {
			t.Errorf("queued ingest = %d, want 200 once the hold ends", code)
		}
	}
	if got := s.metrics.stages[stageUpdate].Count(); got != 3 {
		t.Errorf("update stage count = %d, want 3: the shed request reached the hand-off too", got)
	}
}

// TestDropIfEmptyIngestRace races dropIfEmpty against a writer that
// fetched the same entry: whenever the writer's ingest succeeds, the
// stream must remain reachable with the sample in it — the tombstone +
// ensureRegistered protocol may not strand samples in an orphaned stream.
func TestDropIfEmptyIngestRace(t *testing.T) {
	s, err := New(Config{Stream: streamCfg})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 300; round++ {
		id := fmt.Sprintf("race-%d", round)
		e, created, err := s.getOrCreate(id, nil)
		if err != nil || !created {
			t.Fatalf("round %d: getOrCreate: created=%v err=%v", round, created, err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			s.dropIfEmpty(id, e)
		}()
		var ingErr, regErr error
		go func() {
			defer wg.Done()
			<-start
			if _, ingErr = e.st.Ingest([]int64{0}, []int64{1}); ingErr == nil {
				regErr = s.ensureRegistered(id, e)
			}
		}()
		close(start)
		wg.Wait()
		if ingErr != nil {
			t.Fatalf("round %d: ingest: %v", round, ingErr)
		}
		if regErr != nil {
			t.Fatalf("round %d: ensureRegistered: %v", round, regErr)
		}
		got := s.get(id)
		if got == nil {
			t.Fatalf("round %d: stream vanished after acknowledged ingest", round)
		}
		if total := got.st.Stats().Total; total != 1 {
			t.Fatalf("round %d: registered stream total = %d, want 1", round, total)
		}
	}
}

// TestDeleteTombstoneWins pins the other half of the protocol: a writer
// losing the race to an explicit DELETE does not resurrect the stream.
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
	// the detached stream, but ensureRegistered must NOT re-register it.
	if _, err := e.st.Ingest([]int64{100}, []int64{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.ensureRegistered("del", e); err != nil {
		t.Fatalf("ensureRegistered after delete: %v", err)
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
