package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wcm/internal/obs/trace"
	"wcm/internal/wal"
)

// tracedReq performs one request with extra headers and returns status,
// response headers and body — the propagation assertions are header-level.
func tracedReq(t *testing.T, method, url string, hdr map[string]string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
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
	return resp.StatusCode, resp.Header, raw
}

// waitTrace polls the tracer for a stored trace — Finish runs after the
// response is written, so the client can observe the answer before the
// trace lands in the store.
func waitTrace(t *testing.T, s *Server, reqID string) *trace.Active {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if tr := s.tracer.Lookup(reqID); tr != nil {
			return tr
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("trace %q never stored", reqID)
	return nil
}

const sampleTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// TestTraceAsyncSpanTree is the tracing acceptance test: one traced
// binary-format ingest with durability on must produce a single span tree —
// handler-side decode/update/render plus the tail's apply/wal_append/
// wal_fsync under the update span — all under one trace ID, with every span
// inside the root's bounds and the root duration exactly matching the
// ingest endpoint histogram.
// Every stage span is the same reading as its stage histogram: one
// observation summing to exactly the span's duration — for the ingest's
// stages and for a traced curves miss and hit (the resolve spans). The rows
// set the deprecated IngestRing (perfbench still sets it) to show it changes
// nothing: no queue_wait span, the same tree.
func TestTraceAsyncSpanTree(t *testing.T) {
	for _, ring := range []int{16, 0} {
		t.Run(fmt.Sprintf("ring-%d", ring), func(t *testing.T) {
			cfg := Config{
				Shards:      4,
				Stream:      streamCfg,
				IngestRing:  ring,
				TraceSample: 1,
			}
			cfg.WAL = openTestWAL(t, t.TempDir(), cfg, wal.PolicyBatch)
			tailSpans := []string{"apply", "wal_append", "wal_fsync"}
			stages := []stageID{stageDecode, stageUpdate, stageRender, stageApply, stageWALAppend, stageWALFsync}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			body := AppendBinaryBatch(nil, []int64{0, 100, 200}, []int64{3, 5, 4})
			code, hdr, raw := tracedReq(t, "POST", ts.URL+"/v1/streams/cam/ingest", map[string]string{
				"Content-Type": ContentTypeBinary,
				"X-Request-Id": "e2e-1",
				"traceparent":  sampleTraceparent,
			}, body)
			if code != http.StatusOK {
				t.Fatalf("ingest: %d %s", code, raw)
			}
			if got := hdr.Get("X-Request-Id"); got != "e2e-1" {
				t.Fatalf("X-Request-Id echo = %q", got)
			}
			echo := hdr.Get("Traceparent")
			if !strings.HasPrefix(echo, "00-4bf92f3577b34da6a3ce929d0e0e4736-") {
				t.Fatalf("Traceparent echo %q does not carry the accepted trace-id", echo)
			}

			tr := waitTrace(t, s, "e2e-1")
			if tr.TraceIDHex() != "4bf92f3577b34da6a3ce929d0e0e4736" {
				t.Fatalf("stored trace-id = %q", tr.TraceIDHex())
			}
			if !tr.Remote() {
				t.Fatal("trace not marked remote despite valid traceparent")
			}

			spans := tr.Spans()
			byName := map[string]*trace.Span{}
			for i := range spans {
				byName[spans[i].Name] = &spans[i]
			}
			root := byName["request"]
			if root == nil || root.ID != 1 {
				t.Fatalf("no root span: %+v", spans)
			}
			// The tail's spans hang off the handler's update span.
			update := byName["update"]
			if update == nil {
				t.Fatalf("no update span; spans = %+v", spans)
			}
			for _, name := range tailSpans {
				sp := byName[name]
				if sp == nil {
					t.Fatalf("tail span %q missing; spans = %+v", name, spans)
				}
				if sp.Parent != update.ID {
					t.Errorf("%s.Parent = %d, want update (%d)", name, sp.Parent, update.ID)
				}
			}
			for _, name := range []string{"decode", "update", "render"} {
				sp := byName[name]
				if sp == nil {
					t.Fatalf("handler span %q missing; spans = %+v", name, spans)
				}
				if sp.Parent != 1 {
					t.Errorf("%s.Parent = %d, want root", name, sp.Parent)
				}
			}

			// Timing consistency: every span closed, inside the root's bounds, and
			// the root duration agrees exactly with the endpoint histogram (both are
			// fed the same time.Since(start)).
			for i := range spans {
				sp := &spans[i]
				if sp.DurNs < 0 {
					t.Errorf("span %q left open", sp.Name)
					continue
				}
				if sp.StartNs < 0 || sp.StartNs+sp.DurNs > root.DurNs {
					t.Errorf("span %q [%d, +%d] outside root duration %d",
						sp.Name, sp.StartNs, sp.DurNs, root.DurNs)
				}
			}
			snap := s.metrics.endpoints["ingest"].latency.Snapshot()
			if snap.Count != 1 || snap.SumNs != root.DurNs {
				t.Errorf("histogram count=%d sum=%d, root DurNs=%d — trace and histogram disagree",
					snap.Count, snap.SumNs, root.DurNs)
			}
			for _, id := range stages {
				sp, h := byName[stageTable[id].span], s.metrics.stages[id].Snapshot()
				if h.Count != 1 || h.SumNs != sp.DurNs {
					t.Errorf("stage %s: histogram count=%d sum=%d, span DurNs=%d — trace and histogram disagree",
						stageTable[id].label, h.Count, h.SumNs, sp.DurNs)
				}
			}

			// The HTTP surface renders the same tree.
			code, m := doJSON(t, "GET", ts.URL+"/debug/traces/e2e-1", "")
			if code != http.StatusOK {
				t.Fatalf("/debug/traces/e2e-1: %d %v", code, m)
			}
			if m["trace_id"] != "4bf92f3577b34da6a3ce929d0e0e4736" || m["remote_parent"] != true {
				t.Fatalf("trace JSON header fields: %v", m)
			}
			rootJSON := m["root"].(map[string]any)
			if rootJSON["name"] != "request" {
				t.Fatalf("root JSON = %v", rootJSON)
			}
			var updateJSON map[string]any
			for _, c := range rootJSON["children"].([]any) {
				if cm := c.(map[string]any); cm["name"] == "update" {
					updateJSON = cm
				}
			}
			if updateJSON == nil {
				t.Fatalf("update missing from JSON tree: %v", rootJSON)
			}
			workerNames := map[string]bool{}
			for _, c := range updateJSON["children"].([]any) {
				workerNames[c.(map[string]any)["name"].(string)] = true
			}
			for _, name := range tailSpans {
				if !workerNames[name] {
					t.Errorf("JSON tree: %s not under update: %v", name, workerNames)
				}
			}

			// And the index filters.
			code, m = doJSON(t, "GET", ts.URL+"/debug/traces?endpoint=ingest", "")
			if code != http.StatusOK || m["count"].(float64) < 1 {
				t.Fatalf("/debug/traces?endpoint=ingest: %d %v", code, m)
			}
			code, m = doJSON(t, "GET", ts.URL+"/debug/traces?endpoint=nosuch", "")
			if code != http.StatusOK || m["count"].(float64) != 0 {
				t.Fatalf("/debug/traces?endpoint=nosuch: %d %v", code, m)
			}

			// A traced curves miss, then a hit: each resolve span is its
			// cache stage's one observation.
			for _, c := range []struct {
				reqID string
				id    stageID
			}{{"e2e-miss", stageCacheMiss}, {"e2e-hit", stageCacheHit}} {
				code, _, raw := tracedReq(t, "GET", ts.URL+"/v1/streams/cam/curves",
					map[string]string{"X-Request-Id": c.reqID}, nil)
				if code != http.StatusOK {
					t.Fatalf("%s: curves %d %s", c.reqID, code, raw)
				}
				var resolve *trace.Span
				spans := waitTrace(t, s, c.reqID).Spans()
				for i := range spans {
					if spans[i].Name == "resolve" {
						resolve = &spans[i]
					}
				}
				h := s.metrics.stages[c.id].Snapshot()
				if resolve == nil || h.Count != 1 || h.SumNs != resolve.DurNs {
					t.Errorf("%s: resolve span %+v vs %s histogram count=%d sum=%d",
						c.reqID, resolve, stageTable[c.id].label, h.Count, h.SumNs)
				}
			}
		})
	}
}

// TestTraceparentPropagation covers header handling: a valid incoming
// traceparent donates the trace-id; malformed and version-ff headers are
// ignored gracefully (fresh IDs, request still served); unknown future
// versions with trailing fields are accepted.
func TestTraceparentPropagation(t *testing.T) {
	s, err := New(Config{Stream: streamCfg, TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, in    string
		wantAdopted bool
	}{
		{"valid", sampleTraceparent, true},
		{"future-version", "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-what", true},
		{"malformed", "not-a-traceparent", false},
		{"version-ff", "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false},
		{"zero-trace-id", "00-00000000000000000000000000000000-00f067aa0ba902b7-01", false},
		{"absent", "", false},
	}
	for i, c := range cases {
		hdr := map[string]string{"X-Request-Id": "tp-" + c.name}
		if c.in != "" {
			hdr["traceparent"] = c.in
		}
		code, rh, _ := tracedReq(t, "POST", ts.URL+"/v1/streams/tp/ingest", hdr,
			[]byte(fmt.Sprintf(`{"t":[%d],"demand":[1]}`, 1000+100*i)))
		if code != http.StatusOK {
			t.Fatalf("%s: ingest status %d", c.name, code)
		}
		echo := rh.Get("Traceparent")
		if len(echo) != 55 || !strings.HasPrefix(echo, "00-") {
			t.Fatalf("%s: echo %q not a version-00 traceparent", c.name, echo)
		}
		adopted := strings.HasPrefix(echo, "00-4bf92f3577b34da6a3ce929d0e0e4736-")
		if adopted != c.wantAdopted {
			t.Errorf("%s: trace-id adopted=%v, want %v (echo %q)", c.name, adopted, c.wantAdopted, echo)
		}
		if c.wantAdopted && strings.Contains(echo, "00f067aa0ba902b7") {
			t.Errorf("%s: echoed the caller's span-id instead of ours: %q", c.name, echo)
		}
	}
}

// TestTraceShedEcho saturates the ingest limiter and checks the overload
// answer: the 429 still carries X-Request-Id and Traceparent, and its trace
// is force-kept with the shed reason.
func TestTraceShedEcho(t *testing.T) {
	s, err := New(Config{
		Stream:            streamCfg,
		TraceSample:       1 << 20, // sampling alone would drop everything
		MaxInflightIngest: 1,
		Faults:            []Fault{{Point: "handler:ingest", Kind: FaultSleep, Dur: 300 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		doJSON(t, "POST", ts.URL+"/v1/streams/sh/ingest", `{"t":[0],"demand":[1]}`)
	}()
	for s.limIngest.Inflight() == 0 {
		time.Sleep(time.Millisecond)
	}

	code, hdr, _ := tracedReq(t, "POST", ts.URL+"/v1/streams/sh/ingest",
		map[string]string{"X-Request-Id": "shed-1", "traceparent": sampleTraceparent},
		[]byte(`{"t":[10],"demand":[1]}`))
	<-done
	if code != http.StatusTooManyRequests {
		t.Fatalf("second ingest = %d, want 429", code)
	}
	if hdr.Get("X-Request-Id") != "shed-1" {
		t.Errorf("shed response lost X-Request-Id: %q", hdr.Get("X-Request-Id"))
	}
	if !strings.HasPrefix(hdr.Get("Traceparent"), "00-4bf92f3577b34da6a3ce929d0e0e4736-") {
		t.Errorf("shed response Traceparent = %q", hdr.Get("Traceparent"))
	}
	tr := waitTrace(t, s, "shed-1")
	if tr.Keep()&trace.KeepShed == 0 {
		t.Errorf("shed trace kept for %q, want shed", tr.Keep())
	}
	if tr.Status() != http.StatusTooManyRequests {
		t.Errorf("shed trace status = %d", tr.Status())
	}
}

// TestTraceDegradedKept drives the lockhold degraded-read path and checks
// the fallback's trace is force-kept with the degraded reason.
func TestTraceDegradedKept(t *testing.T) {
	s, err := New(Config{
		Stream:         streamCfg,
		RequestTimeout: 40 * time.Millisecond,
		TraceSample:    1 << 20,
		Faults:         []Fault{{Point: "ingest:update", Kind: FaultLockHold, Dur: 300 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Seed stream + cache directly, then stale the cache, as in
	// TestLockHoldFault: the degraded path needs a stale cached answer
	// behind a held lock.
	e, _, err := s.getOrCreate("dg", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.st.Ingest([]int64{0, 100}, []int64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := rawGet(t, ts.URL+"/v1/streams/dg/curves"); code != http.StatusOK {
		t.Fatal("seed curves")
	}
	if _, err := e.st.Reextract(); err != nil {
		t.Fatal(err)
	}

	ingestDone := make(chan struct{})
	go func() {
		defer close(ingestDone)
		doJSON(t, "POST", ts.URL+"/v1/streams/dg/ingest", `{"t":[200],"demand":[3]}`)
	}()
	for {
		if _, err := e.st.SnapshotWithin(0); err != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}

	code, hdr, _ := tracedReq(t, "GET", ts.URL+"/v1/streams/dg/curves",
		map[string]string{"X-Request-Id": "deg-1"}, nil)
	<-ingestDone
	if code != http.StatusOK || hdr.Get("X-Wcm-Degraded") != "true" {
		t.Fatalf("degraded read: %d degraded=%q", code, hdr.Get("X-Wcm-Degraded"))
	}
	tr := waitTrace(t, s, "deg-1")
	if tr.Keep()&trace.KeepDegraded == 0 {
		t.Errorf("degraded trace kept for %q, want degraded", tr.Keep())
	}
}

// TestTracePanicKept injects a handler panic and checks the 500's trace is
// force-kept with the panic reason.
func TestTracePanicKept(t *testing.T) {
	s, err := New(Config{
		Stream:      streamCfg,
		TraceSample: 1 << 20,
		Faults:      []Fault{{Point: "handler:curves", Kind: FaultPanic}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/pn/ingest", `{"t":[0],"demand":[1]}`); code != http.StatusOK {
		t.Fatal("seed ingest")
	}
	code, hdr, _ := tracedReq(t, "GET", ts.URL+"/v1/streams/pn/curves",
		map[string]string{"X-Request-Id": "panic-1"}, nil)
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking curves = %d", code)
	}
	if hdr.Get("Traceparent") == "" {
		t.Error("panic response lost Traceparent")
	}
	tr := waitTrace(t, s, "panic-1")
	if tr.Keep()&trace.KeepPanic == 0 || tr.Keep()&trace.KeepError == 0 {
		t.Errorf("panic trace kept for %q, want panic|error", tr.Keep())
	}
}

// TestDebugTracesNoShedNoSelf pins the observer-endpoint exemptions: with
// the read limiter saturated, ordinary reads shed 429 but /debug/traces
// still answers; and trace scrapes never feed the self-characterization
// stream while normal requests do.
func TestDebugTracesNoShedNoSelf(t *testing.T) {
	s, err := New(Config{
		Stream:          streamCfg,
		TraceSample:     1,
		SelfCurves:      true,
		MaxInflightRead: 1,
		Faults:          []Fault{{Point: "handler:curves", Kind: FaultSleep, Dur: 300 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/ns/ingest", `{"t":[0],"demand":[1]}`); code != http.StatusOK {
		t.Fatal("seed ingest")
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		rawGet(t, ts.URL+"/v1/streams/ns/curves") // sleeps 300ms holding the read slot
	}()
	for s.limRead.Inflight() == 0 {
		time.Sleep(time.Millisecond)
	}

	// An ordinary read sheds...
	if code, _, _ := rawGet(t, ts.URL+"/v1/streams/ns/verdict"); code != http.StatusTooManyRequests {
		t.Fatalf("verdict behind saturated limiter = %d, want 429", code)
	}
	// ...but the trace endpoints are classNone and must not.
	if code, _, _ := rawGet(t, ts.URL+"/debug/traces"); code != http.StatusOK {
		t.Fatalf("/debug/traces behind saturated limiter = %d, want 200", code)
	}
	if code, _, _ := rawGet(t, ts.URL+"/debug/traces/absent"); code != http.StatusNotFound {
		t.Fatalf("/debug/traces/absent = %d, want plain 404, not shed", code)
	}
	<-done

	// Self-feed exemption: scraping traces leaves the self stream alone.
	before := s.self.Observed()
	for i := 0; i < 5; i++ {
		rawGet(t, ts.URL+"/debug/traces")
	}
	if got := s.self.Observed(); got != before {
		t.Errorf("self observed %d → %d across /debug/traces scrapes; trace reads fed the self curves", before, got)
	}
	if code, _, _ := rawGet(t, ts.URL+"/v1/streams/ns/verdict"); code != http.StatusOK {
		t.Fatal("verdict after limiter drained")
	}
	if got := s.self.Observed(); got != before+1 {
		t.Errorf("self observed = %d, want %d — ordinary reads must still feed", got, before+1)
	}
}

// TestTracingDisabled checks the off state: no Traceparent echo, and the
// debug endpoints answer 404 with a hint instead of panicking.
func TestTracingDisabled(t *testing.T) {
	ts := newTestServer(t, Config{Stream: streamCfg})
	code, hdr, _ := tracedReq(t, "POST", ts.URL+"/v1/streams/x/ingest",
		map[string]string{"traceparent": sampleTraceparent}, []byte(`{"t":[0],"demand":[1]}`))
	if code != http.StatusOK {
		t.Fatalf("ingest: %d", code)
	}
	if hdr.Get("Traceparent") != "" {
		t.Errorf("Traceparent echoed with tracing off: %q", hdr.Get("Traceparent"))
	}
	code, m := doJSON(t, "GET", ts.URL+"/debug/traces", "")
	if code != http.StatusNotFound || !strings.Contains(m["error"].(string), "trace-sample") {
		t.Fatalf("/debug/traces with tracing off: %d %v", code, m)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/debug/traces/x", ""); code != http.StatusNotFound {
		t.Fatalf("/debug/traces/x with tracing off: %d", code)
	}
}

// TestStatsMetricsParity cross-checks /v1/stats against /metrics: the WAL,
// panic, degraded and shed totals must agree exactly (scrapes do not move
// them), and the monotone trace counters must bracket the /metrics reading
// between two /v1/stats readings (every finished request moves them).
func TestStatsMetricsParity(t *testing.T) {
	cfg := Config{
		Shards:      4,
		Stream:      streamCfg,
		TraceSample: 1,
		Faults:      []Fault{{Point: "handler:minfreq", Kind: FaultPanic}},
	}
	cfg.WAL = openTestWAL(t, t.TempDir(), cfg, wal.PolicyBatch)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 5; i++ {
		body := fmt.Sprintf(`{"t":[%d,%d],"demand":[2,3]}`, i*100, i*100+50)
		if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/par/ingest", body); code != http.StatusOK {
			t.Fatalf("ingest %d failed", i)
		}
	}
	doJSON(t, "GET", ts.URL+"/v1/streams/par/minfreq?freq_hz=1", "") // panics → 500

	stats := func() statsResponse {
		_, _, raw := rawGet(t, ts.URL+"/v1/stats")
		var sr statsResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatalf("stats decode: %v", err)
		}
		return sr
	}
	s1 := stats()
	if s1.WAL == nil || s1.Trace == nil {
		t.Fatalf("stats missing wal/trace blocks: %+v", s1)
	}
	if s1.WAL.AppendsTotal == 0 || s1.WAL.FsyncsTotal == 0 {
		t.Fatalf("wal stats empty after 5 durable ingests: %+v", s1.WAL)
	}
	if s1.Panics != 1 {
		t.Fatalf("stats panics = %d, want 1", s1.Panics)
	}

	mv := func(series string) string { return metricValue(t, ts.URL, series) }
	for series, want := range map[string]uint64{
		"wcmd_wal_appends_total":        s1.WAL.AppendsTotal,
		"wcmd_wal_fsyncs_total":         s1.WAL.FsyncsTotal,
		"wcmd_wal_bytes_total":          s1.WAL.BytesTotal,
		"wcmd_panics_total":             s1.Panics,
		"wcmd_degraded_responses_total": s1.Degraded,
	} {
		if got := mv(series); got != fmt.Sprint(want) {
			t.Errorf("%s = %q, stats says %d", series, got, want)
		}
	}
	if got := mv(`wcmd_shed_total{class="ingest"}`); got != fmt.Sprint(s1.Limits["ingest"].Shed) {
		t.Errorf("ingest shed: metrics %q vs stats %d", got, s1.Limits["ingest"].Shed)
	}

	// Trace counters move with every finished request (the scrapes above
	// included), so bracket instead of exact-compare.
	keptMid := mv("wcmd_trace_kept_total")
	limitMid := mv("wcmd_trace_store_bytes_limit")
	s2 := stats()
	var mid uint64
	fmt.Sscan(keptMid, &mid)
	if s1.Trace.Kept > mid || mid > s2.Trace.Kept {
		t.Errorf("wcmd_trace_kept_total = %d outside stats bracket [%d, %d]",
			mid, s1.Trace.Kept, s2.Trace.Kept)
	}
	if limitMid != fmt.Sprint(s2.Trace.StoreBytesLimit) {
		t.Errorf("store limit: metrics %q vs stats %d", limitMid, s2.Trace.StoreBytesLimit)
	}
	if s2.Trace.StoreBytes <= 0 || s2.Trace.StoreBytes > s2.Trace.StoreBytesLimit {
		t.Errorf("store bytes %d outside (0, %d]", s2.Trace.StoreBytes, s2.Trace.StoreBytesLimit)
	}
	if mv("wcmd_trace_spans_count") == "" {
		t.Error("wcmd_trace_spans histogram missing from /metrics")
	}

	// /debug/self gains the per-stage demand breakdown.
	cfg2 := Config{Stream: streamCfg, SelfCurves: true, TraceSample: 1}
	ts2 := newTestServer(t, cfg2)
	doJSON(t, "POST", ts2.URL+"/v1/streams/q/ingest", `{"t":[0,100],"demand":[1,2]}`)
	doJSON(t, "GET", ts2.URL+"/v1/streams/q/curves", "")
	code, m := doJSON(t, "GET", ts2.URL+"/debug/self", "")
	if code != http.StatusOK {
		t.Fatalf("/debug/self: %d %v", code, m)
	}
	stages, ok := m["stages"].(map[string]any)
	if !ok {
		t.Fatalf("/debug/self has no stages block: %v", m)
	}
	for _, name := range []string{"decode", "update", "render"} {
		st, ok := stages[name].(map[string]any)
		if !ok {
			t.Fatalf("stage %q missing from /debug/self: %v", name, stages)
		}
		if st["count"].(float64) < 1 || st["mean_us"].(float64) < 0 {
			t.Errorf("stage %q = %v", name, st)
		}
	}
}

// TestTraceConcurrentScrapes races traced ingest against trace-store
// scrapes and metric reads — the store's lock-free ring and the slab's CAS
// discipline have to hold up under the race detector.
func TestTraceConcurrentScrapes(t *testing.T) {
	s, err := New(Config{
		Shards:          4,
		Stream:          streamCfg,
		TraceSample:     1,
		TraceStoreBytes: 128 << 10, // small: force eviction during the race
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const writers, batches = 4, 40
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			id := fmt.Sprintf("rc%d", g)
			base := int64(0)
			for i := 0; i < batches; i++ {
				n := 1 + rng.Intn(4)
				tsv := make([]int64, n)
				dsv := make([]int64, n)
				for j := range tsv {
					base += 1 + int64(rng.Intn(5))
					tsv[j] = base
					dsv[j] = int64(rng.Intn(6))
				}
				body := AppendBinaryBatch(nil, tsv, dsv)
				code, _, _ := tracedReq(t, "POST", ts.URL+"/v1/streams/"+id+"/ingest",
					map[string]string{
						"Content-Type": ContentTypeBinary,
						"X-Request-Id": fmt.Sprintf("rc-%d-%d", g, i),
						"traceparent":  sampleTraceparent,
					}, body)
				if code != http.StatusOK {
					t.Errorf("ingest %d/%d: %d", g, i, code)
					return
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for g := 0; g < 2; g++ {
		scrapers.Add(1)
		go func(g int) {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rawGet(t, ts.URL+"/debug/traces?endpoint=ingest&limit=10")
				rawGet(t, ts.URL+"/debug/traces/rc-0-0")
				if g == 0 {
					rawGet(t, ts.URL+"/metrics")
				} else {
					rawGet(t, ts.URL+"/v1/stats")
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()

	if s.tracer.Kept() == 0 {
		t.Fatal("no traces kept")
	}
	if s.tracer.StoreBytes() > s.tracer.StoreLimit() {
		t.Fatalf("store bytes %d exceed limit %d", s.tracer.StoreBytes(), s.tracer.StoreLimit())
	}
}

// TestTraceResolveSettleAttrs: a cache-miss read that settles the stream's
// curves reports the settle on its resolve span — samples caught up, and
// whether the backlog (a window or more) forced a rebuild — while a read
// with nothing to settle carries no settle attributes.
func TestTraceResolveSettleAttrs(t *testing.T) {
	s, err := New(Config{Stream: streamCfg, TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var now int64
	ingest := func(n int) {
		t.Helper()
		tsv, dv := make([]int64, n), make([]int64, n)
		for i := range tsv {
			now += 10
			tsv[i], dv[i] = now, int64(i%7+1)
		}
		code, _, raw := tracedReq(t, "POST", ts.URL+"/v1/streams/cam/ingest",
			map[string]string{"Content-Type": ContentTypeBinary}, AppendBinaryBatch(nil, tsv, dv))
		if code != http.StatusOK {
			t.Fatalf("ingest: %d %s", code, raw)
		}
	}
	resolveAttrs := func(reqID string) map[string]trace.Attr {
		t.Helper()
		code, _, raw := tracedReq(t, "GET", ts.URL+"/v1/streams/cam/curves",
			map[string]string{"X-Request-Id": reqID}, nil)
		if code != http.StatusOK {
			t.Fatalf("curves: %d %s", code, raw)
		}
		for _, sp := range waitTrace(t, s, reqID).Spans() {
			if sp.Name == "resolve" {
				attrs := map[string]trace.Attr{}
				for _, a := range sp.Attrs[:sp.NAttr] {
					attrs[a.Key] = a
				}
				return attrs
			}
		}
		t.Fatalf("%s: no resolve span", reqID)
		return nil
	}

	ingest(streamCfg.Window + 36)
	a := resolveAttrs("settle-rebuild")
	if a["outcome"].Str != "miss" || a["settled"].Int != int64(streamCfg.Window+36) || a["rebuilt"].Str != "true" {
		t.Fatalf("rebuilding read: resolve attrs %+v", a)
	}
	ingest(3)
	a = resolveAttrs("settle-push")
	if a["outcome"].Str != "miss" || a["settled"].Int != 3 || a["rebuilt"].Str != "false" {
		t.Fatalf("incremental read: resolve attrs %+v", a)
	}
	a = resolveAttrs("settle-none")
	if _, ok := a["settled"]; ok || a["outcome"].Str != "hit" {
		t.Fatalf("cache hit: resolve attrs %+v", a)
	}
}

// TestTraceDetailMatchesSlab pins that compacting a kept trace changes
// nothing /debug/traces/{id} renders: the span tree and dropped-span
// count equal those of the slab the request recorded into, read before
// Finish.
func TestTraceDetailMatchesSlab(t *testing.T) {
	s, err := New(Config{TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := s.tracer
	start := time.Now()
	a := tr.StartRequest("ingest", "slab-1", "", start)
	up := a.StartAt("update", a.Root(), start.Add(time.Microsecond))
	a.RecordAt("decode", a.Root(), start, start.Add(time.Microsecond)).Int("samples", 3)
	a.RecordAt("apply", up, start.Add(2*time.Microsecond), start.Add(5*time.Microsecond)).
		Int("version", 9).Str("stream", "cam")
	up.EndAt(start.Add(6 * time.Microsecond))
	slab := append([]trace.Span(nil), a.Spans()...)
	dropped := a.DroppedSpans()
	tr.Finish(a, http.StatusInternalServerError, 7*time.Microsecond, false)
	slab[0].DurNs = (7 * time.Microsecond).Nanoseconds() // Finish closes the root

	code, body := serve(s.Handler(), "GET", "/debug/traces/slab-1", "")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/traces/slab-1: %d %s", code, body)
	}
	var got struct {
		DroppedSpans int             `json:"dropped_spans"`
		Root         json.RawMessage `json:"root"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(spanTree(slab))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Root, want) || got.DroppedSpans != dropped {
		t.Errorf("stored trace renders\n%s (dropped %d)\nthe slab renders\n%s (dropped %d)",
			got.Root, got.DroppedSpans, want, dropped)
	}
}
