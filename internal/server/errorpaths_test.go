package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"wcm/internal/stream"
)

// postRaw sends body with contentType and returns status + exact body.
func postRaw(t *testing.T, url, contentType string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
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

// wantJSONError asserts the canonical error shape: a JSON object whose
// only key is a non-empty "error" string.
func wantJSONError(t *testing.T, label string, raw []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("%s: non-JSON error body %q", label, raw)
	}
	msg, ok := m["error"].(string)
	if !ok || msg == "" || len(m) != 1 {
		t.Fatalf("%s: error shape %q", label, raw)
	}
	return msg
}

// TestContractErrorPaths pins the /contract failure surface: decode
// failures, invalid curves, invalid windows — each a 400 with the JSON
// error shape, none leaving a ghost stream, all counted as errors.
func TestContractErrorPaths(t *testing.T) {
	s, err := New(Config{Stream: stream.Config{Window: 16, MaxK: 4}})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServerFrom(t, s)

	cases := []struct {
		label, body string
	}{
		{"malformed JSON", `{nope`},
		{"unknown field", `{"upper":[0,1],"lower":[0,0],"bogus":1}`},
		{"trailing data", `{"upper":[0,1],"lower":[0,0]} x`},
		{"non-monotone upper", `{"upper":[5,1],"lower":[0,0]}`},
		{"non-monotone lower", `{"upper":[0,9],"lower":[4,1]}`},
		{"negative window", `{"upper":[0,1],"lower":[0,0],"window":-3}`},
		{"window above the stream's", `{"upper":[0,1],"lower":[0,0],"window":17}`},
	}
	for _, tc := range cases {
		code, raw := postRaw(t, ts.URL+"/v1/streams/c/contract", "application/json", []byte(tc.body))
		if code != http.StatusBadRequest {
			t.Fatalf("%s: %d %s", tc.label, code, raw)
		}
		wantJSONError(t, tc.label, raw)
	}
	// None of the rejections registered a stream.
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/streams/c/verdict", ""); code != http.StatusNotFound {
		t.Fatalf("ghost stream after rejected contracts: %d", code)
	}
	if got := metricValue(t, ts.URL, `wcmd_request_errors_total{endpoint="contract"}`); got != strconv.Itoa(len(cases)) {
		t.Fatalf(`request_errors_total{contract} = %q, want %d`, got, len(cases))
	}
}

// TestContractWindow pins the window a contract checks and the answer
// that names it, on a Window 16 stream: an omitted window is the curves'
// common domain, at most the stream's window; an explicit one is capped to
// that domain; one above the stream's window is refused. Each installed
// row then ingests window+1 demands of 5. Where γᵘ(window+1) is below
// 5·(window+1), only a window longer than the answer violates, so a
// contract checking more than it says fails the row.
func TestContractWindow(t *testing.T) {
	s, err := New(Config{Stream: stream.Config{Window: 16, MaxK: 4}})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServerFrom(t, s)

	// γᵘ(k) = 5k up to k = 16 and 5k−1 past it, on k = 0..40.
	up, lo := make([]int64, 41), make([]int64, 41)
	for k := range up {
		up[k] = 5 * int64(k)
		if k > 16 {
			up[k]--
		}
	}
	long, _ := json.Marshal(map[string]any{"upper": up, "lower": lo})
	cases := []struct {
		label, body string
		code        int
		window      int
		caught      bool // the window+1 demands violate
	}{
		{"omitted, lower shortest", `{"upper":[0,5,10,15,20],"lower":[0,0,0]}`, http.StatusOK, 2, false},
		{"explicit, capped to the curves", `{"upper":[0,5,10,15,20],"lower":[0,0,0],"window":3}`, http.StatusOK, 2, false},
		{"explicit, inside the curves", `{"upper":[0,5,10,14,20],"lower":[0,0,0,0,0],"window":2}`, http.StatusOK, 2, false},
		{"explicit, checks its window", `{"upper":[0,5,10,14,20],"lower":[0,0,0,0,0],"window":3}`, http.StatusOK, 3, true},
		{"above the stream's window", `{"upper":[0,5,10,15,20],"lower":[0,0,0],"window":100}`, http.StatusBadRequest, 0, false},
		{"omitted, curves past the stream's window", string(long), http.StatusOK, 16, false},
	}
	for i, tc := range cases {
		url := fmt.Sprintf("%s/v1/streams/w%d", ts.URL, i)
		code, raw := postRaw(t, url+"/contract", "application/json", []byte(tc.body))
		if code != tc.code {
			t.Fatalf("%s: %d %s", tc.label, code, raw)
		}
		if code != http.StatusOK {
			continue
		}
		if want := fmt.Sprintf(`{"window":%d}`, tc.window); strings.TrimSpace(string(raw)) != want {
			t.Fatalf("%s: answered %s, want %s", tc.label, raw, want)
		}
		n := tc.window + 1
		demands, stamps := make([]int64, n), make([]int64, n)
		for j := range demands {
			demands[j], stamps[j] = 5, int64(j)
		}
		in, _ := json.Marshal(map[string]any{"t": stamps, "demand": demands})
		if code, m := doJSON(t, "POST", url+"/ingest", string(in)); code != http.StatusOK || (m["violation"] != nil) != tc.caught {
			t.Fatalf("%s: ingest %d %v", tc.label, code, m)
		}
	}
}

// TestContractAboveWindowChangesNothing sends a contract of window 40,000
// (about half a megabyte) to a stream of window 16 holding a contract: it
// gets a 400, and the stream's verdict, version included, is unchanged.
// Without the window the same curves install at the stream's window.
func TestContractAboveWindowChangesNothing(t *testing.T) {
	s, err := New(Config{Stream: stream.Config{Window: 16, MaxK: 4}})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServerFrom(t, s)
	url := ts.URL + "/v1/streams/big"
	if code, _ := doJSON(t, "POST", url+"/ingest", `{"t":[1,2],"demand":[3,4]}`); code != http.StatusOK {
		t.Fatal("ingest failed")
	}
	if code, _ := doJSON(t, "POST", url+"/contract", `{"upper":[0,100],"lower":[0,0]}`); code != http.StatusOK {
		t.Fatal("contract failed")
	}
	_, before := getRaw(t, url+"/verdict")

	const window = 40_000
	up, lo := make([]int64, window+1), make([]int64, window+1)
	for k := range up {
		up[k], lo[k] = 1000*int64(k), int64(k)
	}
	curves, _ := json.Marshal(map[string]any{"upper": up, "lower": lo})
	big := append(curves[:len(curves)-1:len(curves)-1], fmt.Sprintf(`,"window":%d}`, window)...)
	t.Logf("body %d bytes", len(big))
	if code, raw := postRaw(t, url+"/contract", "application/json", big); code != http.StatusBadRequest {
		t.Fatalf("window %d: %d %s", window, code, raw)
	}
	if _, after := getRaw(t, url+"/verdict"); !bytes.Equal(after, before) {
		t.Fatalf("verdict moved: %s, was %s", after, before)
	}
	if code, raw := postRaw(t, url+"/contract", "application/json", curves); code != http.StatusOK ||
		strings.TrimSpace(string(raw)) != `{"window":16}` {
		t.Fatalf("omitted window: %d %s", code, raw)
	}
}

// TestDeleteErrorPaths pins /delete semantics: 404 JSON error on unknown
// or already-deleted streams, 204 on success, and a clean slate afterwards
// (recreate works, analyses on the new stream see none of the old state).
func TestDeleteErrorPaths(t *testing.T) {
	s, err := New(Config{Stream: stream.Config{Window: 16, MaxK: 4}})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServerFrom(t, s)

	del := func() (int, []byte) {
		t.Helper()
		req, err := http.NewRequest("DELETE", ts.URL+"/v1/streams/dd", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}

	code, raw := del()
	if code != http.StatusNotFound {
		t.Fatalf("delete unknown: %d", code)
	}
	wantJSONError(t, "delete unknown", raw)

	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/dd/ingest", `{"t":[0,100],"demand":[9,9]}`); code != http.StatusOK {
		t.Fatal("seed ingest")
	}
	if code, raw := del(); code != http.StatusNoContent || len(raw) != 0 {
		t.Fatalf("delete live: %d %q", code, raw)
	}
	// Second delete: the stream is gone, so 404 again — DELETE is not
	// idempotent-silent here; the client learns the name is free.
	code, raw = del()
	if code != http.StatusNotFound {
		t.Fatalf("delete deleted: %d", code)
	}
	wantJSONError(t, "delete deleted", raw)

	// The name is reusable and the new stream starts from nothing.
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/dd/ingest", `{"t":[0],"demand":[1]}`); code != http.StatusOK {
		t.Fatal("re-ingest after delete")
	}
	code, m := doJSON(t, "GET", ts.URL+"/v1/streams/dd/verdict", "")
	if code != http.StatusOK || m["total"].(float64) != 1 {
		t.Fatalf("recreated stream total = %v", m["total"])
	}
}

// TestBinaryIngestDecodeErrorPaths drives the binary decode failure modes
// end to end — truncated column, count/length mismatch, oversize body —
// asserting status codes, the JSON error shape, and that the error and
// batch counters move correctly (rejected bodies are not counted as binary
// batches).
func TestBinaryIngestDecodeErrorPaths(t *testing.T) {
	s, err := New(Config{MaxBodyBytes: 256, Stream: stream.Config{Window: 64, MaxK: 8}})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServerFrom(t, s)
	url := ts.URL + "/v1/streams/be/ingest"

	valid := AppendBinaryBatch(nil, []int64{1, 2, 3}, []int64{4, 5, 6})

	// Truncated mid-column: the demand column loses its last 8 bytes.
	code, raw := postRaw(t, url, ContentTypeBinary, valid[:len(valid)-8])
	if code != http.StatusBadRequest {
		t.Fatalf("truncated column: %d %s", code, raw)
	}
	wantJSONError(t, "truncated column", raw)

	// Count prefix promises more samples than the body carries.
	mismatched := append([]byte{}, valid...)
	binary.LittleEndian.PutUint32(mismatched[:4], 4)
	code, raw = postRaw(t, url, ContentTypeBinary, mismatched)
	if code != http.StatusBadRequest {
		t.Fatalf("count mismatch: %d %s", code, raw)
	}
	msg := wantJSONError(t, "count mismatch", raw)
	if want := fmt.Sprintf("count %d", 4); !bytes.Contains([]byte(msg), []byte(want)) {
		t.Fatalf("count mismatch message %q", msg)
	}

	// Body over MaxBodyBytes: 413, not 400 — the client should shrink its
	// batches, not re-encode them.
	nBig := 20 // 4+16·20 = 324 > 256
	big := AppendBinaryBatch(nil, make([]int64, nBig), make([]int64, nBig))
	for i := range nBig {
		binary.LittleEndian.PutUint64(big[4+8*i:], uint64(i))
	}
	code, raw = postRaw(t, url, ContentTypeBinary, big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: %d %s", code, raw)
	}
	wantJSONError(t, "oversize body", raw)

	// No ghost stream, three counted errors, zero accepted binary batches.
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/streams/be/verdict", ""); code != http.StatusNotFound {
		t.Fatalf("ghost stream after rejected binary ingests: %d", code)
	}
	if got := metricValue(t, ts.URL, `wcmd_request_errors_total{endpoint="ingest"}`); got != "3" {
		t.Fatalf(`request_errors_total{ingest} = %q, want 3`, got)
	}
	if got := metricValue(t, ts.URL, "wcmd_ingest_binary_batches_total"); got != "0" {
		t.Fatalf("binary_batches_total = %q, want 0", got)
	}

	// A valid batch still lands after the rejections.
	code, raw = postRaw(t, url, ContentTypeBinary, valid)
	if code != http.StatusOK {
		t.Fatalf("valid batch after rejections: %d %s", code, raw)
	}
	if got := metricValue(t, ts.URL, "wcmd_ingest_binary_batches_total"); got != "1" {
		t.Fatalf("binary_batches_total = %q, want 1", got)
	}
}

// newTestServerFrom wraps an already-built *Server in an httptest.Server
// (newTestServer hides the *Server; these tests also poke its internals).
func newTestServerFrom(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}
