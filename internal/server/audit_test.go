package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"

	"wcm/internal/core"
	"wcm/internal/stream"
)

// corruptExtremum adds 999 to a read stream's stored γᵘ at its largest
// offset, behind its version: the silent fault an audit exists to catch
// (at a smaller offset it would also break γᵘ's monotonicity, which the
// read path rejects). No API writes the extrema, so it reaches them
// through reflect.
func corruptExtremum(t *testing.T, st *stream.Stream) {
	t.Helper()
	maxVal := reflect.ValueOf(st).Elem().FieldByName("pre").Elem().FieldByName("maxVal")
	if maxVal.Len() == 0 {
		t.Fatal("stream holds no extrema to corrupt")
	}
	(*(*[]int64)(unsafe.Pointer(maxVal.UnsafeAddr())))[maxVal.Len()-1] += 999
}

// ingestN ingests n samples into id, starting at timestamp from; the last
// demand dominates, so γᵘ at every offset is achieved by a window that
// holds it.
func ingestN(t *testing.T, url, id string, from int64, n int) {
	t.Helper()
	ts, ds := make([]int64, n), make([]int64, n)
	for i := range ts {
		ts[i], ds[i] = from+int64(i)*10, int64(i%7+1)
	}
	ds[n-1] = 500
	body := fmt.Sprintf(`{"t":%s,"demand":%s}`, jsonInts(ts), jsonInts(ds))
	if code, m := doJSON(t, "POST", url+"/v1/streams/"+id+"/ingest", body); code != http.StatusOK {
		t.Fatalf("ingest %s: %d %v", id, code, m)
	}
}

// upperCurve reads id's γᵘ through /curves.
func upperCurve(t *testing.T, url, id string) []int64 {
	t.Helper()
	code, m := doJSON(t, "GET", url+"/v1/streams/"+id+"/curves", "")
	if code != http.StatusOK {
		t.Fatalf("curves %s: %d %v", id, code, m)
	}
	var up []int64
	for _, v := range m["upper"].([]any) {
		up = append(up, int64(v.(float64)))
	}
	return up
}

// TestAuditorCatchesDrift corrupts one stored extremum of a read stream,
// lets the corruption reach an answer, then drives the auditor's tick by
// hand. Each tick audits one eligible stream, and an audited stream stays
// ineligible until it changes, so with five read streams the corruption
// is caught within five ticks: the mismatch is counted, the stream is
// rebuilt under a new version, and its answers match the kernel again.
// The never-read streams are not audited.
func TestAuditorCatchesDrift(t *testing.T) {
	s, err := New(Config{Stream: streamCfg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.stopAuditor() // the test drives the ticks
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const read, unread = 5, 3
	for i := 0; i < read+unread; i++ {
		id := fmt.Sprintf("s%d", i)
		ingestN(t, ts.URL, id, 0, 100)
		if i < read {
			upperCurve(t, ts.URL, id)
		}
	}
	victim := s.get("s2").st
	corruptExtremum(t, victim)
	// The next sample settles incrementally; the corrupted extremum's
	// window is still live, so it survives the settle and reaches the
	// answer.
	ingestN(t, ts.URL, "s2", 1000, 1)
	want, err := core.FromTrace(victim.DemandTrace(), streamCfg.MaxK)
	if err != nil {
		t.Fatal(err)
	}
	if up := upperCurve(t, ts.URL, "s2"); up[streamCfg.MaxK] == want.Upper.MustAt(streamCfg.MaxK) {
		t.Fatal("the corruption never reached an answer")
	}
	v := victim.Version()

	for tick := 1; tick <= read; tick++ {
		if !s.auditOnce() {
			t.Fatalf("tick %d audited nothing", tick)
		}
	}
	if s.auditOnce() {
		t.Fatal("a tick past the read streams found one to audit")
	}
	if st := victim.Stats(); st.Audits != 1 || st.Mismatches != 1 || victim.Version() != v+1 {
		t.Fatalf("victim after the audits: %+v, version %d (was %d)", st, victim.Version(), v)
	}
	up := upperCurve(t, ts.URL, "s2")
	for k := range up {
		if up[k] != want.Upper.MustAt(k) {
			t.Fatalf("γᵘ(%d) after the audit = %d, kernel says %d", k, up[k], want.Upper.MustAt(k))
		}
	}
	for i := read; i < read+unread; i++ {
		if st := s.get(fmt.Sprintf("s%d", i)).st.Stats(); st.Audits != 0 {
			t.Fatalf("never-read stream s%d audited %d times", i, st.Audits)
		}
	}
	if got := metricValue(t, ts.URL, "wcmd_audit_checked_total"); got != fmt.Sprint(read) {
		t.Errorf("wcmd_audit_checked_total = %q, want %d", got, read)
	}
	if got := metricValue(t, ts.URL, "wcmd_audit_mismatch_total"); got != "1" {
		t.Errorf("wcmd_audit_mismatch_total = %q, want 1", got)
	}
	if _, m := doJSON(t, "GET", ts.URL+"/v1/streams/s2/verdict", ""); m["drift"] != float64(1) {
		t.Errorf("verdict drift = %v, want 1", m["drift"])
	}
}

// TestAuditAgreeingKeepsCache: an audit that agrees moves neither the
// stream's version nor its cached answers — the next read is a cache hit
// with the same bytes — and the stream is not audited again until it
// changes.
func TestAuditAgreeingKeepsCache(t *testing.T) {
	s, err := New(Config{Stream: streamCfg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.stopAuditor()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ingestN(t, ts.URL, "a", 0, 100)
	_, _, before := rawGet(t, ts.URL+"/v1/streams/a/curves")
	e := s.get("a")
	v, renders := e.st.Version(), s.metrics.renders.Load()
	if !s.auditOnce() {
		t.Fatal("the read stream was not audited")
	}
	if st := e.st.Stats(); st.Audits != 1 || st.Mismatches != 0 || e.st.Version() != v {
		t.Fatalf("agreeing audit: %+v, version %d (was %d)", st, e.st.Version(), v)
	}
	_, _, after := rawGet(t, ts.URL+"/v1/streams/a/curves")
	if string(after) != string(before) || s.metrics.renders.Load() != renders {
		t.Fatalf("agreeing audit invalidated the cached answer (%d renders since)", s.metrics.renders.Load()-renders)
	}
	if s.auditOnce() {
		t.Fatal("an unchanged stream was audited again")
	}
	ingestN(t, ts.URL, "a", 1000, 1)
	if !s.auditOnce() {
		t.Fatal("a changed stream was not audited")
	}
}

// TestAuditorSkipsUnreadStreams: an auditor pass over streams no read has
// asked for audits none of them and allocates nothing — in particular
// not their extrema.
func TestAuditorSkipsUnreadStreams(t *testing.T) {
	s, err := New(Config{Stream: streamCfg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.stopAuditor()
	ts, ds := make([]int64, streamCfg.Window), make([]int64, streamCfg.Window)
	for i := range ts {
		ts[i], ds[i] = int64(i), int64(i%5)
	}
	for i := 0; i < 50; i++ {
		e, err := s.getOrCreate(fmt.Sprintf("u%d", i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.st.Ingest(ts, ds); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if s.auditOnce() {
			t.Fatal("an unread stream was audited")
		}
	}); allocs != 0 {
		t.Fatalf("an auditor pass over unread streams allocates %.1f times", allocs)
	}
}

// TestAuditorRunsUntilClose: New starts the auditor, which audits a read
// stream on its own, and Close stops it, for an in-memory server too.
func TestAuditorRunsUntilClose(t *testing.T) {
	s, err := New(Config{Stream: streamCfg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ingestN(t, ts.URL, "bg", 0, 100)
	upperCurve(t, ts.URL, "bg")
	st := s.get("bg").st
	for deadline := time.Now().Add(10 * time.Second); st.Stats().Audits == 0; time.Sleep(auditTick) {
		if time.Now().After(deadline) {
			t.Fatal("the background auditor never audited the read stream")
		}
	}
	s.Close()
	s.Close()
	select {
	case <-s.audit.done:
	default:
		t.Fatal("Close left the auditor running")
	}
}

// TestAuditorConcurrentWithTraffic runs auditor ticks back to back while
// writers ingest into and read their own streams: no audit may disagree,
// during the traffic or in a final audit of every stream.
func TestAuditorConcurrentWithTraffic(t *testing.T) {
	s, err := New(Config{Stream: streamCfg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.stopAuditor() // the ticks below run on this test's goroutine
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const writers = 4
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := int64(0); i < 40; i++ {
				body := fmt.Sprintf(`{"t":[%d,%d,%d],"demand":[%d,%d,%d]}`, 30*i, 30*i+10, 30*i+20, i%5, i%7+1, i%3)
				if code, _ := rawReq(t, "POST", ts.URL+"/v1/streams/"+id+"/ingest", "", []byte(body)); code != http.StatusOK {
					t.Errorf("%s ingest %d: %d", id, i, code)
					return
				}
				if code, _, _ := rawGet(t, ts.URL+"/v1/streams/"+id+"/curves"); code != http.StatusOK {
					t.Errorf("%s curves %d: %d", id, i, code)
					return
				}
			}
		}(fmt.Sprintf("w%d", w))
	}
	go func() { wg.Wait(); close(done) }()
	for ticks := 0; ; ticks++ {
		select {
		case <-done:
			if ticks == 0 {
				t.Fatal("no tick ran during the traffic")
			}
			for w := 0; w < writers; w++ {
				st := s.get(fmt.Sprintf("w%d", w)).st
				if _, err := st.Reextract(); err != nil {
					t.Fatal(err)
				}
				if stats := st.Stats(); stats.Mismatches != 0 {
					t.Fatalf("w%d: %d audit mismatches", w, stats.Mismatches)
				}
			}
			return
		default:
			s.auditOnce()
		}
	}
}

// BenchmarkAuditTick times one auditor tick that audits a full stream at
// the default window and curve domain (W = 1024, K = 256), re-dirtied by a
// one-sample ingest each time. Its ns/op over auditTick is the auditor's
// CPU share of one core when one stream is eligible every tick.
func BenchmarkAuditTick(b *testing.B) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	s.stopAuditor()
	e, err := s.getOrCreate("full", nil)
	if err != nil {
		b.Fatal(err)
	}
	const window = stream.DefaultWindow
	ts, ds := make([]int64, window), make([]int64, window)
	for i := range ts {
		ts[i], ds[i] = int64(i)*1000, 100+int64(i*i*7)%900
	}
	if _, err := e.st.Ingest(ts, ds); err != nil {
		b.Fatal(err)
	}
	if _, err := e.st.Snapshot(); err != nil {
		b.Fatal(err)
	}
	now := ts[window-1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 1000
		if _, err := e.st.Ingest([]int64{now}, []int64{int64(i % 900)}); err != nil {
			b.Fatal(err)
		}
		if !s.auditOnce() {
			b.Fatal("tick audited nothing")
		}
	}
	b.ReportMetric(float64(b.Elapsed())/float64(b.N)/float64(auditTick)*100, "%core")
}

// TestAuditCountersSurviveDelete: wcmd_audit_checked_total,
// wcmd_audit_mismatch_total and wcmd_contract_violations_total are
// counters, so deleting a stream must not take back the audits and
// violations already counted — on /metrics or in /v1/stats.
func TestAuditCountersSurviveDelete(t *testing.T) {
	s, err := New(Config{Stream: streamCfg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.stopAuditor() // the test drives the ticks
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, id := range []string{"a", "b"} {
		if code, m := doJSON(t, "POST", ts.URL+"/v1/streams/"+id+"/contract", `{"upper":[0,3,6],"lower":[0,0,0]}`); code != http.StatusOK {
			t.Fatalf("contract %s: %d %v", id, code, m)
		}
		ingestN(t, ts.URL, id, 0, 100)
		upperCurve(t, ts.URL, id)
	}
	for tick := 1; tick <= 2; tick++ {
		if !s.auditOnce() {
			t.Fatalf("tick %d audited nothing", tick)
		}
	}
	series := []string{"wcmd_audit_checked_total", "wcmd_audit_mismatch_total", "wcmd_contract_violations_total"}
	read := func() []string {
		out := make([]string, 0, len(series)+3)
		for _, name := range series {
			out = append(out, metricValue(t, ts.URL, name))
		}
		_, m := doJSON(t, "GET", ts.URL+"/v1/stats", "")
		streams := m["streams"].(map[string]any)
		for _, f := range []string{"audit_checked", "audit_mismatch", "violations"} {
			out = append(out, fmt.Sprint(streams[f]))
		}
		return out
	}
	before := read()
	if before[0] != "2" || before[2] == "0" {
		t.Fatalf("before the delete: %v, want 2 audits and some violations", before)
	}
	if code, _ := doJSON(t, "DELETE", ts.URL+"/v1/streams/a", ""); code != http.StatusNoContent {
		t.Fatal("delete")
	}
	if after := read(); !reflect.DeepEqual(after, before) {
		t.Fatalf("counters fell on DELETE: %v, were %v", after, before)
	}
}
