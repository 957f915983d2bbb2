package server

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wcm/internal/obs"
	"wcm/internal/obs/trace"
	"wcm/internal/stream"
)

// The read path: the four cached reads (/curves, /check, /minfreq,
// /verdict) are one readQuery each, parsed by one parser, answered by one
// resolver (cache lookup → singleflight → render → publish) and, when the
// stream is busy or the request was shed, by one fallback to the last
// rendered answer. POST /v1/query resolves its sub-queries through the
// same resolver (see batch.go).

// Cached read endpoints, in /v1/query response field order.
const (
	epCurves uint8 = iota
	epCheck
	epMinFreq
	epVerdict
	numEndpoints
)

// readQuery names one cached read: endpoint, wire format and parameters.
// It is comparable, so it keys the cached answers and, with a stream
// version, the singleflight table.
type readQuery struct {
	ep     uint8
	binary bool         // columnar answer; never for /verdict
	check  checkRequest // /check parameters, zero otherwise
	b      int          // /minfreq buffer, zero otherwise
}

var (
	errCheckParams = errors.New("need freq_hz > 0, latency_ns ≥ 0, buffer ≥ 0")
	errMinFreqB    = errors.New("b must be a non-negative integer")
)

// parseQuery builds ep's query from r; the handler and the shed fallback
// share it. An error is the client's (see writeDecodeError).
func parseQuery(r *http.Request, ep uint8) (readQuery, error) {
	q := readQuery{ep: ep, binary: ep != epVerdict && acceptsBinary(r)}
	switch ep {
	case epCheck:
		sc := queryScratchPool.Get().(*queryScratch)
		err := decodeCheckRequest(r, sc, &sc.req)
		q.check = sc.req
		queryScratchPool.Put(sc)
		if err != nil {
			return q, err
		}
		if q.check.FreqHz <= 0 || q.check.LatencyNs < 0 || q.check.Buffer < 0 {
			return q, errCheckParams
		}
	case epMinFreq:
		b, ok := minfreqB(r)
		if !ok {
			return q, errMinFreqB
		}
		q.b = b
	}
	return q, nil
}

// ---- cache -----------------------------------------------------------------

// maxCachedQueries caps each tenant's bucket in a paramCache. A stream
// version rarely sees more than a handful of distinct query parameters;
// the cap only guards against a client sweeping parameters faster than
// the stream ingests. On overflow the tenant's bucket starts a fresh epoch
// rather than evicting — simpler, and the whole map dies at the next
// version bump anyway. The cap is scoped per tenant bucket on purpose: one
// tenant spinning distinct parameters resets only its own bucket and can
// never evict another tenant's cached entries. Epoch resets are counted
// (wcmd_query_cache_epoch_resets_total) so an operator can see a
// parameter sweep happening.
const maxCachedQueries = 256

// cachedResp is one fully rendered HTTP answer: status plus the exact body
// bytes, stamped with the stream version it was computed at and the wire
// format of the body. Hits replay the bytes, so a cached response is
// bit-identical to the miss that populated it by construction.
type cachedResp struct {
	status  int
	body    []byte
	version int64
	binary  bool // body is the columnar query encoding, not JSON
}

// paramMap is an immutable-after-publish set of answers at one version.
// The common case — one answer per version, as every /curves and /verdict
// cell holds — is stored inline; a second tenant or parameter moves them
// into m, a two-level map tenant → query → answer. Readers obtain it with
// a single atomic load and may look up any key without synchronization;
// writers never mutate a published map — they clone the outer map (inner
// maps are shared by reference, being immutable too), extend the one
// tenant bucket they touch and compare-and-swap.
type paramMap struct {
	version int64
	tenant  string // the inline answer, when m is nil
	q       readQuery
	r       *cachedResp
	m       map[string]map[readQuery]*cachedResp
}

// with returns pm extended by tenant's answer r for q, and whether the
// tenant's bucket hit the cap and a fresh epoch replaced it.
func (pm *paramMap) with(tenant string, q readQuery, r *cachedResp) (next *paramMap, reset bool) {
	m := make(map[string]map[readQuery]*cachedResp, len(pm.m)+2)
	if pm.m == nil {
		m[pm.tenant] = map[readQuery]*cachedResp{pm.q: pm.r}
	}
	for t, bucket := range pm.m {
		m[t] = bucket
	}
	bucket := m[tenant]
	nb := make(map[readQuery]*cachedResp, len(bucket)+1)
	if reset = len(bucket) >= maxCachedQueries; !reset {
		for k, v := range bucket {
			nb[k] = v
		}
	}
	nb[q] = r
	m[tenant] = nb
	return &paramMap{version: pm.version, m: m}, reset
}

// paramCache holds the answers of one (endpoint, format) cell. The zero
// value is ready to use.
type paramCache struct {
	p atomic.Pointer[paramMap]
}

// get returns the answer published for q at whatever version the cell
// holds (callers compare its version): tenant's own bucket first, then any
// tenant's — cached bodies are functions of the stream alone, so
// cross-tenant reuse is sound.
func (c *paramCache) get(tenant string, q readQuery) *cachedResp {
	pm := c.p.Load()
	switch {
	case pm == nil:
		return nil
	case pm.m == nil:
		if pm.q == q {
			return pm.r
		}
		return nil
	}
	if r := pm.m[tenant][q]; r != nil {
		return r
	}
	for _, bucket := range pm.m {
		if r := bucket[q]; r != nil {
			return r
		}
	}
	return nil
}

// put records tenant's answer r for q at r.version. reset reports that
// the tenant's bucket hit the cap and a fresh epoch replaced it; other
// tenants' buckets are never touched by a reset. An answer older than the
// published map is dropped.
func (c *paramCache) put(tenant string, q readQuery, r *cachedResp) (reset bool) {
	for {
		old := c.p.Load()
		if old != nil && old.version > r.version {
			return false
		}
		next := &paramMap{version: r.version, tenant: tenant, q: q, r: r}
		if old != nil && old.version == r.version && (old.m != nil || old.tenant != tenant || old.q != q) {
			next, reset = old.with(tenant, q, r)
		}
		if c.p.CompareAndSwap(old, next) {
			return reset
		}
	}
}

// queryCache is the per-stream version-keyed response cache: one
// paramCache cell per (endpoint, format), so one endpoint's render never
// drops another endpoint's last answer. The zero value is ready to use.
//
// Invalidation needs no explicit step: stream.Stream bumps its version
// (atomically, under the stream lock, before the mutating call returns) on
// every ingest batch, contract change and forced re-extraction, and every
// lookup compares the cached answer's version against Stream.Version().
// An answer rendered at an older version simply stops matching; the next
// miss renders a successor into its cell. A hit is one atomic load plus a
// key compare (a map lookup once a version holds several answers) — no
// locks, no stream access.
type queryCache struct {
	cells   [numEndpoints][2]paramCache // [endpoint][binary]
	flights flightGroup
}

func (c *queryCache) cell(q readQuery) *paramCache {
	if q.binary {
		return &c.cells[q.ep][1]
	}
	return &c.cells[q.ep][0]
}

// last returns the newest answer cached for q, at any version: the hit
// check of resolve and the busy and shed fallbacks' stale answer.
func (c *queryCache) last(q readQuery, tenant string) *cachedResp {
	return c.cell(q).get(tenant, q)
}

// ---- singleflight ----------------------------------------------------------

// flightKey names one render: a query at one stream generation. The
// version is part of the key on purpose — a reader that observed version 6
// must not piggyback on a render started for version 5.
type flightKey struct {
	q       readQuery
	version int64
}

// flightCall is one in-progress render. done closes when resp/err are set;
// followers block on it (bounded by their request context).
type flightCall struct {
	done chan struct{}
	resp *cachedResp
	err  error
}

// flightGroup deduplicates concurrent renders of the same flightKey on one
// stream: the first goroutine in becomes the leader and renders, later
// arrivals wait for its result. The map only ever holds in-progress calls,
// so the mutex is uncontended except during an actual miss storm — hits
// never touch it.
type flightGroup struct {
	mu sync.Mutex
	m  map[flightKey]*flightCall
}

// errRenderAborted is what followers see when the leader panicked before
// producing a result (the panic itself propagates on the leader's request).
var errRenderAborted = errors.New("concurrent render aborted")

// do runs render under singleflight for key. Exactly one caller (the
// leader) executes render; concurrent callers with the same key wait for
// the leader's result until ctx expires, then fail with stream.ErrBusy so
// the caller's degraded-read fallback takes over. led reports whether this
// call was the leader (for metrics).
func (g *flightGroup) do(ctx context.Context, key flightKey, render func() (*cachedResp, error)) (resp *cachedResp, led bool, err error) {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			if c.resp == nil && c.err == nil {
				return nil, false, errRenderAborted
			}
			return c.resp, false, c.err
		case <-ctx.Done():
			return nil, false, stream.ErrBusy
		}
	}
	if g.m == nil {
		g.m = make(map[flightKey]*flightCall)
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()
	defer func() {
		// Publish-then-release even on panic: followers must never be
		// stranded on done, and the flight must leave the map so the next
		// request can retry rather than join a dead call.
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.resp, c.err = render()
	return c.resp, true, c.err
}

// ---- resolve and render ------------------------------------------------------

// resolve answers q from e's cache: a cached answer at the stream's
// current version is a hit; otherwise exactly one goroutine per (query,
// version) renders under singleflight while concurrent readers of the
// same key wait for its result — bounded by their request deadline, past
// which they fall out with stream.ErrBusy into the degraded-read path.
// With DisableQueryCache every call renders from scratch through
// encoding/json (the honest uncached baseline for benchmarks).
func (s *Server) resolve(ctx context.Context, e *entry, q readQuery, tenant string) (resp *cachedResp, hit bool, err error) {
	if s.cfg.DisableQueryCache {
		resp, err := render(ctx, e, q, true)
		return resp, false, err
	}
	v := e.st.Version()
	if resp := e.cache.last(q, tenant); resp != nil && resp.version == v {
		return resp, true, nil
	}
	resp, led, err := e.cache.flights.do(ctx, flightKey{q, v}, func() (*cachedResp, error) {
		if resp := e.cache.last(q, tenant); resp != nil && resp.version == v {
			return resp, nil // a previous leader published while we queued
		}
		resp, err := render(ctx, e, q, false)
		if err != nil {
			return nil, err
		}
		s.metrics.renders.Add(1)
		if e.cache.cell(q).put(tenant, q, resp) {
			s.metrics.epochResets.Add(1)
		}
		return resp, nil
	})
	s.observeFlight(ctx, led)
	return resp, false, err
}

// render computes q's answer from e's current state. reference renders
// JSON answers through encoding/json instead of the hand renderers of
// render.go — the DisableQueryCache oracle that
// TestUncachedServerBitIdentical holds them against. Computation errors
// keep their 409 JSON shape whatever format was negotiated.
func render(ctx context.Context, e *entry, q readQuery, reference bool) (*cachedResp, error) {
	if q.ep == epVerdict {
		stats, err := statsFor(ctx, e)
		if err != nil {
			return nil, err
		}
		resp := renderJSON(http.StatusOK, verdictResponse{
			Version:        stats.Version,
			Admitted:       stats.Violations == 0,
			ContractSet:    stats.ContractSet,
			Total:          stats.Total,
			Violations:     stats.Violations,
			FirstViolation: violationFrom(stats.FirstViolation),
			Drift:          stats.Mismatches,
		})
		resp.version = stats.Version
		return resp, nil
	}
	snap, err := freshSnapshot(ctx, e)
	if err != nil {
		return nil, err
	}
	viaJSON := reference && !q.binary
	var resp *cachedResp
	switch q.ep {
	case epCurves:
		if !viaJSON {
			return renderCurvesResp(snap, q.binary), nil
		}
		resp = renderJSON(http.StatusOK, curvesResponse{
			Version:  snap.Version,
			Total:    snap.Total,
			InWindow: snap.InWindow,
			Upper:    snap.Workload.Upper.Values(),
			Lower:    snap.Workload.Lower.Values(),
			DMin:     snap.Spans,
			DMax:     snap.MaxSpans,
		})
	case epCheck:
		ok, err := snap.CheckService(q.check.FreqHz, q.check.LatencyNs, q.check.Buffer)
		switch {
		case err != nil:
			resp = renderJSON(http.StatusConflict, errorResponse{err.Error()})
		case viaJSON:
			resp = renderJSON(http.StatusOK, checkResponse{Version: snap.Version, OK: ok})
		default:
			return renderCheckResp(snap.Version, ok, q.binary), nil
		}
	case epMinFreq:
		cmp, err := snap.MinFrequency(q.b)
		if err != nil {
			resp = renderJSON(http.StatusConflict, errorResponse{err.Error()})
			break
		}
		m := minFreqResponse{
			Version:       snap.Version,
			GammaHz:       cmp.Gamma.Hz,
			GammaAtK:      cmp.Gamma.AtK,
			GammaAtSpanNs: cmp.Gamma.AtSpanNs,
			WCETHz:        cmp.WCET.Hz,
			WCETAtK:       cmp.WCET.AtK,
			Saving:        cmp.Saving,
			Buffer:        q.b,
		}
		if !viaJSON {
			return renderMinFreqResp(m, q.binary), nil
		}
		resp = renderJSON(http.StatusOK, m)
	}
	resp.version = snap.Version
	return resp, nil
}

// renderJSON marshals v the same way writeJSON does (json.Encoder semantics,
// trailing newline) into a cached response. It renders error answers,
// /verdict and the reference path; the hot OK paths use the hand renderers
// in render.go, which TestUncachedServerBitIdentical holds byte-identical
// to this one.
func renderJSON(status int, v any) *cachedResp {
	body, err := json.Marshal(v)
	if err != nil { // unreachable for the response types used here
		return &cachedResp{status: http.StatusInternalServerError,
			body: []byte(`{"error":"encoding failure"}` + "\n")}
	}
	return &cachedResp{status: status, body: append(body, '\n')}
}

// freshSnapshot takes a snapshot honoring the request deadline: when ctx
// carries one the stream lock is only waited for until then — past it the
// call fails with stream.ErrBusy and the caller degrades (see busyFallback).
// On a traced request it notes the settle the snapshot paid for, which
// observeResolve attaches to the resolve span.
func freshSnapshot(ctx context.Context, e *entry) (snap stream.Snapshot, err error) {
	if dl, ok := ctx.Deadline(); ok {
		snap, err = e.st.SnapshotWithin(time.Until(dl))
	} else {
		snap, err = e.st.Snapshot()
	}
	if snap.Settled > 0 {
		if rq := obs.FromContext(ctx); rq != nil && rq.Trace != nil {
			rq.Settled += snap.Settled
			rq.SettleRebuilt = rq.SettleRebuilt || snap.Rebuilt
		}
	}
	return snap, err
}

// statsFor mirrors freshSnapshot for the /verdict stats read.
func statsFor(ctx context.Context, e *entry) (stream.Stats, error) {
	if dl, ok := ctx.Deadline(); ok {
		return e.st.StatsWithin(time.Until(dl))
	}
	return e.st.Stats(), nil
}

// ---- handler and fallbacks -------------------------------------------------

// readRoute is the instrumented route of one cached read endpoint.
func (s *Server) readRoute(name string, ep uint8) http.HandlerFunc {
	return s.instrument(name, classRead,
		func(w http.ResponseWriter, r *http.Request) { s.serveRead(w, r, ep) },
		func(w http.ResponseWriter, r *http.Request, hint int) { s.shedRead(w, r, ep, hint) })
}

// serveRead is the handler of the cached reads: resolve the query and
// write the answer, or the busy fallback when the stream could not answer
// within the request deadline.
func (s *Server) serveRead(w http.ResponseWriter, r *http.Request, ep uint8) {
	q, err := parseQuery(r, ep)
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	e := s.get(r.PathValue("id"))
	if e == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{"unknown stream"})
		return
	}
	if q.binary {
		s.metrics.binaryQueries.Add(1)
	}
	ctx, start, tenant := r.Context(), time.Now(), s.tenantFor(r).name
	resp, hit, err := s.resolve(ctx, e, q, tenant)
	if err != nil {
		s.busyFallback(w, r, e, err, e.cache.last(q, tenant))
	} else {
		writeCached(w, resp)
	}
	s.observeResolve(ctx, hit, start)
}

// shedRead is the shed fallback of the cached reads; the stream lock is
// never touched. A fresh cached answer (stream version unchanged) is
// served normally — a shed read that costs one atomic load is not worth
// turning away — a stale one is served marked degraded, and with nothing
// cached the request is shed with 429.
func (s *Server) shedRead(w http.ResponseWriter, r *http.Request, ep uint8, hint int) {
	q, err := parseQuery(r, ep)
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	if e := s.get(r.PathValue("id")); e != nil {
		if resp := e.cache.last(q, s.tenantFor(r).name); resp != nil {
			if resp.version == e.st.Version() {
				writeCached(w, resp)
				return
			}
			if s.serveStale(w, r, e, resp) {
				return
			}
		}
	}
	writeShed(w, "read", hint)
}

func writeCached(w http.ResponseWriter, resp *cachedResp) {
	ct := "application/json"
	if resp.binary {
		ct = ContentTypeQueryBinary
	}
	setHeaderValue(w.Header(), "Content-Type", ct)
	w.WriteHeader(resp.status)
	w.Write(resp.body) //nolint:errcheck // client gone; nothing to do
}

// busyFallback resolves a snapshot/stats failure on a read path: ErrBusy
// (lock contended past the request deadline, or a singleflight wait that
// outlived the deadline) degrades to the last cached answer when one
// exists — 503 otherwise — and every other error keeps its 409 shape from
// before the resilience layer.
func (s *Server) busyFallback(w http.ResponseWriter, r *http.Request, e *entry, err error, last *cachedResp) {
	if !errors.Is(err, stream.ErrBusy) {
		writeJSON(w, http.StatusConflict, errorResponse{err.Error()})
		return
	}
	if s.serveStale(w, r, e, last) {
		return
	}
	// Deadline contention, not queue pressure: the floor hint is honest.
	writeBusy(w, "stream busy past request deadline; no cached answer", retryAfterFloorSeconds)
}

// degradedSuffix closes a degraded response body: cached bodies are JSON
// objects rendered by renderJSON and always end "}\n", so splicing the
// marker before the brace keeps every other byte identical to the last
// good answer.
var degradedSuffix = []byte(",\"degraded\":true}\n")

// degradedBody returns resp's body with "degraded":true spliced into the
// object, or nil when resp is unusable as a degraded answer (error status,
// or not shaped like a rendered object).
func degradedBody(resp *cachedResp) []byte {
	if resp == nil || resp.status != http.StatusOK {
		return nil
	}
	b := resp.body
	if len(b) < 2 || b[len(b)-2] != '}' || b[len(b)-1] != '\n' {
		return nil
	}
	out := make([]byte, 0, len(b)-2+len(degradedSuffix))
	out = append(out, b[:len(b)-2]...)
	return append(out, degradedSuffix...)
}

// serveStale serves resp as an explicitly degraded answer when usable (a
// rendered 200), with the X-Wcm-Degraded header for clients that route on
// headers, and logs how stale the data is. JSON bodies get
// "degraded":true spliced in; binary bodies are served unmodified — the
// header is the only staleness marker the columnar encoding carries.
func (s *Server) serveStale(w http.ResponseWriter, r *http.Request, e *entry, resp *cachedResp) bool {
	if resp == nil || resp.status != http.StatusOK {
		return false
	}
	body, ct := resp.body, ContentTypeQueryBinary
	if !resp.binary {
		if body, ct = degradedBody(resp), "application/json"; body == nil {
			return false
		}
	}
	s.metrics.degraded.Add(1)
	obs.TraceFrom(r.Context()).Mark(trace.KeepDegraded)
	w.Header().Set("X-Wcm-Degraded", "true")
	w.Header().Set("Content-Type", ct)
	w.WriteHeader(http.StatusOK)
	w.Write(body) //nolint:errcheck // client gone; nothing to do
	var age time.Duration
	if lm := e.st.LastMutation(); !lm.IsZero() {
		age = time.Since(lm)
	}
	obs.LoggerFrom(r.Context()).LogAttrs(r.Context(), slog.LevelWarn, "degraded response",
		slog.String("path", r.URL.Path), slog.Float64("staleness_seconds", age.Seconds()))
	return true
}

// ---- observation -------------------------------------------------------------

// observeFlight counts singleflight outcomes: a led flight performed (at
// most) the one render for its (key, generation); shared flights
// piggybacked on a leader.
func (s *Server) observeFlight(ctx context.Context, led bool) {
	if led {
		s.metrics.sfLeader.Add(1)
	} else {
		s.metrics.sfShared.Add(1)
	}
	if tr := obs.TraceFrom(ctx); tr != nil {
		// Marker span: the role decides whether this request paid for the
		// render or piggybacked; the duration lives in the resolve span.
		role := "follower"
		if led {
			role = "leader"
		}
		now := time.Now()
		tr.RecordAt("singleflight", tr.Root(), now, now).Str("role", role)
	}
}

// observeResolve closes a cached query's cache_hit or cache_miss stage,
// opened at start, and bumps the matching counter. A miss's resolve span
// also carries the settle its snapshot paid for (see freshSnapshot).
func (s *Server) observeResolve(ctx context.Context, hit bool, start time.Time) {
	id := stageCacheMiss
	if hit {
		id = stageCacheHit
		s.metrics.cacheHits.Add(1)
	} else {
		s.metrics.cacheMisses.Add(1)
	}
	rq := obs.FromContext(ctx)
	var tr *trace.Active
	if rq != nil {
		tr = rq.Trace
	}
	sp := s.metrics.closeStage(id, tr, tr.Root(), start, time.Now())
	if !hit && tr != nil && rq.Settled > 0 {
		sp.Int("settled", int64(rq.Settled)).Str("rebuilt", strconv.FormatBool(rq.SettleRebuilt))
	}
}
