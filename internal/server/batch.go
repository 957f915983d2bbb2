package server

import (
	"context"
	"errors"
	"net/http"
	"sort"

	"wcm/internal/stream"
)

// POST /v1/query — multi-stream batch reads. Dashboards and admission
// controllers fan out over hundreds of streams; issuing one HTTP request
// per stream pays the whole per-request envelope (headers, routing,
// instrumentation) per data point. The batch endpoint answers any mix of
// curves/check/minfreq/verdict for many streams in one request: entries are
// resolved in one shard-ordered pass through the same per-stream cache and
// singleflight as the individual endpoints, and the response is assembled
// by splicing the cached pre-rendered JSON bodies into one shared buffer —
// no re-marshaling, byte-identical sub-objects.
//
// Request:
//
//	{"ids":["a","b"], "curves":true, "verdict":true,
//	 "check":{"freq_hz":1e8,"latency_ns":10,"buffer":2}, "minfreq_b":2}
//
// Response: 200 with one object per id, in request order, carrying only the
// requested fields:
//
//	{"streams":[{"id":"a","curves":{...},"check":{...},
//	             "minfreq":{...},"verdict":{...}}, ...]}
//
// Failures stay per-stream, never whole-request: an unknown id yields
// {"id":...,"error":"unknown stream"}, a sub-query that failed to compute
// carries that endpoint's usual {"error":...} object in its field, and a
// stream whose lock was contended past the deadline falls back to its last
// cached answer with "degraded":true spliced in, exactly like the
// single-stream degraded-read path (the X-Wcm-Degraded header is not set —
// it cannot name which streams are stale).

// maxBatchStreams caps ids per /v1/query request: past this the request
// envelope amortization has long flattened out and the only thing growing
// is worst-case response latency.
const maxBatchStreams = 1024

type batchQueryRequest struct {
	IDs      []string      `json:"ids"`
	Curves   bool          `json:"curves"`
	Verdict  bool          `json:"verdict"`
	Check    *checkRequest `json:"check"`
	MinFreqB *int          `json:"minfreq_b"`
}

// batchAnswer holds one stream's resolved sub-objects, indexed by endpoint
// (spliced JSON object bytes, no trailing newline). missing marks an unknown
// id.
type batchAnswer struct {
	missing bool
	subs    [numEndpoints][]byte
}

// batchFields are the response field names of the sub-objects, indexed by
// endpoint.
var batchFields = [numEndpoints]string{`,"curves":`, `,"check":`, `,"minfreq":`, `,"verdict":`}

func trimNL(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		return b[:n-1]
	}
	return b
}

// batchSub resolves one sub-query into splice-ready bytes, applying the
// same hit/miss accounting and degraded fallback as the single-stream
// handlers.
func (s *Server) batchSub(ctx context.Context, e *entry, q readQuery, tenant string) []byte {
	resp, hit, err := s.resolve(ctx, e, q, tenant)
	if err == nil {
		if hit {
			s.metrics.cacheHits.Add(1)
		} else {
			s.metrics.cacheMisses.Add(1)
		}
		return trimNL(resp.body)
	}
	s.metrics.cacheMisses.Add(1)
	if errors.Is(err, stream.ErrBusy) {
		if body := degradedBody(e.cache.last(q, tenant)); body != nil {
			s.metrics.degraded.Add(1)
			return trimNL(body)
		}
	}
	return append(appendJSONString([]byte(`{"error":`), err.Error()), '}')
}

func (s *Server) handleBatchQuery(w http.ResponseWriter, r *http.Request) {
	var req batchQueryRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	if len(req.IDs) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{`"ids" must be non-empty`})
		return
	}
	if len(req.IDs) > maxBatchStreams {
		writeJSON(w, http.StatusBadRequest, errorResponse{"too many ids (max 1024)"})
		return
	}
	if !req.Curves && !req.Verdict && req.Check == nil && req.MinFreqB == nil {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{`nothing requested: set "curves", "verdict", "check" or "minfreq_b"`})
		return
	}
	if req.Check != nil &&
		(req.Check.FreqHz <= 0 || req.Check.LatencyNs < 0 || req.Check.Buffer < 0) {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{"check: need freq_hz > 0, latency_ns ≥ 0, buffer ≥ 0"})
		return
	}
	if req.MinFreqB != nil && *req.MinFreqB < 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{"minfreq_b must be non-negative"})
		return
	}
	s.metrics.batchStreams.Observe(int64(len(req.IDs)))

	// Resolve in shard order — consecutive streams of one shard touch the
	// same registry lock and likely the same cache lines — but remember
	// each id's request position so the response preserves request order.
	// Duplicate ids resolve once: dup[i] names the first occurrence whose
	// answer position i copies after the resolution pass (the sub-objects
	// are immutable spliced bytes, so sharing them is free).
	shards := make([]uint32, len(req.IDs))
	order := make([]int, len(req.IDs))
	dup := make([]int, len(req.IDs))
	firstAt := make(map[string]int, len(req.IDs))
	for i, id := range req.IDs {
		shards[i] = s.shardIndex(id)
		order[i] = i
		if j, seen := firstAt[id]; seen {
			dup[i] = j
		} else {
			firstAt[id] = i
			dup[i] = i
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return shards[order[a]] < shards[order[b]] })

	// The sub-queries asked for, in response field order.
	qs := make([]readQuery, 0, numEndpoints)
	if req.Curves {
		qs = append(qs, readQuery{ep: epCurves})
	}
	if req.Check != nil {
		qs = append(qs, readQuery{ep: epCheck, check: *req.Check})
	}
	if req.MinFreqB != nil {
		qs = append(qs, readQuery{ep: epMinFreq, b: *req.MinFreqB})
	}
	if req.Verdict {
		qs = append(qs, readQuery{ep: epVerdict})
	}
	ctx := r.Context()
	tenant := s.tenantFor(r).name
	answers := make([]batchAnswer, len(req.IDs))
	for _, i := range order {
		if dup[i] != i {
			continue // a duplicate; copies its first occurrence's answer below
		}
		e := s.get(req.IDs[i])
		if e == nil {
			answers[i].missing = true
			continue
		}
		for _, q := range qs {
			answers[i].subs[q.ep] = s.batchSub(ctx, e, q, tenant)
		}
	}
	for i := range answers {
		if dup[i] != i {
			answers[i] = answers[dup[i]]
		}
	}

	// Splice everything into one shared render buffer.
	buf := renderPool.Get().(*[]byte)
	b := (*buf)[:0]
	b = append(b, `{"streams":[`...)
	for i := range answers {
		if i > 0 {
			b = append(b, ',')
		}
		a := &answers[i]
		b = append(b, `{"id":`...)
		b = appendJSONString(b, req.IDs[i])
		if a.missing {
			b = append(b, `,"error":"unknown stream"}`...)
			continue
		}
		for ep, sub := range a.subs {
			if sub != nil {
				b = append(b, batchFields[ep]...)
				b = append(b, sub...)
			}
		}
		b = append(b, '}')
	}
	b = append(b, ']', '}', '\n')

	setHeaderValue(w.Header(), "Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b) //nolint:errcheck // client gone; nothing to do
	*buf = b[:0]
	renderPool.Put(buf)
}
