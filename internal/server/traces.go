package server

import (
	"net/http"
	"strconv"
	"time"

	"wcm/internal/obs/trace"
)

// /debug/traces — the serving side of the tracing subsystem. Both
// endpoints are classNone (never shed, like healthz/metrics: the trace
// store exists to diagnose overload) and excluded from the self-curves
// feed (see instrument). Rendering walks an immutable snapshot of the
// store — finished traces never mutate — so scrapes run lock-free against
// live traffic.

// traceSummaryJSON is one /debug/traces index row.
type traceSummaryJSON struct {
	ID          string  `json:"id"`       // X-Request-Id
	TraceID     string  `json:"trace_id"` // W3C 32-hex trace-id
	Endpoint    string  `json:"endpoint"`
	Status      int     `json:"status"`
	Kept        string  `json:"kept"` // why retention kept it ("slow,error", ...)
	StartUnixNs int64   `json:"start_unix_ns"`
	DurationUs  float64 `json:"duration_us"`
	Spans       int     `json:"spans"`
}

type tracesResponse struct {
	Count  int                `json:"count"`
	Traces []traceSummaryJSON `json:"traces"`
}

// spanJSON is one node of the rendered span tree.
type spanJSON struct {
	Name       string         `json:"name"`
	ID         int32          `json:"id"`
	StartUs    float64        `json:"start_us"` // offset from trace start
	DurationUs float64        `json:"duration_us"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []*spanJSON    `json:"children,omitempty"`
}

type traceResponse struct {
	ID           string    `json:"id"`
	TraceID      string    `json:"trace_id"`
	Traceparent  string    `json:"traceparent"`
	RemoteParent bool      `json:"remote_parent"` // trace-id accepted from the caller
	Endpoint     string    `json:"endpoint"`
	Status       int       `json:"status"`
	Kept         string    `json:"kept"`
	StartUnixNs  int64     `json:"start_unix_ns"`
	DurationUs   float64   `json:"duration_us"`
	DroppedSpans int       `json:"dropped_spans,omitempty"`
	Root         *spanJSON `json:"root"`
}

func durUs(ns int64) float64 { return float64(ns) / 1e3 }

// spanTree links the trace's flat span slab into a tree. Spans whose
// parent was never recorded (slab overflow truncated it) hang off the
// root rather than vanish.
func spanTree(spans []trace.Span) *spanJSON {
	nodes := make([]*spanJSON, len(spans))
	for i := range spans {
		sp := &spans[i]
		n := &spanJSON{
			Name:       sp.Name,
			ID:         sp.ID,
			StartUs:    durUs(sp.StartNs),
			DurationUs: durUs(sp.DurNs),
		}
		if sp.NAttr > 0 {
			n.Attrs = make(map[string]any, sp.NAttr)
			for a := int32(0); a < sp.NAttr; a++ {
				at := &sp.Attrs[a]
				if at.IsStr {
					n.Attrs[at.Key] = at.Str
				} else {
					n.Attrs[at.Key] = at.Int
				}
			}
		}
		nodes[i] = n
	}
	if len(nodes) == 0 {
		return nil
	}
	root := nodes[0]
	for i := 1; i < len(nodes); i++ {
		parent := spans[i].Parent
		if parent < 1 || int(parent) > len(nodes) || int(parent) == i+1 {
			parent = 1
		}
		p := nodes[parent-1]
		p.Children = append(p.Children, nodes[i])
	}
	return root
}

func traceSummary(t *trace.Active) traceSummaryJSON {
	return traceSummaryJSON{
		ID:          t.ReqID(),
		TraceID:     t.TraceIDHex(),
		Endpoint:    t.Endpoint(),
		Status:      t.Status(),
		Kept:        t.Keep().String(),
		StartUnixNs: t.Start().UnixNano(),
		DurationUs:  durUs(t.Duration().Nanoseconds()),
		Spans:       t.SpanCount(),
	}
}

// handleTraces serves the recent-trace index, filterable with
// ?endpoint=NAME, ?status=N and ?min_duration=DUR (Go duration syntax),
// newest first, capped with ?limit=N (default 100).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeJSON(w, http.StatusNotFound,
			errorResponse{"tracing disabled; start with -trace-sample"})
		return
	}
	q := r.URL.Query()
	endpoint := q.Get("endpoint")
	var status int
	if v := q.Get("status"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{"status must be an integer"})
			return
		}
		status = n
	}
	var minDur time.Duration
	if v := q.Get("min_duration"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			writeJSON(w, http.StatusBadRequest,
				errorResponse{`min_duration must be a duration ("50ms")`})
			return
		}
		minDur = d
	}
	limit := 100
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeJSON(w, http.StatusBadRequest, errorResponse{"limit must be a positive integer"})
			return
		}
		limit = n
	}
	resp := tracesResponse{Traces: []traceSummaryJSON{}}
	for _, t := range s.tracer.Traces() {
		if endpoint != "" && t.Endpoint() != endpoint {
			continue
		}
		if status != 0 && t.Status() != status {
			continue
		}
		if minDur > 0 && t.Duration() < minDur {
			continue
		}
		if len(resp.Traces) < limit {
			resp.Traces = append(resp.Traces, traceSummary(t))
		}
		resp.Count++
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTraceByID serves one trace's full span tree. The id is the
// X-Request-Id the trace was recorded under; the 32-hex W3C trace-id is
// accepted too.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeJSON(w, http.StatusNotFound,
			errorResponse{"tracing disabled; start with -trace-sample"})
		return
	}
	id := r.PathValue("id")
	t := s.tracer.Lookup(id)
	if t == nil {
		for _, cand := range s.tracer.Traces() {
			if cand.TraceIDHex() == id {
				t = cand
				break
			}
		}
	}
	if t == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{"no stored trace with that id"})
		return
	}
	writeJSON(w, http.StatusOK, traceResponse{
		ID:           t.ReqID(),
		TraceID:      t.TraceIDHex(),
		Traceparent:  t.Traceparent(),
		RemoteParent: t.Remote(),
		Endpoint:     t.Endpoint(),
		Status:       t.Status(),
		Kept:         t.Keep().String(),
		StartUnixNs:  t.Start().UnixNano(),
		DurationUs:   durUs(t.Duration().Nanoseconds()),
		DroppedSpans: t.DroppedSpans(),
		Root:         spanTree(t.Spans()),
	})
}
