package server

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"wcm/internal/obs"
	"wcm/internal/obs/trace"
)

// stageID indexes the stage table: every pipeline stage the service times.
// Each stage is timed once, from one pair of timestamps, and that single
// reading feeds both its wcmd_stage_latency_seconds histogram and — on a
// traced request — its span. Adjacent stages share their boundary
// timestamp, so each boundary costs one clock read. The intervals:
//
//	decode      handler entry → body read and parsed (JSON or binary)
//	update      decode end → the ingest tail returned (applied, rejected or
//	            failed), bracketing apply, wal_append and wal_fsync
//	render      update end → ingest response encoded and written
//	cache_hit   cached query replayed from the version-keyed cache
//	cache_miss  query computed from a fresh snapshot
//	apply       the request's stream Ingest call
//	wal_append  apply end → the batch's WAL append returned, so it brackets
//	            registry fixups, shard-lock and log-lock wait and any
//	            size-triggered rotation (a DELETE times its AppendTombstone
//	            call alone)
//	wal_fsync   append end → a Commit that fsynced (a commit with nothing
//	            left to sync is no observation)
type stageID uint8

const (
	stageDecode stageID = iota
	stageUpdate
	stageRender
	stageCacheHit
	stageCacheMiss
	stageApply
	stageWALAppend
	stageWALFsync
	numStages
)

// stageTable maps each stage to its stage="…" label (also its key in the
// /v1/stats and /debug/self stage blocks) and the span it records. The two
// cache stages share the resolve span, told apart by its outcome attribute.
var stageTable = [numStages]struct{ label, span, outcome string }{
	stageDecode:    {"decode", "decode", ""},
	stageUpdate:    {"update", "update", ""},
	stageRender:    {"render", "render", ""},
	stageCacheHit:  {"cache_hit", "resolve", "hit"},
	stageCacheMiss: {"cache_miss", "resolve", "miss"},
	stageApply:     {"apply", "apply", ""},
	stageWALAppend: {"wal_append", "wal_append", ""},
	stageWALFsync:  {"wal_fsync", "wal_fsync", ""},
}

// MarshalText renders a stage as its label, so stage-keyed maps serialize
// as JSON objects keyed by label.
func (id stageID) MarshalText() ([]byte, error) { return []byte(stageTable[id].label), nil }

// UnmarshalText is MarshalText's inverse.
func (id *stageID) UnmarshalText(b []byte) error {
	for i := range stageTable {
		if stageTable[i].label == string(b) {
			*id = stageID(i)
			return nil
		}
	}
	return fmt.Errorf("server: unknown stage %q", b)
}

// stageSpan is a stage opened at its start boundary; end closes it.
type stageSpan struct {
	h     *obs.Histogram
	ref   trace.SpanRef
	start time.Time
}

// openStage opens stage id at start. On a traced request (tr non-nil) the
// span starts now, under parent, so spans recorded before the stage closes
// can nest under it.
func (m *metrics) openStage(id stageID, tr *trace.Active, parent trace.SpanRef, start time.Time) stageSpan {
	ref := tr.StartAt(stageTable[id].span, parent, start)
	if o := stageTable[id].outcome; o != "" {
		ref.Str("outcome", o)
	}
	return stageSpan{h: &m.stages[id], ref: ref, start: start}
}

// end closes the stage at end: one histogram observation and the span,
// both over the same [start, end].
func (sp stageSpan) end(end time.Time) trace.SpanRef {
	sp.h.Observe(end.Sub(sp.start))
	sp.ref.EndAt(end)
	return sp.ref
}

// closeStage records stage id over [start, end] in one call.
func (m *metrics) closeStage(id stageID, tr *trace.Active, parent trace.SpanRef, start, end time.Time) trace.SpanRef {
	return m.openStage(id, tr, parent, start).end(end)
}

// metrics holds the service's counters and histograms. Per-endpoint and
// per-stage cells are plain atomics updated on the request path; gauges
// derived from stream state are computed at scrape time by Server.collect,
// so the hot path never touches them.
//
// INVARIANT: the endpoints map is built once by newMetrics and never
// written afterwards — every route registers at mux construction, before
// the first request — and the stage cells are a fixed array. Lookups on
// the request path and walks at scrape time therefore need no lock: a
// /metrics scrape can never block (or be blocked by) request handling.
// Adding a route without listing its name in newMetrics is a programming
// error that endpoint() turns into a startup panic, not a silent data race.
// The hot counters are grouped by the path that bumps them, with cache-line
// spacers between the groups: ingest-path counters share a line with each
// other (they are bumped together, by the same goroutine per batch) but not
// with the read-path counters, so a stream of ingests does not invalidate
// the line that concurrent query traffic is bumping, and vice versa — the
// same false-sharing repair as stream.Stream's version counter.
type metrics struct {
	start time.Time

	_       [64]byte      // ingest-path counters on their own cache line
	samples atomic.Uint64 // demand samples accepted
	batches atomic.Uint64 // ingest batches accepted
	// ingest batches whose result carried a fresh contract violation
	violatingBatches atomic.Uint64
	violations       atomic.Uint64 // samples those batches found violating the contract
	binaryBatches    atomic.Uint64 // ingest batches decoded from the binary format

	_             [64 - 5*8]byte // read-path counters on the next line
	cacheHits     atomic.Uint64  // query responses replayed from the version-keyed cache
	cacheMisses   atomic.Uint64  // query responses that had to be computed
	renders       atomic.Uint64  // responses actually rendered (≤ misses under singleflight)
	sfLeader      atomic.Uint64  // singleflight calls that led the render for their key
	sfShared      atomic.Uint64  // singleflight calls that piggybacked on a leader
	binaryQueries atomic.Uint64  // query requests that negotiated the binary response format
	epochResets   atomic.Uint64  // parameterized cache maps restarted at the entry cap

	_        [64 - 7*8]byte // cold/error counters off the hot read line
	panics   atomic.Uint64  // handler panics caught by the recovery barrier
	degraded atomic.Uint64  // responses served from a stale cache marked degraded
	// auditor checks, and those that found a mismatch (see audit.go)
	auditChecked, auditMismatch atomic.Uint64

	// batchStreams records streams-answered-per-/v1/query-request: how
	// much per-request overhead each batch amortizes.
	batchStreams obs.CountHist

	// traceSpans records spans-per-trace for every traced request (kept or
	// not) — the span-depth distribution of the tracing subsystem.
	traceSpans obs.CountHist

	build buildInfo

	endpoints map[string]*endpointStats // immutable after newMetrics
	epNames   []string                  // sorted keys of endpoints
	stages    [numStages]obs.Histogram  // indexed by stageID
}

// endpointStats accumulates request-path cells for one route: request and
// error counters plus the full latency distribution. The histogram
// replaced the earlier sum/max pair — sum and count still fall out of it
// (the Prometheus _sum/_count series), and the distribution additionally
// answers p50/p95/p99.
type endpointStats struct {
	requests atomic.Uint64
	errors   atomic.Uint64 // responses with status ≥ 400
	latency  obs.Histogram
}

// buildInfo is captured once at startup from the runtime.
type buildInfo struct {
	goVersion string
	version   string // main module version ("(devel)" for tree builds)
	revision  string // vcs.revision, if stamped
}

func readBuildInfo() buildInfo {
	b := buildInfo{goVersion: runtime.Version(), version: "unknown", revision: "unknown"}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	if bi.Main.Version != "" {
		b.version = bi.Main.Version
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			b.revision = s.Value
		}
	}
	return b
}

// newMetrics pre-registers the complete endpoint set. See the invariant on
// metrics: registration happens here and only here.
func newMetrics(endpointNames []string) *metrics {
	m := &metrics{
		start:     time.Now(),
		build:     readBuildInfo(),
		endpoints: make(map[string]*endpointStats, len(endpointNames)),
	}
	for _, name := range endpointNames {
		m.endpoints[name] = &endpointStats{}
	}
	m.epNames = append(m.epNames, endpointNames...)
	sort.Strings(m.epNames)
	return m
}

// endpoint returns the stats cell for a pre-registered route. Unknown
// names panic: they mean a route was added without registering it in
// Server.routes, which would otherwise require request-path locking.
func (m *metrics) endpoint(name string) *endpointStats {
	ep := m.endpoints[name]
	if ep == nil {
		panic(fmt.Sprintf("server: endpoint %q not pre-registered in newMetrics", name))
	}
	return ep
}

func (ep *endpointStats) observe(d time.Duration, status int) {
	ep.requests.Add(1)
	if status >= 400 {
		ep.errors.Add(1)
	}
	ep.latency.Observe(d)
}

// ---- the scrape snapshot ------------------------------------------------------

// gauges is the one scrape-time snapshot behind every observability
// surface: metrics.write renders it as Prometheus text and /v1/stats
// embeds its blocks as JSON. Server.collect is the only code that reads
// these counters (its tenant rows come from tenantReadings, which
// /v1/tenants serves alone), so the surfaces cannot disagree.
type gauges struct {
	streams streamGauges
	limits  map[string]classLimitJSON // "ingest" and "read"

	// wal carries the durability counters; nil when the server runs
	// without a write-ahead log.
	wal *walGauges

	// trace carries the tracing counters and store accounting; nil when
	// tracing is off.
	trace *traceGauges

	// tenants carries the per-tenant QoS counters, sampled per scrape.
	// Always non-empty (the default tenant exists unconditionally).
	tenants []tenantJSON
}

// streamGauges aggregates every live stream's state.
type streamGauges struct {
	Count           int64 `json:"count"`
	SamplesInWindow int64 `json:"samples_in_window"`
	AuditChecked    int64 `json:"audit_checked"`
	AuditMismatch   int64 `json:"audit_mismatch"`
	Violations      int64 `json:"violations"`
}

// classLimitJSON reports one endpoint class's load-shedding state.
type classLimitJSON struct {
	Limit    int64  `json:"limit"` // 0 = unlimited
	Inflight int64  `json:"inflight"`
	Shed     uint64 `json:"shed"`
}

// walGauges is the durability block: the wcmd_wal_* / wcmd_recovery_*
// series and /v1/stats "wal".
type walGauges struct {
	BytesTotal       uint64 `json:"bytes_total"`
	AppendsTotal     uint64 `json:"appends_total"`
	FsyncsTotal      uint64 `json:"fsyncs_total"`
	TornTails        uint64 `json:"torn_tails"`
	ReplayedBatches  uint64 `json:"replayed_batches"`
	ReplayedSamples  uint64 `json:"replayed_samples"`
	RecoveredStreams uint64 `json:"recovered_streams"`
	CleanStart       bool   `json:"clean_start"`
}

// traceGauges is the tracing block: the wcmd_trace_* series and /v1/stats
// "trace".
type traceGauges struct {
	Kept            uint64 `json:"kept"`
	Dropped         uint64 `json:"dropped"`
	Sampled         uint64 `json:"sampled"`
	Evicted         uint64 `json:"evicted"`
	TruncatedSpans  uint64 `json:"truncated_spans"`
	StoreBytes      int64  `json:"store_bytes"`
	StoreBytesLimit int64  `json:"store_bytes_limit"`
}

// collect takes the scrape snapshot. Stream entries are gathered under the
// shard locks and their stats read after releasing them: Stats takes each
// stream's own lock, and holding a shard lock across that would stall
// ingests into sibling streams.
func (s *Server) collect() gauges {
	var entries []*entry
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, e := range sh.streams {
			entries = append(entries, e)
		}
		sh.mu.RUnlock()
	}
	var g gauges
	for _, e := range entries {
		g.streams.Count++
		g.streams.SamplesInWindow += int64(e.st.Stats().InWindow)
	}
	// Counted where they happen, so a DELETE does not take them back.
	g.streams.AuditChecked = int64(s.metrics.auditChecked.Load())
	g.streams.AuditMismatch = int64(s.metrics.auditMismatch.Load())
	g.streams.Violations = int64(s.metrics.violations.Load())
	g.limits = map[string]classLimitJSON{
		"ingest": {Limit: s.limIngest.Limit(), Inflight: s.limIngest.Inflight(), Shed: s.limIngest.Shed()},
		"read":   {Limit: s.limRead.Limit(), Inflight: s.limRead.Inflight(), Shed: s.limRead.Shed()},
	}
	if s.wal != nil {
		g.wal = &walGauges{
			BytesTotal:       s.wal.BytesAppended(),
			AppendsTotal:     s.wal.Appends(),
			FsyncsTotal:      s.wal.Fsyncs(),
			TornTails:        s.wal.TornTails(),
			ReplayedBatches:  s.recovered.batches.Load(),
			ReplayedSamples:  s.recovered.samples.Load(),
			RecoveredStreams: s.recovered.streams.Load(),
			CleanStart:       s.wal.CleanStart(),
		}
	}
	if s.tracer != nil {
		g.trace = &traceGauges{
			Kept:            s.tracer.Kept(),
			Dropped:         s.tracer.Dropped(),
			Sampled:         s.tracer.Sampled(),
			Evicted:         s.tracer.Evicted(),
			TruncatedSpans:  s.tracer.TruncatedSpans(),
			StoreBytes:      s.tracer.StoreBytes(),
			StoreBytesLimit: s.tracer.StoreLimit(),
		}
	}
	g.tenants = s.tenantReadings()
	return g
}

// ---- Prometheus text exposition ---------------------------------------------

// escapeLabel escapes a label VALUE per the Prometheus text format:
// backslash, double quote and newline. Label names here are all literals.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// emittedBuckets is the subset of histogram bucket indices exported to
// Prometheus: factor-4 steps from 1µs to ~17s. The in-memory histograms
// keep full 2× resolution (quantile estimates use it); the exposition
// coarsens to keep scrape size proportionate. Cumulative counts stay
// exact at every emitted bound because lower unemitted buckets fold into
// the first emitted one, and +Inf always closes the series.
var emittedBuckets = func() []int {
	var idx []int
	for i := 10; i <= 34; i += 2 {
		idx = append(idx, i)
	}
	return idx
}()

// formatLe renders a bucket bound the way Prometheus clients do: shortest
// float64 round-trip representation.
func formatLe(s float64) string { return strconv.FormatFloat(s, 'g', -1, 64) }

// histRow is one series of a latency histogram family: its rendered label
// set (`endpoint="ingest"`, `tenant="a",slo="batch"`) and its snapshot.
type histRow struct {
	labels string
	snap   obs.HistSnapshot
}

// writeHistogramFamily emits one latency histogram metric family, one
// series per row, in row order.
func writeHistogramFamily(w io.Writer, family, help string, rows []histRow) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", family, help, family)
	for _, r := range rows {
		for _, i := range emittedBuckets {
			fmt.Fprintf(w, "%s_bucket{%s,le=\"%s\"} %d\n",
				family, r.labels, formatLe(obs.UpperBoundSeconds(i)), r.snap.CumulativeCount(i))
		}
		fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", family, r.labels, r.snap.Count)
		fmt.Fprintf(w, "%s_sum{%s} %g\n", family, r.labels, r.snap.SumSeconds())
		fmt.Fprintf(w, "%s_count{%s} %d\n", family, r.labels, r.snap.Count)
	}
}

// writeCountHistFamily emits one unlabelled count histogram (obs.CountHist).
func writeCountHistFamily(w io.Writer, family, help string, s obs.CountHistSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", family, help, family)
	for i := 0; i < obs.CountNumBuckets; i++ {
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n",
			family, formatLe(obs.CountUpperBound(i)), s.CumulativeCount(i))
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", family, s.Count)
	fmt.Fprintf(w, "%s_sum %d\n", family, s.Sum)
	fmt.Fprintf(w, "%s_count %d\n", family, s.Count)
}

// quantiles reported in /metrics and /v1/stats.
var reportedQuantiles = []struct {
	label string
	q     float64
}{{"0.5", 0.50}, {"0.95", 0.95}, {"0.99", 0.99}}

// write emits all metrics in the Prometheus text exposition format
// (version 0.0.4) using only the standard library.
func (m *metrics) write(w io.Writer, g gauges) {
	emit := func(help, typ, name string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, v)
	}
	emit("Demand samples accepted across all streams.", "counter",
		"wcmd_samples_ingested_total", m.samples.Load())
	emit("Ingest batches accepted.", "counter",
		"wcmd_ingest_batches_total", m.batches.Load())
	emit("Ingest batches that surfaced a contract violation.", "counter",
		"wcmd_violating_batches_total", m.violatingBatches.Load())
	emit("Ingest batches decoded from the binary wire format.", "counter",
		"wcmd_ingest_binary_batches_total", m.binaryBatches.Load())
	emit("Query responses replayed from the version-keyed query cache.", "counter",
		"wcmd_query_cache_hits_total", m.cacheHits.Load())
	emit("Query responses computed because no cached answer matched.", "counter",
		"wcmd_query_cache_misses_total", m.cacheMisses.Load())
	emit("Query responses actually rendered (misses minus singleflight sharing).", "counter",
		"wcmd_query_renders_total", m.renders.Load())
	emit("Singleflight calls that led the render for their key.", "counter",
		"wcmd_query_singleflight_leader_total", m.sfLeader.Load())
	emit("Singleflight calls that piggybacked on a concurrent render.", "counter",
		"wcmd_query_singleflight_shared_total", m.sfShared.Load())
	emit("Query requests answered in the binary response format.", "counter",
		"wcmd_query_binary_total", m.binaryQueries.Load())
	emit("Parameterized query cache maps restarted at the entry cap.", "counter",
		"wcmd_query_cache_epoch_resets_total", m.epochResets.Load())
	emit("Live streams.", "gauge", "wcmd_streams", g.streams.Count)
	emit("Samples currently inside sliding windows, summed over streams.", "gauge",
		"wcmd_samples_in_window", g.streams.SamplesInWindow)
	emit("Auditor checks of a stream's curves against a batch re-extraction of its window.",
		"counter", "wcmd_audit_checked_total", g.streams.AuditChecked)
	emit("Audits that found the incremental curves disagreeing and rebuilt them (expect 0).",
		"counter", "wcmd_audit_mismatch_total", g.streams.AuditMismatch)
	emit("Contract violations observed at ingest.", "counter",
		"wcmd_contract_violations_total", g.streams.Violations)
	emit("Handler panics caught by the recovery barrier.", "counter",
		"wcmd_panics_total", m.panics.Load())
	emit("Responses served from a stale cached snapshot, marked degraded.", "counter",
		"wcmd_degraded_responses_total", m.degraded.Load())
	emit("Seconds since the server started.", "gauge",
		"wcmd_uptime_seconds", fmt.Sprintf("%.3f", time.Since(m.start).Seconds()))

	ing, rd := g.limits["ingest"], g.limits["read"]
	fmt.Fprintf(w, "# HELP wcmd_shed_total Requests turned away by the in-flight limiter, by endpoint class.\n"+
		"# TYPE wcmd_shed_total counter\n"+
		"wcmd_shed_total{class=\"ingest\"} %d\nwcmd_shed_total{class=\"read\"} %d\n",
		ing.Shed, rd.Shed)
	fmt.Fprintf(w, "# HELP wcmd_inflight_limit Configured in-flight request cap, by endpoint class (0 = unlimited).\n"+
		"# TYPE wcmd_inflight_limit gauge\n"+
		"wcmd_inflight_limit{class=\"ingest\"} %d\nwcmd_inflight_limit{class=\"read\"} %d\n",
		ing.Limit, rd.Limit)
	fmt.Fprintf(w, "# HELP wcmd_inflight_requests Currently executing requests, by endpoint class.\n"+
		"# TYPE wcmd_inflight_requests gauge\n"+
		"wcmd_inflight_requests{class=\"ingest\"} %d\nwcmd_inflight_requests{class=\"read\"} %d\n",
		ing.Inflight, rd.Inflight)

	if s := m.batchStreams.Snapshot(); s.Count > 0 {
		writeCountHistFamily(w, "wcmd_query_batch_streams", "Streams answered per /v1/query request.", s)
	}

	if g.trace != nil {
		emit("Finished traces retained by tail-based sampling.", "counter",
			"wcmd_trace_kept_total", g.trace.Kept)
		emit("Finished traces discarded (ordinary and not sampled).", "counter",
			"wcmd_trace_dropped_total", g.trace.Dropped)
		emit("Traces kept by the 1-in-N sampler alone (no anomaly).", "counter",
			"wcmd_trace_sampled_total", g.trace.Sampled)
		emit("Stored traces evicted to keep the store inside its byte cap.", "counter",
			"wcmd_trace_evicted_total", g.trace.Evicted)
		emit("Spans dropped because a trace hit its span cap.", "counter",
			"wcmd_trace_truncated_spans_total", g.trace.TruncatedSpans)
		emit("Bytes currently retained by the trace store.", "gauge",
			"wcmd_trace_store_bytes", g.trace.StoreBytes)
		emit("Hard cap on trace store memory (oldest traces evicted).", "gauge",
			"wcmd_trace_store_bytes_limit", g.trace.StoreBytesLimit)
		if s := m.traceSpans.Snapshot(); s.Count > 0 {
			writeCountHistFamily(w, "wcmd_trace_spans", "Spans recorded per traced request.", s)
		}
	}

	if len(g.tenants) > 0 {
		labels := make([]string, len(g.tenants))
		for i, t := range g.tenants {
			labels[i] = fmt.Sprintf("tenant=\"%s\",slo=\"%s\"", escapeLabel(t.Name), escapeLabel(t.SLO))
		}
		tenantCounter := func(family, help string, v func(tenantJSON) uint64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", family, help, family)
			for i, t := range g.tenants {
				fmt.Fprintf(w, "%s{%s} %d\n", family, labels[i], v(t))
			}
		}
		tenantCounter("wcmd_tenant_admitted_total",
			"Requests that passed tenant rate admission, by tenant and SLO class.",
			func(t tenantJSON) uint64 { return t.Admitted })
		tenantCounter("wcmd_tenant_throttled_total",
			"Requests rejected by the tenant's token bucket, by tenant and SLO class.",
			func(t tenantJSON) uint64 { return t.Throttled })
		tenantCounter("wcmd_tenant_shed_total",
			"Requests turned away by SLO-ordered in-flight shedding, by tenant and SLO class.",
			func(t tenantJSON) uint64 { return t.Shed })
		tenantCounter("wcmd_tenant_degraded_total",
			"Throttled or shed reads still answered from the cached degraded path, by tenant and SLO class.",
			func(t tenantJSON) uint64 { return t.Degraded })
		fmt.Fprintf(w, "# HELP wcmd_tenant_streams Live streams owned by each tenant.\n"+
			"# TYPE wcmd_tenant_streams gauge\n")
		rows := make([]histRow, len(g.tenants))
		for i, t := range g.tenants {
			fmt.Fprintf(w, "wcmd_tenant_streams{%s} %d\n", labels[i], t.Streams)
			rows[i] = histRow{labels[i], t.hist}
		}
		writeHistogramFamily(w, "wcmd_tenant_request_latency_seconds",
			"Handler latency distribution, by tenant and SLO class.", rows)
	}

	if g.wal != nil {
		emit("Bytes appended to the write-ahead log.", "counter",
			"wcmd_wal_bytes_total", g.wal.BytesTotal)
		emit("Records appended to the write-ahead log.", "counter",
			"wcmd_wal_appends_total", g.wal.AppendsTotal)
		emit("Group-commit fsyncs of WAL segments.", "counter",
			"wcmd_wal_fsyncs_total", g.wal.FsyncsTotal)
		emit("Torn WAL tails truncated during recovery (expect 0 or 1 per crash).", "counter",
			"wcmd_wal_torn_tails_total", g.wal.TornTails)
		emit("Ingest batches replayed from the WAL at boot.", "counter",
			"wcmd_recovery_replayed_batches", g.wal.ReplayedBatches)
		emit("Demand samples replayed from the WAL at boot.", "counter",
			"wcmd_recovery_replayed_samples", g.wal.ReplayedSamples)
		emit("Streams restored from snapshots and WAL replay at boot.", "counter",
			"wcmd_recovery_streams", g.wal.RecoveredStreams)
		clean := 0
		if g.wal.CleanStart {
			clean = 1
		}
		emit("Whether this boot found a clean-shutdown marker (1) or ran crash recovery (0).",
			"gauge", "wcmd_wal_clean_start", clean)
	}

	fmt.Fprintf(w, "# HELP wcmd_build_info Build metadata; the value is always 1.\n"+
		"# TYPE wcmd_build_info gauge\n"+
		"wcmd_build_info{go_version=\"%s\",version=\"%s\",revision=\"%s\"} 1\n",
		escapeLabel(m.build.goVersion), escapeLabel(m.build.version), escapeLabel(m.build.revision))

	fmt.Fprintf(w, "# HELP wcmd_requests_total Requests served, by endpoint.\n# TYPE wcmd_requests_total counter\n")
	for _, name := range m.epNames {
		fmt.Fprintf(w, "wcmd_requests_total{endpoint=\"%s\"} %d\n",
			escapeLabel(name), m.endpoints[name].requests.Load())
	}
	fmt.Fprintf(w, "# HELP wcmd_request_errors_total Responses with status >= 400, by endpoint.\n# TYPE wcmd_request_errors_total counter\n")
	for _, name := range m.epNames {
		fmt.Fprintf(w, "wcmd_request_errors_total{endpoint=\"%s\"} %d\n",
			escapeLabel(name), m.endpoints[name].errors.Load())
	}

	rows := make([]histRow, len(m.epNames))
	for i, name := range m.epNames {
		rows[i] = histRow{fmt.Sprintf("endpoint=\"%s\"", escapeLabel(name)), m.endpoints[name].latency.Snapshot()}
	}
	writeHistogramFamily(w, "wcmd_request_latency_seconds",
		"Handler latency distribution, by endpoint.", rows)
	fmt.Fprintf(w, "# HELP wcmd_request_latency_quantile_seconds Estimated handler latency quantiles, by endpoint.\n"+
		"# TYPE wcmd_request_latency_quantile_seconds gauge\n")
	for _, r := range rows {
		for _, rq := range reportedQuantiles {
			fmt.Fprintf(w, "wcmd_request_latency_quantile_seconds{%s,quantile=\"%s\"} %g\n",
				r.labels, rq.label, r.snap.Quantile(rq.q))
		}
	}

	rows = make([]histRow, numStages)
	for id := range rows {
		rows[id] = histRow{"stage=\"" + stageTable[id].label + "\"", m.stages[id].Snapshot()}
	}
	writeHistogramFamily(w, "wcmd_stage_latency_seconds",
		"Pipeline stage latency distribution (decode/update/render, cache hit/miss, apply, WAL append/fsync).",
		rows)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w, s.collect())
}

// ---- JSON surfaces ------------------------------------------------------------

// latencyStatsJSON summarizes one histogram for /v1/stats. Requests/Errors
// are zero for stage rows (stages count spans, not requests).
type latencyStatsJSON struct {
	Count       uint64  `json:"count"`
	Errors      uint64  `json:"errors,omitempty"`
	MeanSeconds float64 `json:"mean_seconds"`
	P50Seconds  float64 `json:"p50_seconds"`
	P95Seconds  float64 `json:"p95_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
}

func latencyStatsFrom(snap obs.HistSnapshot, errors uint64) latencyStatsJSON {
	out := latencyStatsJSON{
		Count:      snap.Count,
		Errors:     errors,
		P50Seconds: snap.Quantile(0.50),
		P95Seconds: snap.Quantile(0.95),
		P99Seconds: snap.Quantile(0.99),
	}
	if snap.Count > 0 {
		out.MeanSeconds = snap.SumSeconds() / float64(snap.Count)
	}
	return out
}

type statsResponse struct {
	UptimeSeconds float64                      `json:"uptime_seconds"`
	Panics        uint64                       `json:"panics"`
	Degraded      uint64                       `json:"degraded"`
	Limits        map[string]classLimitJSON    `json:"limits"`
	Streams       streamGauges                 `json:"streams"`
	WAL           *walGauges                   `json:"wal,omitempty"`
	Trace         *traceGauges                 `json:"trace,omitempty"`
	Tenants       map[string]tenantJSON        `json:"tenants"`
	Endpoints     map[string]latencyStatsJSON  `json:"endpoints"`
	Stages        map[stageID]latencyStatsJSON `json:"stages"`
}

// handleStats serves the scrape snapshot and the histogram summaries as
// JSON — the same readings the Prometheus exposition carries, for humans
// with curl and no scraper. Endpoints and stages that have seen no traffic
// are omitted.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	g := s.collect()
	resp := statsResponse{
		UptimeSeconds: time.Since(s.metrics.start).Seconds(),
		Panics:        s.metrics.panics.Load(),
		Degraded:      s.metrics.degraded.Load(),
		Limits:        g.limits,
		Streams:       g.streams,
		WAL:           g.wal,
		Trace:         g.trace,
		Tenants:       make(map[string]tenantJSON, len(g.tenants)),
		Endpoints:     make(map[string]latencyStatsJSON),
		Stages:        make(map[stageID]latencyStatsJSON),
	}
	for _, t := range g.tenants {
		resp.Tenants[t.Name] = t
	}
	for _, name := range s.metrics.epNames {
		ep := s.metrics.endpoints[name]
		if ep.requests.Load() == 0 {
			continue
		}
		resp.Endpoints[name] = latencyStatsFrom(ep.latency.Snapshot(), ep.errors.Load())
	}
	for id := range s.metrics.stages {
		if hs := s.metrics.stages[id].Snapshot(); hs.Count > 0 {
			resp.Stages[stageID(id)] = latencyStatsFrom(hs, 0)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// selfResponse is the service's own workload characterization: the curves
// of paper Definition 1 extracted from the per-request handler costs.
// Demand units are µs of handler time, so gamma_hz ≈ 1e6 corresponds to one
// fully-busy worker; saving is the eq. (9) vs eq. (10) frequency ratio.
type selfResponse struct {
	Observed uint64  `json:"observed"` // requests fed into the self stream
	Total    int64   `json:"total"`
	InWindow int     `json:"in_window"`
	UpperUs  []int64 `json:"upper_us"` // γᵘ(k), µs, index = k
	LowerUs  []int64 `json:"lower_us"` // γˡ(k), µs, index = k
	GammaHz  float64 `json:"gamma_hz"` // eq. (9) minimum frequency
	WCETHz   float64 `json:"wcet_hz"`  // eq. (10) WCET-based bound
	Saving   float64 `json:"saving"`
	Buffer   int     `json:"buffer"`

	// Stages breaks the demand down by pipeline stage — where the cycles
	// the curves above characterize are actually spent. Read from the same
	// stage histograms /metrics and /v1/stats render; stages with no
	// traffic are omitted.
	Stages map[stageID]selfStageJSON `json:"stages,omitempty"`
}

// selfStageJSON is one pipeline stage's contribution to the self demand.
type selfStageJSON struct {
	Count   uint64  `json:"count"`
	TotalUs float64 `json:"total_us"`
	MeanUs  float64 `json:"mean_us"`
}

// handleSelf serves the self-characterization stream: the server applies
// the paper's workload model to its own request costs. 404 unless the
// server was built with Config.SelfCurves; 409 until a request has been
// observed. Accepts ?b=N like /minfreq (default 1).
func (s *Server) handleSelf(w http.ResponseWriter, r *http.Request) {
	if s.self == nil {
		writeJSON(w, http.StatusNotFound,
			errorResponse{"self-characterization disabled; start with -self-curves"})
		return
	}
	b := 1
	if q := r.URL.Query().Get("b"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{"b must be a non-negative integer"})
			return
		}
		b = v
	}
	snap, err := s.self.Stream().Snapshot()
	if err != nil {
		writeJSON(w, http.StatusConflict, errorResponse{err.Error()})
		return
	}
	resp := selfResponse{
		Observed: s.self.Observed(),
		Total:    snap.Total,
		InWindow: snap.InWindow,
		UpperUs:  snap.Workload.Upper.Values(),
		LowerUs:  snap.Workload.Lower.Values(),
		Buffer:   b,
	}
	// A min-frequency failure (degenerate window) still leaves the curves
	// worth serving; the frequency fields just stay zero.
	if cmp, err := snap.MinFrequency(b); err == nil {
		resp.GammaHz = cmp.Gamma.Hz
		resp.WCETHz = cmp.WCET.Hz
		resp.Saving = cmp.Saving
	}
	for id := range s.metrics.stages {
		hs := s.metrics.stages[id].Snapshot()
		if hs.Count == 0 {
			continue
		}
		if resp.Stages == nil {
			resp.Stages = make(map[stageID]selfStageJSON)
		}
		total := hs.SumSeconds() * 1e6
		resp.Stages[stageID(id)] = selfStageJSON{
			Count:   hs.Count,
			TotalUs: total,
			MeanUs:  total / float64(hs.Count),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
