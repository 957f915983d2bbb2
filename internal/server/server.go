// Package server exposes the streaming workload-curve maintainer of
// internal/stream as an HTTP service — the first piece of the repository
// that serves traffic instead of batch-analyzing files.
//
// Streams are partitioned across fixed shards by FNV-1a hash of the stream
// id; each shard guards only its id→stream map with its own RWMutex — held
// for map access only, never across stream work — and every stream
// serializes its own state behind its own lock, so ingestion into different
// streams never contends. The endpoints:
//
//	POST   /v1/streams/{id}/ingest    {"t":[...], "demand":[...]} — or the
//	                                  columnar binary format (Content-Type
//	                                  application/x-wcm-ingest, see
//	                                  ContentTypeBinary) for the
//	                                  zero-allocation fast path
//	GET    /v1/streams/{id}/curves    γᵘ/γˡ and span tables of the window
//	POST   /v1/streams/{id}/check     eq. (8)  {"freq_hz":F, "latency_ns":L, "buffer":b}
//	GET    /v1/streams/{id}/minfreq?b=N   eq. (9) and eq. (10) side by side
//	POST   /v1/streams/{id}/contract  {"upper":[...], "lower":[...], "window":W}
//	GET    /v1/streams/{id}/verdict   online-monitor verdict (Admits-style)
//	GET    /v1/streams                list streams
//	DELETE /v1/streams/{id}           drop a stream
//	GET    /v1/stats                  JSON latency stats (p50/p95/p99 per endpoint)
//	GET    /healthz                   liveness + build info + uptime
//	GET    /metrics                   Prometheus text exposition
//	GET    /debug/self                the service's own workload curves (-self-curves)
//	GET    /debug/traces              recent kept traces (Config.TraceSample > 0)
//	GET    /debug/traces/{id}         one trace's full span tree as JSON
//
// Observability (see internal/obs): every instrumented request carries a
// trace ID — the client's X-Request-Id when present, generated otherwise —
// echoed on the response and attached to a request-scoped slog.Logger that
// handlers reach via obs.LoggerFrom(r.Context()). Latency lands in
// lock-free log-bucketed histograms per endpoint and per pipeline stage
// (decode/update/render, cache hit/miss, apply, WAL append/fsync; see
// stageTable), exported as Prometheus histograms with p50/p95/p99
// estimates. Requests slower than Config.SlowRequest are logged at Warn
// with their trace ID. With Config.SelfCurves the server additionally
// feeds each request's measured cost into a built-in CurveStream and
// serves its own γᵘ/γˡ — the paper's workload characterization applied to
// the service itself — at /debug/self.
//
// Query responses (/curves, /check, /minfreq, /verdict) are memoized in a
// per-stream version-keyed cache (see queryCache): each stream carries a
// monotonically increasing version bumped on every mutation, and a repeated
// query at an unchanged version replays the previously rendered bytes after
// one atomic load — read-heavy traffic between ingest batches never takes a
// stream lock or re-walks curves. Responses carry the version they were
// computed at.
//
// Request bodies are size-limited (Config.MaxBodyBytes); unknown JSON
// fields are rejected so client typos fail loudly.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wcm/internal/core"
	"wcm/internal/curve"
	"wcm/internal/obs"
	"wcm/internal/obs/trace"
	"wcm/internal/qos"
	"wcm/internal/stream"
	"wcm/internal/wal"
)

// Defaults for zero-valued Config fields.
const (
	DefaultShards       = 16
	DefaultMaxBodyBytes = 1 << 20
	DefaultSlowRequest  = 250 * time.Millisecond
	// Default in-flight caps per endpoint class. They bound goroutine and
	// memory blow-up under overload, not steady-state throughput: a healthy
	// deployment runs far below them, and a flood past them is answered
	// with immediate 429s (or degraded cached reads) instead of an
	// ever-growing convoy on the stream locks.
	DefaultMaxInflightIngest = 256
	DefaultMaxInflightRead   = 1024
	// DefaultTraceSample is the 1-in-N keep rate wcmd uses for ordinary
	// traces when tracing is enabled (anomalous traces are always kept).
	DefaultTraceSample = trace.DefaultSampleN
)

// Deprecated: DefaultCoalesceBudget is read by nothing; it stays only
// because perfbench still passes it as Config.CoalesceBudget.
const DefaultCoalesceBudget = 64

// Config parameterizes a Server. The zero value picks service defaults.
type Config struct {
	// Shards is the number of stream-map partitions. Default 16.
	Shards int
	// MaxBodyBytes caps every request body. Default 1 MiB.
	MaxBodyBytes int64
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: the profiles expose internals (goroutine stacks, heap
	// contents) that an operator must opt into serving.
	EnablePprof bool
	// Stream configures streams auto-created on first ingest.
	Stream stream.Config
	// Logger receives the service's structured log lines. nil discards
	// them (tests, benchmarks without -v).
	Logger *slog.Logger
	// SlowRequest is the latency above which a request is logged at Warn
	// with its trace ID. 0 picks DefaultSlowRequest; negative disables
	// slow-request logging.
	SlowRequest time.Duration
	// SelfCurves feeds each request's measured cost into a built-in
	// CurveStream and serves the service's own γᵘ/γˡ at /debug/self.
	SelfCurves bool
	// RequestTimeout bounds each request's handler execution: the request
	// context carries the deadline, the ingest path refuses to start a
	// stream update past it, and query paths stop waiting for a contended
	// stream lock at it (serving a degraded cached answer instead, when
	// one exists). ≤ 0 disables per-request deadlines — the zero value
	// stays deadline-free so embedded uses (tests, benchmarks) measure
	// the bare handlers; wcmd sets its own default via -request-timeout.
	RequestTimeout time.Duration
	// MaxInflightIngest caps concurrently executing mutating requests
	// (ingest, contract, delete); excess requests are shed with 429 and
	// Retry-After. 0 picks DefaultMaxInflightIngest; negative disables.
	MaxInflightIngest int
	// MaxInflightRead caps concurrently executing read requests (curves,
	// check, minfreq, verdict, list); excess requests are served from the
	// last cached snapshot marked "degraded":true when possible, shed with
	// 429 otherwise. 0 picks DefaultMaxInflightRead; negative disables.
	// Observability endpoints (healthz, metrics, stats, self) are never
	// shed.
	MaxInflightRead int
	// Faults injects failures at named points for resilience testing (see
	// Fault). Empty in production; wcmd only exposes -inject-fault behind
	// the faultinject build tag.
	Faults []Fault
	// Deprecated: IngestRing is read by nothing. Every ingest applies and
	// commits in its own handler; the field stays only because perfbench,
	// which may not change with the service, still sets it.
	IngestRing int
	// Deprecated: CoalesceBudget is read by nothing; it stays only because
	// perfbench still sets it (see IngestRing).
	CoalesceBudget int
	// WAL enables durability: every acknowledged ingest batch is appended
	// to this write-ahead log before the response goes out, and New
	// replays the log's recovery state into the registry before returning
	// (see durability.go). The manager must have been Opened with
	// Shards == Config.Shards and the same stream config; its lifecycle
	// belongs to the server once attached — Server.Close checkpoints and
	// closes it. nil keeps the server purely in-memory (the default, and
	// the zero-overhead path: no WAL branch is taken anywhere hot).
	WAL *wal.Manager
	// SnapshotInterval is the period of the background checkpoint loop
	// (snapshot every live stream, truncate the WAL). 0 disables periodic
	// checkpoints — Close still runs a final one. Only meaningful with
	// WAL set.
	SnapshotInterval time.Duration
	// TraceSample enables end-to-end request tracing: every request records
	// a span tree (decode → update → apply → WAL append/fsync → render),
	// and at completion tail-based retention keeps slow/errored/shed/
	// degraded/panicking traces always and 1 in TraceSample ordinary ones.
	// Kept traces are served at /debug/traces. 0 disables tracing entirely
	// (the default — embedded uses pay nothing); negative is invalid.
	TraceSample int
	// TraceStoreBytes hard-caps the in-memory trace store (oldest evicted).
	// 0 picks the trace package default (4 MiB). Only meaningful with
	// TraceSample > 0.
	TraceStoreBytes int64
	// DisableQueryCache turns the version-keyed query cache off: every
	// read takes a fresh snapshot and renders from scratch (json.Marshal,
	// no singleflight, no memoization). It exists for benchmarks — an
	// honest cached-vs-uncached comparison must run both sides through the
	// same handler stack — and for debugging cache suspicion in the field.
	DisableQueryCache bool
	// Tenants declares the multi-tenant QoS policies: per-tenant token
	// buckets, SLO classes and stream quotas (see internal/qos and
	// qos.go). Requests name their tenant via the X-Wcm-Tenant header or
	// ?tenant= query param; untagged and unknown-tenant requests resolve
	// to the default tenant (name "default" — configure a tenant with
	// that name to give the default traffic a policy). Empty leaves every
	// request on an unlimited default tenant.
	Tenants []qos.TenantConfig
	// DefaultSLO is the SLO class for tenants that declare none and for
	// the default tenant: "interactive" (the default), "batch" or
	// "besteffort".
	DefaultSLO string
}

// Server is the wcmd HTTP service: a sharded registry of streams plus the
// request handlers and metrics.
type Server struct {
	cfg     Config
	shards  []*shard
	mux     *http.ServeMux
	metrics *metrics

	logger *slog.Logger
	slow   time.Duration // 0 = slow-request logging disabled
	self   *obs.SelfStream
	tracer *trace.Tracer // nil = tracing off
	scopes sync.Pool     // *reqScope

	// bareCtx skips the per-request context wrap (one http.Request copy
	// per request) when nothing could observe it: no request deadline and
	// a discarding logger. See instrument.
	bareCtx bool

	limIngest *inflightLimiter // nil = unlimited
	limRead   *inflightLimiter // nil = unlimited
	faults    map[string]Fault // nil = no fault injection
	qos       *qosRegistry     // never nil; holds at least the default tenant

	// Durability (nil/zero when Config.WAL == nil; see durability.go).
	wal        *wal.Manager
	closeGate  sync.RWMutex    // durable ingest tails hold it shared; Close exclusively
	closed     bool            // set by Close; guarded by closeGate
	walShards  []*wal.ShardLog // index-aligned with shards
	recovering atomic.Bool
	recovered  recoveryStats
	ckStop     chan struct{} // closes the checkpoint loop
	ckDone     chan struct{} // checkpoint loop exited
}

// Entry registry states (see entry.state). An entry starts live; leaving
// the registry tombstones it, and the tombstone kind decides what a
// racing late writer does: re-register (droppedEmpty — the removal was
// only garbage collection of a ghost) or let go (deleted — the user asked
// for the stream to die, so losing the race to a DELETE is a legal
// ordering).
const (
	entryLive int32 = iota
	entryDroppedEmpty
	entryDeleted
)

// entry pairs a stream with its version-keyed query cache and its
// registry-membership state. state only transitions away from entryLive
// under the owning shard's write lock, so writers that observe a
// tombstone after mutating the stream can resolve the race under that
// same lock (see ensureRegistered).
type entry struct {
	st    *stream.Stream
	cache queryCache
	state atomic.Int32
	// owner is the tenant whose stream quota this entry occupies — the
	// tenant that created it. nil for entries restored by WAL recovery
	// (the creating request's identity is not in the log) and for
	// servers without quotas; such entries count against no one.
	owner *tenantState
}

type shard struct {
	mu      sync.RWMutex
	streams map[string]*entry
}

// New builds a server. The stream defaults are validated eagerly so a bad
// flag fails at startup, not on first ingest.
func New(cfg Config) (*Server, error) {
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("server: shards=%d", cfg.Shards)
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxBodyBytes < 1 {
		return nil, fmt.Errorf("server: max body bytes=%d", cfg.MaxBodyBytes)
	}
	if _, err := stream.New(cfg.Stream); err != nil {
		return nil, fmt.Errorf("server: stream defaults: %w", err)
	}
	if cfg.MaxInflightIngest == 0 {
		cfg.MaxInflightIngest = DefaultMaxInflightIngest
	}
	if cfg.MaxInflightRead == 0 {
		cfg.MaxInflightRead = DefaultMaxInflightRead
	}
	faults, err := buildFaults(cfg.Faults)
	if err != nil {
		return nil, err
	}
	qreg, err := newQoSRegistry(cfg.Tenants, cfg.DefaultSLO)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		shards:    make([]*shard, cfg.Shards),
		mux:       http.NewServeMux(),
		metrics:   newMetrics(endpointNames),
		logger:    cfg.Logger,
		limIngest: newLimiter(cfg.MaxInflightIngest),
		limRead:   newLimiter(cfg.MaxInflightRead),
		faults:    faults,
		qos:       qreg,
	}
	if s.logger == nil {
		s.logger = obs.Discard()
	}
	switch {
	case cfg.SlowRequest == 0:
		s.slow = DefaultSlowRequest
	case cfg.SlowRequest > 0:
		s.slow = cfg.SlowRequest
	}
	if cfg.SelfCurves {
		self, err := obs.NewSelf(stream.Config{})
		if err != nil {
			return nil, fmt.Errorf("server: self stream: %w", err)
		}
		s.self = self
	}
	if cfg.TraceSample < 0 {
		return nil, fmt.Errorf("server: trace sample=%d", cfg.TraceSample)
	}
	if cfg.TraceSample > 0 {
		s.tracer = trace.New(trace.Config{
			SampleN:    cfg.TraceSample,
			StoreBytes: cfg.TraceStoreBytes,
		})
	}
	s.scopes.New = func() any { return new(reqScope) }
	// Tracing needs the request scope reachable from the handler's
	// context, so it forces the context wrap even with no deadline/logger.
	s.bareCtx = cfg.RequestTimeout <= 0 && s.logger == obs.Discard() && s.tracer == nil
	for i := range s.shards {
		s.shards[i] = &shard{streams: make(map[string]*entry)}
	}
	if cfg.WAL != nil {
		if err := s.attachWAL(cfg.WAL); err != nil {
			return nil, err
		}
		if cfg.SnapshotInterval > 0 {
			s.ckStop = make(chan struct{})
			s.ckDone = make(chan struct{})
			go s.checkpointLoop(cfg.SnapshotInterval)
		}
	}
	s.routes()
	return s, nil
}

// endpointNames lists every instrumented route, pre-registering its metrics
// cell in newMetrics. Adding a route means adding its name here — endpoint()
// panics at startup otherwise (see the invariant on metrics).
var endpointNames = []string{
	"ingest", "curves", "check", "minfreq", "contract", "verdict",
	"list", "delete", "stats", "healthz", "metrics", "self", "query",
	"traces", "trace", "tenants",
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/streams/{id}/ingest", s.instrument("ingest", classIngest, s.handleIngest, nil))
	s.mux.HandleFunc("GET /v1/streams/{id}/curves", s.readRoute("curves", epCurves))
	s.mux.HandleFunc("POST /v1/streams/{id}/check", s.readRoute("check", epCheck))
	s.mux.HandleFunc("GET /v1/streams/{id}/minfreq", s.readRoute("minfreq", epMinFreq))
	s.mux.HandleFunc("POST /v1/streams/{id}/contract", s.instrument("contract", classIngest, s.handleContract, nil))
	s.mux.HandleFunc("GET /v1/streams/{id}/verdict", s.readRoute("verdict", epVerdict))
	s.mux.HandleFunc("POST /v1/query", s.instrument("query", classRead, s.handleBatchQuery, nil))
	s.mux.HandleFunc("GET /v1/streams", s.instrument("list", classRead, s.handleList, nil))
	s.mux.HandleFunc("DELETE /v1/streams/{id}", s.instrument("delete", classIngest, s.handleDelete, nil))
	s.mux.HandleFunc("GET /v1/stats", s.instrument("stats", classNone, s.handleStats, nil))
	// classNone: the QoS introspection surface must answer exactly when
	// tenants are being throttled or shed (mirrors /metrics).
	s.mux.HandleFunc("GET /v1/tenants", s.instrument("tenants", classNone, s.handleTenants, nil))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", classNone, s.handleHealthz, nil))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", classNone, s.handleMetrics, nil))
	s.mux.HandleFunc("GET /debug/self", s.instrument("self", classNone, s.handleSelf, nil))
	// classNone: the trace store is the tool for diagnosing overload, so
	// scraping it must never shed (mirrors healthz/metrics).
	s.mux.HandleFunc("GET /debug/traces", s.instrument("traces", classNone, s.handleTraces, nil))
	s.mux.HandleFunc("GET /debug/traces/{id}", s.instrument("trace", classNone, s.handleTraceByID, nil))
	if s.cfg.EnablePprof {
		// Mounted on the service mux (not http.DefaultServeMux) so only
		// this handler serves them, and only when opted in.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// Handler returns the service's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// shardIndex maps a stream id to its registry shard and WAL shard log.
// Inline FNV-1a: byte-for-byte the sequence hash/fnv.New32a produces —
// existing WAL directories partition records by this value, so the mapping
// must never change — without the per-call hasher allocation the interface
// path costs.
func (s *Server) shardIndex(id string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return h % uint32(len(s.shards))
}

func (s *Server) shardFor(id string) *shard {
	return s.shards[s.shardIndex(id)]
}

// get returns the entry for id, or nil.
func (s *Server) get(id string) *entry {
	sh := s.shardFor(id)
	sh.mu.RLock()
	e := sh.streams[id]
	sh.mu.RUnlock()
	return e
}

// getOrCreate returns the entry for id, creating it with the server's
// stream defaults on first use. created reports whether this call made it;
// callers that then fail before any state lands may dropIfEmpty the stream
// so rejected requests don't register ghosts.
//
// Creation is where per-tenant stream quotas bite: the requesting tenant
// (owner; nil skips quota accounting, as for WAL recovery and tests) must
// reserve a quota slot before the entry is registered. The slot is
// reserved with a CAS on the tenant's counter, so concurrent creates
// across shards cannot oversubscribe the quota.
func (s *Server) getOrCreate(id string, owner *tenantState) (e *entry, created bool, err error) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	e = sh.streams[id]
	sh.mu.RUnlock()
	if e != nil {
		return e, false, nil
	}
	if !owner.reserveStream() {
		return nil, false, fmt.Errorf("tenant %q %w (max %d)", owner.name, errStreamQuota, owner.maxStreams)
	}
	st, err := stream.New(s.cfg.Stream) // built outside the shard lock
	if err != nil {
		owner.releaseStream()
		return nil, false, err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.streams[id]; e != nil {
		owner.releaseStream() // lost the creation race; no entry to own
		return e, false, nil
	}
	e = &entry{st: st, owner: owner}
	sh.streams[id] = e
	return e, true, nil
}

// dropIfEmpty removes a just-created stream that was never mutated, so a
// rejected first request doesn't register a ghost. The version check (not
// just Total) also protects entries that carry only a contract.
//
// The removed entry is tombstoned entryDroppedEmpty rather than silently
// forgotten: a concurrent request may have fetched the same entry via
// get()/getOrCreate() before the delete and mutated it right after the
// version check here — without the tombstone those samples would land in
// an orphaned stream invisible to every later read. Such late writers
// detect the tombstone after their mutation and re-register through
// ensureRegistered. The tombstone is stored BEFORE the final version
// check: a writer bumps the version before it looks for the tombstone, and
// both are sequentially consistent atomics, so either this check sees the
// writer's mutation and backs off, or the writer sees the tombstone and
// re-registers. (Checking first and tombstoning second let a writer slip
// its whole mutation and tombstone check in between, losing the stream.)
func (s *Server) dropIfEmpty(id string, e *entry) {
	if e.st.Version() != 0 {
		return
	}
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cur, ok := sh.streams[id]; !ok || cur != e {
		return
	}
	e.state.Store(entryDroppedEmpty)
	if e.st.Version() != 0 {
		e.state.Store(entryLive)
		return
	}
	delete(sh.streams, id)
	e.owner.releaseStream()
}

// ensureRegistered resolves the dropIfEmpty race for a writer that just
// mutated e: if a concurrent dropIfEmpty tombstoned the entry between
// this request's lookup and its mutation, re-register it so the mutation
// stays reachable. Returns an error when re-registration is impossible
// (a different stream now owns the id) — the caller fails the request
// loudly instead of acknowledging samples no read can see. A deleted
// tombstone is left alone: the mutation simply serialized before the
// user's DELETE.
func (s *Server) ensureRegistered(id string, e *entry) error {
	if e.state.Load() != entryDroppedEmpty {
		return nil
	}
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e.state.Load() != entryDroppedEmpty {
		return nil
	}
	if cur, ok := sh.streams[id]; ok && cur != e {
		return fmt.Errorf("stream %q was dropped and re-created concurrently; retry", id)
	}
	sh.streams[id] = e
	e.state.Store(entryLive)
	e.owner.reclaimStream()
	return nil
}

// ---- request/response shapes ---------------------------------------------

type errorResponse struct {
	Error string `json:"error"`
}

type ingestRequest struct {
	T      []int64 `json:"t"`
	Demand []int64 `json:"demand"`
}

type violationJSON struct {
	Start int   `json:"start"`
	Len   int   `json:"len"`
	Sum   int64 `json:"sum"`
	Bound int64 `json:"bound"`
	Upper bool  `json:"upper"`
}

func violationFrom(v *core.Violation) *violationJSON {
	if v == nil {
		return nil
	}
	return &violationJSON{Start: v.Start, Len: v.Len, Sum: v.Sum, Bound: v.Bound, Upper: v.Upper}
}

type ingestResponse struct {
	Accepted   int            `json:"accepted"`
	Total      int64          `json:"total"`
	Violation  *violationJSON `json:"violation,omitempty"`
	Violations int64          `json:"violations"`
	Drift      int64          `json:"drift"`
}

type curvesResponse struct {
	Version  int64   `json:"version"`
	Total    int64   `json:"total"`
	InWindow int     `json:"in_window"`
	Upper    []int64 `json:"upper"`
	Lower    []int64 `json:"lower"`
	DMin     []int64 `json:"dmin"`
	DMax     []int64 `json:"dmax"`
}

type checkRequest struct {
	FreqHz    float64 `json:"freq_hz"`
	LatencyNs int64   `json:"latency_ns"`
	Buffer    int     `json:"buffer"`
}

type checkResponse struct {
	Version int64 `json:"version"`
	OK      bool  `json:"ok"`
}

type minFreqResponse struct {
	Version       int64   `json:"version"`
	GammaHz       float64 `json:"gamma_hz"`
	GammaAtK      int     `json:"gamma_at_k"`
	GammaAtSpanNs int64   `json:"gamma_at_span_ns"`
	WCETHz        float64 `json:"wcet_hz"`
	WCETAtK       int     `json:"wcet_at_k"`
	Saving        float64 `json:"saving"`
	Buffer        int     `json:"buffer"`
}

type contractRequest struct {
	Upper  []int64 `json:"upper"`
	Lower  []int64 `json:"lower"`
	Window int     `json:"window"`
}

type verdictResponse struct {
	Version        int64          `json:"version"`
	Admitted       bool           `json:"admitted"`
	ContractSet    bool           `json:"contract_set"`
	Total          int64          `json:"total"`
	Violations     int64          `json:"violations"`
	FirstViolation *violationJSON `json:"first_violation,omitempty"`
	Drift          int64          `json:"drift"`
}

type streamInfo struct {
	ID       string `json:"id"`
	Total    int64  `json:"total"`
	InWindow int    `json:"in_window"`
}

// ---- decoding -------------------------------------------------------------

// decodeJSON strictly decodes one JSON object from r into dst.
func decodeJSON(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	// Trailing garbage after the object is a client bug; reject it.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return errors.New("trailing data after JSON object")
	}
	return nil
}

// decodeIngestInto parses and structurally validates a JSON ingest batch,
// reusing req's slice capacity (encoding/json appends into the arrays it is
// handed), so a pooled req decodes without per-request column allocations.
func decodeIngestInto(r io.Reader, req *ingestRequest) error {
	req.T, req.Demand = req.T[:0], req.Demand[:0]
	if err := decodeJSON(r, req); err != nil {
		return err
	}
	if len(req.T) == 0 || len(req.Demand) == 0 {
		return errors.New(`"t" and "demand" must both be non-empty`)
	}
	if len(req.T) != len(req.Demand) {
		return fmt.Errorf(`"t" has %d entries, "demand" has %d`, len(req.T), len(req.Demand))
	}
	return nil
}

// decodeIngest parses one JSON ingest batch. Exposed for the fuzz harness:
// it must never panic, whatever bytes arrive.
func decodeIngest(r io.Reader) (ingestRequest, error) {
	var req ingestRequest
	if err := decodeIngestInto(r, &req); err != nil {
		return ingestRequest{}, err
	}
	return req, nil
}

// ---- ingest fast path ------------------------------------------------------

// ingestScratch holds every per-request buffer of the ingest path. One
// instance cycles through scratchPool per request, so the steady state
// allocates neither decode columns nor response bytes.
type ingestScratch struct {
	body []byte        // raw request body
	t, d []int64       // binary-decoded columns
	req  ingestRequest // JSON decode target (column capacity reused)
	out  []byte        // rendered response
}

var scratchPool = sync.Pool{New: func() any {
	return &ingestScratch{body: make([]byte, 0, 4096)}
}}

// readBody reads r to EOF into buf (append semantics — pass a length-0
// pooled buffer).
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// appendIngestResponse renders the violation-free ingest response exactly as
// encoding/json would (field order, omitted nil violation, trailing newline)
// without reflection or allocation.
func appendIngestResponse(dst []byte, res stream.IngestResult) []byte {
	dst = append(dst, `{"accepted":`...)
	dst = strconv.AppendInt(dst, int64(res.Accepted), 10)
	dst = append(dst, `,"total":`...)
	dst = strconv.AppendInt(dst, res.Total, 10)
	dst = append(dst, `,"violations":`...)
	dst = strconv.AppendInt(dst, res.Violations, 10)
	dst = append(dst, `,"drift":`...)
	dst = strconv.AppendInt(dst, res.Drift, 10)
	dst = append(dst, '}', '\n')
	return dst
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	sc := scratchPool.Get().(*ingestScratch)
	defer scratchPool.Put(sc)

	// Stage spans: tDecoded and tUpdated mark the decode→update→render
	// phase boundaries so /metrics separates wire-format cost from
	// curve-maintenance cost from response rendering.
	tStart := time.Now()
	var ts, ds []int64
	var err error
	sc.body, err = readBody(r.Body, sc.body[:0])
	if err == nil {
		if r.Header.Get("Content-Type") == ContentTypeBinary {
			sc.t, sc.d, err = decodeBinaryBatch(sc.body, sc.t[:0], sc.d[:0])
			ts, ds = sc.t, sc.d
			if err == nil {
				s.metrics.binaryBatches.Add(1)
			}
		} else {
			err = unmarshalIngest(sc.body, &sc.req)
			ts, ds = sc.req.T, sc.req.Demand
		}
	}
	tDecoded := time.Now()
	tr := obs.TraceFrom(r.Context())
	s.metrics.closeStage(stageDecode, tr, tr.Root(), tStart, tDecoded)
	if err != nil {
		writeDecodeError(w, err)
		return
	}

	// A request already past its deadline must not start a stream update:
	// the client has given up, and the work would only grow the convoy.
	if r.Context().Err() != nil {
		writeBusy(w, "request deadline exceeded before stream update", retryAfterFloorSeconds)
		return
	}

	id := r.PathValue("id")
	e, created, err := s.getOrCreate(id, s.tenantFor(r))
	if err != nil {
		writeCreateError(w, err)
		return
	}
	if s.faults != nil {
		s.fire("ingest:update", e)
	}
	// The update stage opens here and closes when the tail returns, so it
	// brackets the tail's apply/WAL children: exactly the time the stream
	// update takes from this request's view.
	upd := s.metrics.openStage(stageUpdate, tr, tr.Root(), tDecoded)
	res, code, err := s.ingestTail(r.Context(), id, e, created, ts, ds, tr, upd.ref)
	tUpdated := time.Now()
	upd.end(tUpdated)
	if err != nil {
		writeJSON(w, code, errorResponse{err.Error()})
		return
	}
	// Metrics were counted by the tail; only rendering remains.
	if res.Violation != nil {
		writeJSON(w, http.StatusOK, ingestResponse{
			Accepted:   res.Accepted,
			Total:      res.Total,
			Violation:  violationFrom(res.Violation),
			Violations: res.Violations,
			Drift:      res.Drift,
		})
	} else {
		sc.out = appendIngestResponse(sc.out[:0], res)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(sc.out) //nolint:errcheck // client gone; nothing to do
	}
	s.metrics.closeStage(stageRender, tr, tr.Root(), tUpdated, time.Now())
}

// ingestTail is the one ingest path after decode, run in the handler's own
// goroutine: apply the batch to its stream, then — with durability on —
// append it to the shard's WAL and commit (see durability.go), so the
// handler acknowledges only a durable batch. The apply, wal_append and
// wal_fsync stages nest under parent, the handler's update span. It returns
// the result to render, or the status and error to answer with.
func (s *Server) ingestTail(ctx context.Context, id string, e *entry, created bool, ts, ds []int64, tr *trace.Active, parent trace.SpanRef) (stream.IngestResult, int, error) {
	if s.wal != nil {
		// Close waits for every tail holding the gate before its final
		// checkpoint, and a tail that finds the server closed applies
		// nothing, so that checkpoint never captures a batch whose ack is
		// still undecided.
		s.closeGate.RLock()
		defer s.closeGate.RUnlock()
		if s.closed {
			if created {
				s.dropIfEmpty(id, e)
			}
			return stream.IngestResult{}, http.StatusInternalServerError, errServerClosed
		}
	}
	t0 := time.Now()
	res, err := e.st.Ingest(ts, ds)
	tApplied := time.Now()
	s.metrics.closeStage(stageApply, tr, parent, t0, tApplied)
	if err != nil {
		if created {
			s.dropIfEmpty(id, e)
		}
		return res, http.StatusBadRequest, err
	}
	if err := s.ensureRegistered(id, e); err != nil {
		return res, http.StatusConflict, err
	}
	s.metrics.samples.Add(uint64(res.Accepted))
	s.metrics.batches.Add(1)
	if res.Violation != nil {
		s.metrics.violatingBatches.Add(1)
	}
	if s.wal != nil {
		if err := s.walLog(ctx, id, e, res.Version, ts, ds, tr, parent, tApplied); err != nil {
			return res, http.StatusInternalServerError, err
		}
	}
	return res, 0, nil
}

// unmarshalIngest strictly decodes a JSON ingest body from pre-read bytes
// into a pooled request. A small shim so handleIngest and the fuzz-visible
// decodeIngestInto share one validation path.
func unmarshalIngest(body []byte, req *ingestRequest) error {
	return decodeIngestInto(bytesReader(body), req)
}

// bytesReader adapts a byte slice to io.Reader without the bytes.Reader
// indirection escaping to the heap per request.
func bytesReader(b []byte) io.Reader { return &sliceReader{b: b} }

type sliceReader struct{ b []byte }

func (r *sliceReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

func (s *Server) handleContract(w http.ResponseWriter, r *http.Request) {
	var req contractRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	up, err := curve.NewFinite(req.Upper)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{fmt.Sprintf("upper: %v", err)})
		return
	}
	lo, err := curve.NewFinite(req.Lower)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{fmt.Sprintf("lower: %v", err)})
		return
	}
	// Worked out here, before any stream exists, with the rule SetContract
	// applies, so a refused window creates nothing and the answer names the
	// window actually checked.
	wl := core.Workload{Upper: up, Lower: lo}
	bounds, err := core.NewBounds(wl, req.Window, s.cfg.Stream.Resolved().Window)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	if r.Context().Err() != nil {
		writeBusy(w, "request deadline exceeded before contract update", retryAfterFloorSeconds)
		return
	}
	id := r.PathValue("id")
	e, _, err := s.getOrCreate(id, s.tenantFor(r))
	if err != nil {
		writeCreateError(w, err)
		return
	}
	_ = e.st.SetContract(wl, bounds.Window()) // cannot fail: NewBounds passed this window above
	if err := s.ensureRegistered(id, e); err != nil {
		writeJSON(w, http.StatusConflict, errorResponse{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"window": bounds.Window()})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	// Collect entries under the shard locks, query stream stats after
	// releasing them: Stats takes each stream's own lock, and holding the
	// shard lock across that would stall ingests into sibling streams.
	type idEntry struct {
		id string
		e  *entry
	}
	var entries []idEntry
	for _, sh := range s.shards {
		sh.mu.RLock()
		for id, e := range sh.streams {
			entries = append(entries, idEntry{id, e})
		}
		sh.mu.RUnlock()
	}
	infos := make([]streamInfo, 0, len(entries))
	for _, it := range entries {
		stats := it.e.st.Stats()
		infos = append(infos, streamInfo{ID: it.id, Total: stats.Total, InWindow: stats.InWindow})
	}
	writeJSON(w, http.StatusOK, map[string]any{"streams": infos})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	idx := s.shardIndex(id)
	sh := s.shards[idx]
	tr := obs.TraceFrom(r.Context())
	var walErr error
	var tAppended time.Time
	sh.mu.Lock()
	e, ok := sh.streams[id]
	if ok {
		e.state.Store(entryDeleted)
		delete(sh.streams, id)
		e.owner.releaseStream()
		if s.wal != nil {
			// Under the shard write lock: every ingest append happens under
			// the read lock with a not-deleted check, so no record for this
			// incarnation can follow the tombstone.
			t0 := time.Now()
			walErr = s.walShards[idx].AppendTombstone(id)
			tAppended = time.Now()
			s.metrics.closeStage(stageWALAppend, tr, tr.Root(), t0, tAppended)
		}
	}
	sh.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{"unknown stream"})
		return
	}
	if s.wal != nil {
		if walErr == nil {
			walErr = s.commitUnit(idx, tr, tr.Root(), tAppended)
		}
		if walErr != nil {
			// The in-memory delete already happened; surface that durability
			// did not — a recovery could resurrect this stream.
			writeJSON(w, http.StatusInternalServerError,
				errorResponse{fmt.Sprintf("stream deleted but wal tombstone failed: %v", walErr)})
			return
		}
		if err := s.walShards[idx].RemoveSnapshot(id); err != nil {
			writeJSON(w, http.StatusInternalServerError,
				errorResponse{fmt.Sprintf("stream deleted but snapshot removal failed: %v", err)})
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// ---- observability endpoints ------------------------------------------------

type healthResponse struct {
	Status        string          `json:"status"`
	UptimeSeconds float64         `json:"uptime_seconds"`
	GoVersion     string          `json:"go_version"`
	Version       string          `json:"version"`
	Revision      string          `json:"revision"`
	Durability    *durabilityJSON `json:"durability,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	b := s.metrics.build
	resp := healthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.metrics.start).Seconds(),
		GoVersion:     b.goVersion,
		Version:       b.version,
		Revision:      b.revision,
		Durability:    s.durabilityStatus(),
	}
	status := http.StatusOK
	if s.Recovering() {
		// Readiness, not liveness: hold traffic until WAL replay has every
		// acknowledged batch back.
		resp.Status = "recovering"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// ---- plumbing --------------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// writeBusy is the answer of last resort on a read or ingest path that ran
// out of deadline budget with nothing cached to fall back on: 503 with a
// Retry-After hint (seconds, clamped like every other hint).
func writeBusy(w http.ResponseWriter, msg string, hint int) {
	w.Header().Set("Retry-After", retryAfterValue(hint))
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{msg})
}

// writeCreateError maps getOrCreate failures: a tenant stream-quota
// rejection is the client's standing, not a server fault — 429, no
// Retry-After (quota slots free only when the tenant deletes streams);
// anything else stays a 500.
func writeCreateError(w http.ResponseWriter, err error) {
	if errors.Is(err, errStreamQuota) {
		writeJSON(w, http.StatusTooManyRequests, errorResponse{err.Error()})
		return
	}
	writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
}

// writeDecodeError maps body-decoding failures to 413 (body too large) or
// 400 (malformed input).
func writeDecodeError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorResponse{fmt.Sprintf("body exceeds %d bytes", tooBig.Limit)})
		return
	}
	writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
}

// statusRecorder captures the response code for metrics, and whether any
// part of the response reached the wire — the recovery path may still send
// a clean 500 only while nothing has been written.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(p)
}

// reqScope bundles every per-request observability cell — status recorder,
// obs.Request scope and its context carrier — so instrument recycles all of
// them through one pool Get/Put. Handlers must not retain w or r.Context()
// past their return (none do; the contract is stated on obs.Request too).
type reqScope struct {
	rec statusRecorder
	req obs.Request
	ctx obs.RequestContext
}

// maxTraceIDLen bounds accepted client X-Request-Id values; longer ones are
// replaced so a hostile client can't bloat every log line.
const maxTraceIDLen = 64

// traceIDOK reports whether a client-supplied X-Request-Id is safe to echo
// and log: non-empty, bounded, and printable ASCII only. CR/LF would split
// log lines and (for paranoid clients of the echoed header) open header
// injection; control bytes and non-ASCII would corrupt the text /metrics
// and log streams. Anything unacceptable is replaced wholesale — there is
// no value in sanitizing a hostile ID char by char.
func traceIDOK(id string) bool {
	if id == "" || len(id) > maxTraceIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; c < 0x20 || c > 0x7e {
			return false
		}
	}
	return true
}

// shedFunc is a shed/throttle fallback handler: it answers a request that
// was refused admission, carrying the Retry-After hint (seconds) computed
// from the pressure that refused it.
type shedFunc func(w http.ResponseWriter, r *http.Request, hint int)

// instrument wraps a handler with the body-size limit, the resilience
// envelope and the per-request observability envelope.
//
// Resilience: the endpoint class picks an in-flight limiter — when it
// sheds, the shed fallback runs instead of h (or a plain 429 when the
// endpoint has none); Config.RequestTimeout > 0 attaches a deadline to the
// request context; the handler runs inside a recover barrier (see
// serveRecovered) so a panic answers 500 instead of killing the
// connection's goroutine state. Shed and recovered requests flow through
// the same accounting below, so the histogram-totals == request-counter
// invariants hold for them too.
//
// QoS: shed-able requests (classIngest, classRead) resolve their tenant
// and pass two admission gates in order — the tenant's own token bucket
// (reject ⇒ throttled, Retry-After from the refill deficit), then the
// class limiter at the tenant's SLO threshold (reject ⇒ shed, Retry-After
// from shed pressure). Rejected reads run the shed fallback, which may
// still answer 200 from cache — counted as degraded, the
// mixed-criticality outcome. classNone endpoints skip all of it: the
// observability plane must answer even for a throttled tenant.
//
// Observability: trace-ID propagation (client X-Request-Id kept when it
// passes traceIDOK, otherwise generated; always echoed on the response), a
// request-scoped logger reachable via obs.LoggerFrom(r.Context()),
// per-endpoint and per-tenant request/error/latency accounting,
// self-characterization feed, and slow-request logging. When the declared
// Content-Length already fits the limit the MaxBytesReader wrapper is
// skipped — net/http bounds body reads by the declared length, so the
// limit cannot be exceeded and the per-request wrapper allocation is pure
// overhead.
func (s *Server) instrument(name string, class epClass, h http.HandlerFunc, shed shedFunc) http.HandlerFunc {
	ep := s.metrics.endpoint(name)
	point := "handler:" + name // fault point, concatenated once
	var lim *inflightLimiter
	className := "read"
	switch class {
	case classIngest:
		lim, className = s.limIngest, "ingest"
	case classRead:
		lim = s.limRead
	}
	if shed == nil {
		cn := className
		shed = func(w http.ResponseWriter, r *http.Request, hint int) { writeShed(w, cn, hint) }
	}
	// The trace endpoints themselves stay out of the self-curves feed:
	// scraping the trace store is observer traffic, and letting it into the
	// service's own demand curves would make /debug/self describe the
	// debugging session instead of the workload (healthz/metrics get no such
	// carve-out because their cost IS steady-state serving work).
	feedSelf := name != "traces" && name != "trace"
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if r.Body != nil && (r.ContentLength < 0 || r.ContentLength > s.cfg.MaxBodyBytes) {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		id := r.Header.Get("X-Request-Id")
		if !traceIDOK(id) {
			id = obs.NewTraceID()
		}
		setHeaderValue(w.Header(), "X-Request-Id", id)
		var ten *tenantState
		decision := admitOK
		if class != classNone {
			ten = s.tenantFor(r)
		}
		var tr *trace.Active
		if s.tracer != nil {
			tr = s.tracer.StartRequest(name, id, r.Header.Get("traceparent"), start)
			// Echo W3C trace context on every response — including shed,
			// degraded and panic answers, whose headers are already set here.
			setHeaderValue(w.Header(), "Traceparent", tr.Traceparent())
			if ten != nil {
				tr.Root().Str("tenant", ten.name).Str("slo", ten.slo.String())
			}
		}

		handler := h
		if ten != nil {
			// Admission, in order: the tenant's own rate budget first — a
			// throttled tenant must not consume an in-flight slot — then the
			// class limiter at the tenant's SLO threshold.
			var hint int
			if ten.bucket != nil {
				if ok, deficit := ten.bucket.Take(start.UnixNano()); !ok {
					decision, hint = admitThrottled, retrySecsFromNs(deficit)
				}
			}
			if decision == admitOK {
				if lim.acquireFor(ten.slo) {
					defer lim.release() // deferred: must pair even when h panics
				} else {
					decision, hint = admitShed, lim.shedHint()
				}
			}
			switch {
			case decision == admitThrottled && class == classIngest:
				// Mutations have no degraded answer; reject outright.
				tn, secs := ten.name, hint
				handler = func(w http.ResponseWriter, _ *http.Request) {
					writeThrottled(w, tn, secs)
				}
			case decision != admitOK:
				// Reads fall back to the degraded cached path whether
				// throttled or shed — serving stale bytes costs the server
				// almost nothing and keeps low-criticality readers alive.
				sf, secs := shed, hint
				handler = func(w http.ResponseWriter, r *http.Request) { sf(w, r, secs) }
			}
			if tr != nil && decision != admitOK {
				tr.Root().Str("admission", decision.String())
				tr.Mark(trace.KeepDegraded)
			}
		}

		sc := s.scopes.Get().(*reqScope)
		sc.rec.ResponseWriter, sc.rec.status, sc.rec.wrote = w, http.StatusOK, false
		sc.req.Reset(id, name, s.logger)
		sc.req.Trace = tr
		if !s.bareCtx {
			// The context wrap copies the request (WithContext allocates a
			// fresh http.Request). With no deadline to attach and a logger
			// that discards everything, nothing can observe the wrap —
			// obs.LoggerFrom falls back to the same discarding logger — so
			// the bare-context fast path skips it entirely.
			ctx := r.Context()
			if s.cfg.RequestTimeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
				defer cancel()
			}
			sc.ctx.Reset(ctx, &sc.req)
			r = r.WithContext(&sc.ctx)
		}

		s.serveRecovered(name, point, handler, &sc.rec, r, &sc.req)
		d := time.Since(start)

		status := sc.rec.status
		ep.observe(d, status)
		if ten != nil {
			ten.account(decision, status, d)
		}
		if s.self != nil && feedSelf {
			s.self.Observe(d)
		}
		slow := s.slow > 0 && d >= s.slow
		if tr != nil {
			s.metrics.traceSpans.Observe(int64(tr.SpanCount()))
			sc.req.Trace = nil // Finish may pool the trace; drop the alias first
			s.tracer.Finish(tr, status, d, slow)
		}
		switch {
		case slow:
			sc.req.Logger().LogAttrs(r.Context(), slog.LevelWarn, "slow request",
				slog.String("method", r.Method), slog.String("path", r.URL.Path),
				slog.Int("status", status), obs.DurationSeconds(d))
		case s.logger.Enabled(r.Context(), slog.LevelDebug):
			// Access log at Debug — the Enabled check keeps the hot path
			// free of the logger derivation unless someone is listening.
			sc.req.Logger().LogAttrs(r.Context(), slog.LevelDebug, "request",
				slog.String("method", r.Method), slog.String("path", r.URL.Path),
				slog.Int("status", status), obs.DurationSeconds(d))
		}

		sc.rec.ResponseWriter = nil
		sc.req.Reset("", "", nil)
		sc.ctx.Reset(nil, nil)
		s.scopes.Put(sc)
	}
}

// serveRecovered runs h inside the panic barrier: a handler panic is
// logged at Error with the request's trace ID, the panic value and the
// stack, counted in wcmd_panics_total, and answered with a clean 500 when
// nothing has reached the wire yet (when headers are already out the
// connection is past saving — the status is recorded as 500 for metrics
// and net/http closes the stream). http.ErrAbortHandler is re-raised: it
// is the sanctioned way to abort a connection, not a defect.
func (s *Server) serveRecovered(name, point string, h http.HandlerFunc, rec *statusRecorder, r *http.Request, req *obs.Request) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if p == http.ErrAbortHandler { //nolint:errorlint // sentinel identity per net/http contract
			panic(p)
		}
		s.metrics.panics.Add(1)
		req.Trace.Mark(trace.KeepPanic)
		req.Logger().LogAttrs(r.Context(), slog.LevelError, "handler panic",
			slog.String("endpoint", name),
			slog.String("panic", fmt.Sprint(p)),
			slog.String("stack", string(debug.Stack())))
		if !rec.wrote {
			writeJSON(rec, http.StatusInternalServerError, errorResponse{"internal server error"})
		} else {
			rec.status = http.StatusInternalServerError
		}
	}()
	if s.faults != nil {
		s.fire(point, nil)
	}
	h(rec, r)
}
