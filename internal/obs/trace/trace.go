// Package trace is a zero-dependency, allocation-disciplined request
// tracer. Each request records a span tree into a fixed-size slab owned by
// the trace (no per-span allocation, no locks on the hot path); at request
// end the tracer applies tail-based retention — anomalous traces (slow,
// errored, shed, degraded, panicked) are always kept, ordinary traces are
// counter-sampled 1-in-N — and a kept trace, compacted to the spans it
// recorded, lands in a sharded lock-free ring store whose slot count a
// hard byte cap fixes (oldest evicted).
//
// The package deliberately does not import the rest of internal/obs (obs
// embeds a *trace.Active in its per-request scope, so the dependency runs
// the other way), and imports nothing beyond the standard library.
package trace

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Defaults. SampleN is the 1-in-N keep rate for ordinary (non-anomalous)
// traces; StoreBytes bounds retained trace memory; MaxSpans bounds the
// per-trace slab (spans past the cap are counted, not recorded).
const (
	DefaultSampleN    = 64
	DefaultStoreBytes = 4 << 20
	DefaultMaxSpans   = 48

	// MaxAttrs is the per-span attribute capacity. Attributes past it are
	// silently ignored — spans carry a handful of integers, not payloads.
	MaxAttrs = 4
)

// KeepReason says why a finished trace was retained. Reasons are a bitmask:
// a slow request that also panicked carries both.
type KeepReason uint32

const (
	KeepSampled  KeepReason = 1 << iota // won the 1-in-N counter sample
	KeepSlow                            // exceeded the slow-request threshold
	KeepError                           // status >= 400
	KeepShed                            // 429/503 overload answer
	KeepDegraded                        // served a degraded fallback
	KeepPanic                           // handler or worker panicked
)

// String renders the bitmask as a comma-joined list ("slow,error").
func (k KeepReason) String() string {
	if k == 0 {
		return "none"
	}
	names := [...]struct {
		bit  KeepReason
		name string
	}{
		{KeepSampled, "sampled"}, {KeepSlow, "slow"}, {KeepError, "error"},
		{KeepShed, "shed"}, {KeepDegraded, "degraded"}, {KeepPanic, "panic"},
	}
	var b []byte
	for _, n := range names {
		if k&n.bit != 0 {
			if len(b) > 0 {
				b = append(b, ',')
			}
			b = append(b, n.name...)
		}
	}
	return string(b)
}

// Attr is one span attribute: a small integer or a short string.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsStr bool
}

// Span is one timed operation within a trace. Times are nanosecond offsets
// from the trace start so a span tree renders without clock bookkeeping.
// IDs are 1-based slab indices; Parent 0 means "child of nothing" and only
// the root carries it.
type Span struct {
	Name    string
	ID      int32
	Parent  int32
	StartNs int64
	DurNs   int64 // -1 while the span is open
	NAttr   int32
	Attrs   [MaxAttrs]Attr
}

// Active is a trace being recorded (and, once kept, the stored immutable
// result). The span slab is fixed while recording; concurrent goroutines
// claim slots with a CAS on n, then write their slot exclusively, so
// recording is lock-free and the handler/worker pair never contend.
type Active struct {
	spans   []Span // while recording len == cap == maxSpans, slots [0,n) in use; once kept, the n spans only
	n       atomic.Int32
	dropped atomic.Int32 // spans refused because the slab was full
	marks   atomic.Uint32

	start    time.Time
	reqID    string
	endpoint string
	status   int
	durNs    int64
	keep     KeepReason
	szBytes  int64 // set at store insert

	hi, lo      uint64 // W3C trace-id halves
	spanID      uint64 // our span-id, echoed in the response traceparent
	remoteSpan  uint64 // parent span-id from an accepted incoming traceparent
	remote      bool   // trace-id was accepted from the caller
	remoteFlags byte
}

// SpanRef is a handle to one span of one trace. The zero value (and any
// ref minted after the slab filled) is inert: End and attribute setters
// no-op, so call sites never branch on "is tracing on".
type SpanRef struct {
	t   *Active
	idx int32
}

func (s SpanRef) valid() bool { return s.t != nil && s.idx >= 0 }

// ID returns the span's 1-based ID, or 0 for an inert ref.
func (s SpanRef) ID() int32 {
	if !s.valid() {
		return 0
	}
	return s.idx + 1
}

// Root returns a ref to the request's root span.
func (t *Active) Root() SpanRef {
	if t == nil {
		return SpanRef{}
	}
	return SpanRef{t, 0}
}

// alloc claims the next free span slot, or reports the slab full.
func (t *Active) alloc() (int32, bool) {
	for {
		n := t.n.Load()
		if int(n) >= len(t.spans) {
			t.dropped.Add(1)
			return 0, false
		}
		if t.n.CompareAndSwap(n, n+1) {
			return n, true
		}
	}
}

// StartAt opens a span under parent beginning at the given instant. The
// caller must EndAt it (or abandon it; open spans render with duration -1).
func (t *Active) StartAt(name string, parent SpanRef, at time.Time) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	idx, ok := t.alloc()
	if !ok {
		return SpanRef{t, -1}
	}
	t.spans[idx] = Span{
		Name:    name,
		ID:      idx + 1,
		Parent:  parent.ID(),
		StartNs: at.Sub(t.start).Nanoseconds(),
		DurNs:   -1,
	}
	return SpanRef{t, idx}
}

// RecordAt records a closed span in one call — the common shape when the
// caller already holds both timestamps.
func (t *Active) RecordAt(name string, parent SpanRef, start, end time.Time) SpanRef {
	s := t.StartAt(name, parent, start)
	s.EndAt(end)
	return s
}

// EndAt closes the span at the given instant.
func (s SpanRef) EndAt(at time.Time) {
	if !s.valid() {
		return
	}
	sp := &s.t.spans[s.idx]
	sp.DurNs = at.Sub(s.t.start).Nanoseconds() - sp.StartNs
}

// Int attaches an integer attribute; ignored past MaxAttrs.
func (s SpanRef) Int(key string, v int64) SpanRef {
	if s.valid() {
		if sp := &s.t.spans[s.idx]; sp.NAttr < MaxAttrs {
			sp.Attrs[sp.NAttr] = Attr{Key: key, Int: v}
			sp.NAttr++
		}
	}
	return s
}

// Str attaches a string attribute; ignored past MaxAttrs.
func (s SpanRef) Str(key, v string) SpanRef {
	if s.valid() {
		if sp := &s.t.spans[s.idx]; sp.NAttr < MaxAttrs {
			sp.Attrs[sp.NAttr] = Attr{Key: key, Str: v, IsStr: true}
			sp.NAttr++
		}
	}
	return s
}

// Mark records an anomaly (panic, degraded fallback) that forces retention
// at Finish. Safe on a nil trace and from any goroutine.
func (t *Active) Mark(r KeepReason) {
	if t == nil {
		return
	}
	for {
		old := t.marks.Load()
		if old&uint32(r) == uint32(r) || t.marks.CompareAndSwap(old, old|uint32(r)) {
			return
		}
	}
}

// Read-side accessors. Valid on a stored (finished) trace; Spans of a
// still-active trace returns the slots recorded so far.

func (t *Active) ReqID() string           { return t.reqID }
func (t *Active) Endpoint() string        { return t.endpoint }
func (t *Active) Status() int             { return t.status }
func (t *Active) Keep() KeepReason        { return t.keep }
func (t *Active) Start() time.Time        { return t.start }
func (t *Active) Duration() time.Duration { return time.Duration(t.durNs) }
func (t *Active) Remote() bool            { return t.remote }
func (t *Active) DroppedSpans() int       { return int(t.dropped.Load()) }
func (t *Active) SpanCount() int          { return int(t.n.Load()) }
func (t *Active) Spans() []Span           { return t.spans[:t.n.Load()] }

// TraceIDHex returns the 32-hex W3C trace-id.
func (t *Active) TraceIDHex() string {
	var b [32]byte
	putHex(b[:16], t.hi)
	putHex(b[16:], t.lo)
	return string(b[:])
}

// Traceparent renders the response traceparent header: our span-id under
// the trace-id (accepted from the caller or freshly minted), sampled flag
// set.
func (t *Active) Traceparent() string {
	return FormatTraceparent(t.hi, t.lo, t.spanID)
}

// size estimates a kept trace's retained footprint: the header, its
// compacted span slice (the recorded spans only, see compact) and the
// strings it references. Span names and attr keys are static literals
// shared across traces, so only per-request strings are charged.
func (t *Active) size() int64 {
	sz := int64(unsafe.Sizeof(*t)) + int64(cap(t.spans))*int64(unsafe.Sizeof(Span{}))
	sz += int64(len(t.reqID) + len(t.endpoint))
	for i := range t.Spans() {
		sp := &t.spans[i]
		for j := int32(0); j < sp.NAttr; j++ {
			if sp.Attrs[j].IsStr {
				sz += int64(len(sp.Attrs[j].Str))
			}
		}
	}
	return sz
}

// reset clears per-request state so the trace can be pooled.
func (t *Active) reset() {
	for i := range t.Spans() {
		t.spans[i] = Span{}
	}
	t.n.Store(0)
	t.dropped.Store(0)
	t.marks.Store(0)
	t.start = time.Time{}
	t.reqID, t.endpoint = "", ""
	t.status, t.durNs, t.keep, t.szBytes = 0, 0, 0, 0
	t.hi, t.lo, t.spanID, t.remoteSpan = 0, 0, 0, 0
	t.remote, t.remoteFlags = false, 0
}

// Config parameterizes a Tracer. Zero fields take the package defaults.
type Config struct {
	// SampleN keeps 1 in SampleN ordinary traces (anomalous traces are
	// always kept). 1 keeps everything.
	SampleN int
	// StoreBytes is the hard cap on retained trace memory. It fixes the
	// store's slot count at one full-slab trace per slot; kept traces
	// hold only their recorded spans, so a full store holds far less.
	StoreBytes int64
	// MaxSpans bounds each trace's span slab.
	MaxSpans int
}

// Tracer owns the sampling decision, the trace pool, and the bounded store.
type Tracer struct {
	sampleN  uint64
	maxSpans int
	pool     sync.Pool
	store    *store

	idHi  uint64        // random per-process trace-id high half
	idSeq atomic.Uint64 // low-half / span-id counter

	seq       atomic.Uint64 // ordinary-trace counter driving 1-in-N
	kept      atomic.Uint64
	dropped   atomic.Uint64
	sampled   atomic.Uint64
	truncated atomic.Uint64
}

// New builds a Tracer. SampleN <= 0 and other zero fields default.
func New(cfg Config) *Tracer {
	if cfg.SampleN <= 0 {
		cfg.SampleN = DefaultSampleN
	}
	if cfg.StoreBytes <= 0 {
		cfg.StoreBytes = DefaultStoreBytes
	}
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = DefaultMaxSpans
	}
	tr := &Tracer{
		sampleN:  uint64(cfg.SampleN),
		maxSpans: cfg.MaxSpans,
		idHi:     randomUint64(),
	}
	tr.store = newStore(cfg.StoreBytes, estTraceBytes(cfg.MaxSpans))
	tr.pool.New = func() any {
		return &Active{spans: make([]Span, cfg.MaxSpans)}
	}
	return tr
}

func randomUint64() uint64 {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return uint64(time.Now().UnixNano())
	}
	return binary.LittleEndian.Uint64(b[:])
}

// estTraceBytes is the sizing estimate used to derive store slot counts
// from the byte cap: slab plus fixed header plus a generous string budget.
func estTraceBytes(maxSpans int) int64 {
	return int64(unsafe.Sizeof(Active{})) +
		int64(maxSpans)*int64(unsafe.Sizeof(Span{})) + 256
}

// StartRequest begins a trace for a request. traceparent, when well formed,
// donates the trace-id and remote parent; otherwise fresh IDs are minted.
// The returned trace is pooled — the caller must hand it to Finish exactly
// once.
func (tr *Tracer) StartRequest(endpoint, reqID, traceparent string, at time.Time) *Active {
	t := tr.pool.Get().(*Active)
	t.start = at
	t.reqID = reqID
	t.endpoint = endpoint
	if hi, lo, parent, flags, ok := ParseTraceparent(traceparent); ok {
		t.hi, t.lo, t.remoteSpan, t.remoteFlags, t.remote = hi, lo, parent, flags, true
	} else {
		t.hi = tr.idHi
		t.lo = tr.idSeq.Add(1)
	}
	t.spanID = tr.idHi ^ tr.idSeq.Add(1)
	if t.spanID == 0 {
		t.spanID = 1 // W3C forbids the all-zero parent-id
	}
	t.spans[0] = Span{Name: "request", ID: 1, DurNs: -1}
	t.n.Store(1)
	return t
}

// Finish closes the trace and applies tail-based retention: marks plus the
// slow/error/shed status classification force a keep; otherwise the
// ordinary-trace counter keeps 1-in-SampleN. Kept traces become immutable
// and enter the store (true is returned); dropped ones are pooled for
// reuse.
func (tr *Tracer) Finish(t *Active, status int, d time.Duration, slow bool) bool {
	if t == nil {
		return false
	}
	t.status = status
	t.durNs = d.Nanoseconds()
	t.spans[0].DurNs = t.durNs
	tr.truncated.Add(uint64(t.dropped.Load()))

	keep := KeepReason(t.marks.Load())
	if slow {
		keep |= KeepSlow
	}
	if status == 429 || status == 503 {
		keep |= KeepShed
	}
	if status >= 400 {
		keep |= KeepError
	}
	if keep == 0 {
		if tr.seq.Add(1)%tr.sampleN == 0 {
			keep = KeepSampled
			tr.sampled.Add(1)
		} else {
			tr.dropped.Add(1)
			t.reset()
			tr.pool.Put(t)
			return false
		}
	}
	t.keep = keep
	tr.compact(t)
	t.szBytes = t.size()
	tr.kept.Add(1)
	tr.store.insert(t)
	return true
}

// compact trims a kept trace to the spans it recorded: t gets an
// exact-size copy of spans[:n], and its slab, cleared, goes back to the
// pool under a fresh Active. The store then pins no unused span, and the
// next request reuses the slab instead of allocating one. No reader has
// seen t yet, so the swap needs no synchronization.
func (tr *Tracer) compact(t *Active) {
	slab := t.spans
	n := t.n.Load()
	t.spans = make([]Span, n)
	copy(t.spans, slab[:n])
	clear(slab[:n])
	tr.pool.Put(&Active{spans: slab})
}

// Counters and store accounting for the wcmd_trace_* metric family.

func (tr *Tracer) Kept() uint64           { return tr.kept.Load() }
func (tr *Tracer) Dropped() uint64        { return tr.dropped.Load() }
func (tr *Tracer) Sampled() uint64        { return tr.sampled.Load() }
func (tr *Tracer) TruncatedSpans() uint64 { return tr.truncated.Load() }
func (tr *Tracer) Evicted() uint64        { return tr.store.evicted.Load() }
func (tr *Tracer) StoreBytes() int64      { return tr.store.bytes.Load() }
func (tr *Tracer) StoreLimit() int64      { return tr.store.limit }

// Traces snapshots the stored traces, newest first.
func (tr *Tracer) Traces() []*Active { return tr.store.snapshot() }

// Lookup returns the newest stored trace whose request ID matches, or nil.
func (tr *Tracer) Lookup(reqID string) *Active { return tr.store.lookup(reqID) }
