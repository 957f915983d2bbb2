package obs

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"wcm/internal/obs/trace"
)

// ---- logger construction ----------------------------------------------------

// NewLogger builds a slog.Logger writing to w in the requested format
// ("json" for machine-shipped structured lines, "text" for humans) at the
// given level.
func NewLogger(format string, level slog.Level, w io.Writer) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf(`obs: log format %q (want "json" or "text")`, format)
	}
}

// ParseLevel maps a flag string to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: log level %q (want debug|info|warn|error)", s)
}

// discardHandler drops every record. Implemented here (rather than relying
// on newer-stdlib discard handlers) so the package needs nothing beyond the
// module's Go baseline.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

var discardLogger = slog.New(discardHandler{})

// Discard returns a logger that drops everything — the default for servers
// constructed without an explicit logger (tests, benchmarks).
func Discard() *slog.Logger { return discardLogger }

// ---- trace IDs --------------------------------------------------------------

// Trace IDs are "<8-hex process prefix>-<16-hex counter>": unique within a
// process by the atomic counter, distinguishable across restarts by the
// random prefix, and cheap — no syscall or crypto on the request path.
var (
	tracePrefix = newTracePrefix()
	traceSeq    atomic.Uint64
)

func newTracePrefix() string {
	var b [4]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// No entropy source: fall back to the clock; uniqueness within the
		// process still holds via the counter.
		binary.LittleEndian.PutUint32(b[:], uint32(time.Now().UnixNano()))
	}
	return hex.EncodeToString(b[:])
}

// NewTraceID returns a fresh request trace ID. One string allocation.
func NewTraceID() string {
	var buf [25]byte // 8 prefix + '-' + 16 counter
	copy(buf[:8], tracePrefix)
	buf[8] = '-'
	seq := traceSeq.Add(1)
	const hexdig = "0123456789abcdef"
	for i := 0; i < 16; i++ {
		buf[9+i] = hexdig[(seq>>(60-4*i))&0xf]
	}
	return string(buf[:])
}

// ---- request scope ----------------------------------------------------------

// Request is the per-request observability scope: the trace ID and endpoint
// name plus a lazily derived request-scoped logger. Instances are meant to
// be pooled by the HTTP layer — Reset clears all state — so they must not
// be retained past the request (don't hand the context to goroutines that
// outlive the handler).
type Request struct {
	ID       string // trace ID (propagated X-Request-Id or generated)
	Endpoint string // route name the request resolved to

	// Trace is the request's span tree when tracing is enabled, nil
	// otherwise. Handlers reach it via TraceFrom; the HTTP layer owns its
	// lifecycle (StartRequest/Finish).
	Trace *trace.Active

	// Settled and SettleRebuilt describe the curve settle a traced read
	// paid for (stream samples caught up, and whether the backlog forced a
	// rebuild), gathered while resolving so the resolve span can carry them.
	Settled       int
	SettleRebuilt bool

	base    *slog.Logger // service logger
	derived *slog.Logger // base.With(trace/endpoint), built on first Logger()
}

// Reset re-initializes a (possibly pooled) scope for a new request.
func (r *Request) Reset(id, endpoint string, base *slog.Logger) {
	r.ID, r.Endpoint, r.base, r.derived = id, endpoint, base, nil
	r.Trace = nil
	r.Settled, r.SettleRebuilt = 0, false
}

// Logger returns the request-scoped logger: the service logger with
// trace_id and endpoint attrs attached. Derivation (which allocates) is
// deferred until a handler actually logs, so the happy path pays nothing.
func (r *Request) Logger() *slog.Logger {
	if r.derived == nil {
		base := r.base
		if base == nil {
			base = discardLogger
		}
		r.derived = base.With(
			slog.String("trace_id", r.ID),
			slog.String("endpoint", r.Endpoint),
		)
	}
	return r.derived
}

type ctxKey struct{}

// NewContext attaches the request scope to ctx.
func NewContext(ctx context.Context, r *Request) context.Context {
	return context.WithValue(ctx, ctxKey{}, r)
}

// RequestContext is a poolable alternative to NewContext: a context carrying
// a request scope without the per-request context.WithValue allocation. The
// HTTP layer embeds one in its pooled per-request state, Resets it around
// each request, and hands &rc to http.Request.WithContext. FromContext and
// LoggerFrom resolve through it transparently. Like Request, it must not
// outlive the request it was Reset for.
type RequestContext struct {
	context.Context          // the request's base context
	Req             *Request // scope returned for lookups via FromContext
}

// Reset points the carrier at a new base context and scope. Call
// Reset(nil, nil) before pooling to drop references.
func (c *RequestContext) Reset(base context.Context, r *Request) {
	c.Context, c.Req = base, r
}

// Value returns the request scope for the package's key and defers every
// other lookup to the base context.
func (c *RequestContext) Value(key any) any {
	if _, ok := key.(ctxKey); ok {
		return c.Req
	}
	return c.Context.Value(key)
}

// FromContext returns the request scope, or nil when the context carries
// none (direct handler invocation in tests).
func FromContext(ctx context.Context) *Request {
	r, _ := ctx.Value(ctxKey{}).(*Request)
	return r
}

// TraceFrom returns the request's active trace, or nil when the context
// carries no scope or tracing is off. The nil return composes with the
// trace package's nil-safe methods, so handlers record spans
// unconditionally.
func TraceFrom(ctx context.Context) *trace.Active {
	if r := FromContext(ctx); r != nil {
		return r.Trace
	}
	return nil
}

// LoggerFrom returns the request-scoped logger from ctx, or a discarding
// logger when the context carries no scope — handlers can log
// unconditionally.
func LoggerFrom(ctx context.Context) *slog.Logger {
	if r := FromContext(ctx); r != nil {
		return r.Logger()
	}
	return discardLogger
}

// DurationSeconds renders d as seconds with millisecond precision — the
// one latency attr format used across the service's log lines.
func DurationSeconds(d time.Duration) slog.Attr {
	return slog.String("duration", strconv.FormatFloat(d.Seconds(), 'f', 6, 64)+"s")
}
