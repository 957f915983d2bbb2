package server

import (
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"wcm/internal/stream"
	"wcm/internal/wirefmt"
)

// Response rendering for the cached query path. Misses render into pooled
// scratch buffers and copy into an exact-size cached body — two allocations
// per miss (body + cachedResp), zero per hit — instead of the json.Marshal
// reflection walk and its garbage. The hand-rolled JSON renderers are
// byte-for-byte identical to renderJSON (encoding/json field order, float
// formatting, trailing newline); TestUncachedServerBitIdentical holds them
// to that.

// renderPool recycles render scratch buffers across misses.
var renderPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// finishResp copies the rendered bytes in b into an exact-size cached body
// and returns buf's backing array to the pool. b must be the (possibly
// grown) slice that started as (*buf)[:0].
func finishResp(status int, buf *[]byte, b []byte, version int64, binary bool) *cachedResp {
	body := make([]byte, len(b))
	copy(body, b)
	*buf = b[:0]
	renderPool.Put(buf)
	return &cachedResp{status: status, body: body, version: version, binary: binary}
}

// jsonFloatOK reports whether encoding/json could encode f at all; NaN and
// ±Inf make json.Marshal fail, which renderJSON maps to a 500 — callers
// fall back to it so that (unreachable in practice) behavior is preserved.
func jsonFloatOK(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// appendJSONFloat appends f exactly as encoding/json renders a float64:
// shortest round-trip form, 'f' format unless the magnitude calls for
// exponent form, with Go's two-digit exponent padding stripped back to
// JSON's ("e-09" → "e-9"). f must satisfy jsonFloatOK.
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendJSONInt64s appends a []int64 as encoding/json does: null for a nil
// slice, [] for an empty one.
func appendJSONInt64s(dst []byte, vs []int64) []byte {
	if vs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, v, 10)
	}
	return append(dst, ']')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as an encoding/json string literal, including
// the HTML-safe escaping of <, > and & that json.Marshal applies by
// default, U+FFFD replacement of invalid UTF-8, and the U+2028/U+2029
// escapes.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// ---- response renderers ----------------------------------------------------

// renderCurvesResp renders a /curves answer from snap in the requested
// format into a pooled buffer.
func renderCurvesResp(snap stream.Snapshot, binary bool) *cachedResp {
	buf := renderPool.Get().(*[]byte)
	b := (*buf)[:0]
	upper := snap.Workload.Upper.Values()
	lower := snap.Workload.Lower.Values()
	if binary {
		b = wirefmt.AppendCurves(b, wirefmt.Curves{
			Version:  snap.Version,
			Total:    snap.Total,
			InWindow: snap.InWindow,
			Upper:    upper,
			Lower:    lower,
			DMin:     snap.Spans,
			DMax:     snap.MaxSpans,
		})
		return finishResp(http.StatusOK, buf, b, snap.Version, true)
	}
	b = append(b, `{"version":`...)
	b = strconv.AppendInt(b, snap.Version, 10)
	b = append(b, `,"total":`...)
	b = strconv.AppendInt(b, snap.Total, 10)
	b = append(b, `,"in_window":`...)
	b = strconv.AppendInt(b, int64(snap.InWindow), 10)
	b = append(b, `,"upper":`...)
	b = appendJSONInt64s(b, upper)
	b = append(b, `,"lower":`...)
	b = appendJSONInt64s(b, lower)
	b = append(b, `,"dmin":`...)
	b = appendJSONInt64s(b, snap.Spans)
	b = append(b, `,"dmax":`...)
	b = appendJSONInt64s(b, snap.MaxSpans)
	b = append(b, '}', '\n')
	return finishResp(http.StatusOK, buf, b, snap.Version, false)
}

// renderCheckResp renders a /check answer in the requested format.
func renderCheckResp(version int64, ok, binary bool) *cachedResp {
	buf := renderPool.Get().(*[]byte)
	b := (*buf)[:0]
	if binary {
		b = wirefmt.AppendCheck(b, version, ok)
		return finishResp(http.StatusOK, buf, b, version, true)
	}
	b = append(b, `{"version":`...)
	b = strconv.AppendInt(b, version, 10)
	if ok {
		b = append(b, `,"ok":true}`...)
	} else {
		b = append(b, `,"ok":false}`...)
	}
	b = append(b, '\n')
	return finishResp(http.StatusOK, buf, b, version, false)
}

// renderMinFreqResp renders a /minfreq answer in the requested format.
// Non-finite floats (unreachable for real curve data) fall back to
// renderJSON so the behavior matches encoding/json exactly.
func renderMinFreqResp(m minFreqResponse, binary bool) *cachedResp {
	if binary {
		buf := renderPool.Get().(*[]byte)
		b := wirefmt.AppendMinFreq((*buf)[:0], wirefmt.MinFreq{
			Version:       m.Version,
			GammaHz:       m.GammaHz,
			GammaAtK:      m.GammaAtK,
			GammaAtSpanNs: m.GammaAtSpanNs,
			WCETHz:        m.WCETHz,
			WCETAtK:       m.WCETAtK,
			Saving:        m.Saving,
			Buffer:        m.Buffer,
		})
		return finishResp(http.StatusOK, buf, b, m.Version, true)
	}
	if !jsonFloatOK(m.GammaHz) || !jsonFloatOK(m.WCETHz) || !jsonFloatOK(m.Saving) {
		resp := renderJSON(http.StatusOK, m)
		resp.version = m.Version
		return resp
	}
	buf := renderPool.Get().(*[]byte)
	b := (*buf)[:0]
	b = append(b, `{"version":`...)
	b = strconv.AppendInt(b, m.Version, 10)
	b = append(b, `,"gamma_hz":`...)
	b = appendJSONFloat(b, m.GammaHz)
	b = append(b, `,"gamma_at_k":`...)
	b = strconv.AppendInt(b, int64(m.GammaAtK), 10)
	b = append(b, `,"gamma_at_span_ns":`...)
	b = strconv.AppendInt(b, m.GammaAtSpanNs, 10)
	b = append(b, `,"wcet_hz":`...)
	b = appendJSONFloat(b, m.WCETHz)
	b = append(b, `,"wcet_at_k":`...)
	b = strconv.AppendInt(b, int64(m.WCETAtK), 10)
	b = append(b, `,"saving":`...)
	b = appendJSONFloat(b, m.Saving)
	b = append(b, `,"buffer":`...)
	b = strconv.AppendInt(b, int64(m.Buffer), 10)
	b = append(b, '}', '\n')
	return finishResp(http.StatusOK, buf, b, m.Version, false)
}

// ---- fast request parsing --------------------------------------------------

// queryScratch holds the pooled per-request buffers of the query read path.
type queryScratch struct {
	body []byte
	// req lives here so taking its address (the decodeJSON fallback needs
	// one) never forces a fresh heap escape on the hit path.
	req checkRequest
}

var queryScratchPool = sync.Pool{New: func() any {
	return &queryScratch{body: make([]byte, 0, 256)}
}}

func isJSONSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// parseCheckBody parses the common shape of a /check body —
// {"freq_hz":N,"latency_ns":N,"buffer":N}, any field order, integer values
// only — without an encoding/json Decoder or any allocation. It accepts a
// strict subset of what decodeJSON accepts (integer mantissas up to 2^53,
// which convert to float64 exactly); anything else — floats with a point or
// exponent, unknown fields, malformed bytes — returns false and the caller
// falls back to decodeJSON, preserving its exact semantics and error text.
func parseCheckBody(b []byte, req *checkRequest) bool {
	i, n := 0, len(b)
	skip := func() {
		for i < n && isJSONSpace(b[i]) {
			i++
		}
	}
	skip()
	if i >= n || b[i] != '{' {
		return false
	}
	i++
	skip()
	if i < n && b[i] == '}' {
		i++
	} else {
		for {
			// "key":
			if i >= n || b[i] != '"' {
				return false
			}
			start := i + 1
			i = start
			for i < n && b[i] != '"' {
				if b[i] == '\\' {
					return false
				}
				i++
			}
			if i >= n {
				return false
			}
			key := b[start:i]
			i++
			skip()
			if i >= n || b[i] != ':' {
				return false
			}
			i++
			skip()
			// integer value
			neg := false
			if i < n && b[i] == '-' {
				neg = true
				i++
			}
			vs := i
			var v int64
			for i < n && b[i] >= '0' && b[i] <= '9' {
				v = v*10 + int64(b[i]-'0')
				if v > 1<<53 {
					return false
				}
				i++
			}
			if i == vs {
				return false
			}
			// Reject leading zeros ("01") and anything that continues the
			// number ('.', 'e', 'E') — the strict decoder must judge those.
			if i-vs > 1 && b[vs] == '0' {
				return false
			}
			if i < n && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
				return false
			}
			if neg {
				v = -v
			}
			switch string(key) { // compiles to an allocation-free comparison
			case "freq_hz":
				req.FreqHz = float64(v)
			case "latency_ns":
				req.LatencyNs = v
			case "buffer":
				req.Buffer = int(v)
			default:
				return false
			}
			skip()
			if i < n && b[i] == ',' {
				i++
				skip()
				continue
			}
			if i < n && b[i] == '}' {
				i++
				break
			}
			return false
		}
	}
	skip()
	return i == n
}

// decodeCheckRequest reads and parses a /check body through the pooled fast
// path, falling back to the strict JSON decoder for anything unusual.
func decodeCheckRequest(r *http.Request, sc *queryScratch, req *checkRequest) error {
	var err error
	sc.body, err = readBody(r.Body, sc.body[:0])
	if err != nil {
		return err
	}
	// Reset first: req is pooled, and a field the body omits must read
	// zero, not the previous request's value.
	*req = checkRequest{}
	if parseCheckBody(sc.body, req) {
		return nil
	}
	*req = checkRequest{}
	return decodeJSON(bytesReader(sc.body), req)
}

// minfreqB extracts the ?b= query parameter (default 1). ok=false means the
// value is invalid and the caller must answer 400. The common "b=N" form is
// parsed in place; anything more elaborate (multiple params, escapes) goes
// through net/url.
func minfreqB(r *http.Request) (b int, ok bool) {
	q := r.URL.RawQuery
	if q == "" {
		return 1, true
	}
	if len(q) > 2 && q[0] == 'b' && q[1] == '=' {
		v := 0
		fast := true
		for i := 2; i < len(q); i++ {
			c := q[i]
			if c < '0' || c > '9' || v > 1<<31 {
				fast = false
				break
			}
			v = v*10 + int(c-'0')
		}
		if fast {
			return v, true
		}
	}
	qs := r.URL.Query().Get("b")
	if qs == "" {
		return 1, true
	}
	v, err := strconv.Atoi(qs)
	if err != nil || v < 0 {
		return 0, false
	}
	return v, true
}

// acceptsBinary reports whether the request negotiated the binary query
// response encoding. Exact match covers governor-style pollers; the
// Contains fallback tolerates composite Accept values without allocating.
func acceptsBinary(r *http.Request) bool {
	a := r.Header.Get("Accept")
	if a == "" {
		return false
	}
	return a == ContentTypeQueryBinary || strings.Contains(a, ContentTypeQueryBinary)
}

// setHeaderValue is Header().Set without the per-call []string allocation
// when the map already holds a single-value slice for key (reused response
// recorders in benchmarks and tests). key must already be in canonical
// form. On a fresh header map it allocates exactly what Set would.
func setHeaderValue(h http.Header, key, value string) {
	if vs, ok := h[key]; ok && len(vs) == 1 {
		vs[0] = value
		return
	}
	h[key] = []string{value}
}
