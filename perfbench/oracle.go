package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"time"

	"wcm/internal/arrival"
	"wcm/internal/curve"
	"wcm/internal/kernel"
	"wcm/internal/netcalc"
	"wcm/internal/server"
	"wcm/internal/service"
	"wcm/internal/stream"
	"wcm/internal/wirefmt"
)

// The JSON answer shapes, field for field in wcmd's order, so that
// marshaling the oracle's values reproduces wcmd's bytes exactly.
type curvesJSON struct {
	Version  int64   `json:"version"`
	Total    int64   `json:"total"`
	InWindow int     `json:"in_window"`
	Upper    []int64 `json:"upper"`
	Lower    []int64 `json:"lower"`
	DMin     []int64 `json:"dmin"`
	DMax     []int64 `json:"dmax"`
}

type checkJSON struct {
	Version int64 `json:"version"`
	OK      bool  `json:"ok"`
}

type minFreqJSON struct {
	Version       int64   `json:"version"`
	GammaHz       float64 `json:"gamma_hz"`
	GammaAtK      int     `json:"gamma_at_k"`
	GammaAtSpanNs int64   `json:"gamma_at_span_ns"`
	WCETHz        float64 `json:"wcet_hz"`
	WCETAtK       int     `json:"wcet_at_k"`
	Saving        float64 `json:"saving"`
	Buffer        int     `json:"buffer"`
}

type verdictJSON struct {
	Version     int64 `json:"version"`
	Admitted    bool  `json:"admitted"`
	ContractSet bool  `json:"contract_set"`
	Total       int64 `json:"total"`
	Violations  int64 `json:"violations"`
	Drift       int64 `json:"drift"`
}

// The oracle's check and minfreq parameters, matching checkBody and the
// ?b=2 of every generated minfreq read.
const (
	oracleFreqHz    = 50_000_000
	oracleLatencyNs = 20_000
	oracleBuffer    = 2
)

// expected is what wcmd must answer for one stream, recomputed from the
// acknowledged samples with kernel, arrival and netcalc directly.
type expected struct {
	curves  curvesJSON
	check   checkJSON
	minfreq minFreqJSON
	verdict verdictJSON
}

func (cl *client) expect(id int) (expected, error) {
	st := &cl.acks[id]
	m := &cl.g.streams[id]
	var ts, ds []int64
	for _, r := range st.ranges {
		ts, ds = m.appendSamples(cl.g.pools, r[0], int(r[1]-r[0]), ts, ds)
	}
	// wcmd runs with its default stream geometry.
	inWin := min(int64(len(ts)), stream.DefaultWindow)
	ts, ds = ts[int64(len(ts))-inWin:], ds[int64(len(ds))-inWin:]
	effK := int(min(inWin, stream.DefaultMaxK))

	prefix := make([]int64, len(ds)+1)
	for i, d := range ds {
		prefix[i+1] = prefix[i] + d
	}
	up, lo, err := kernel.Extract(prefix, effK, kernel.Options{})
	if err != nil {
		return expected{}, err
	}
	spans, maxSpans, err := arrival.ExtractSpans(ts, effK)
	if err != nil {
		return expected{}, err
	}
	var e expected
	e.curves = curvesJSON{Version: st.batches, Total: st.samples, InWindow: int(inWin),
		Upper: up, Lower: lo, DMin: spans, DMax: maxSpans}
	e.verdict = verdictJSON{Version: st.batches, Admitted: true, Total: st.samples}

	gammaU, err := curve.NewFinite(up)
	if err != nil {
		return expected{}, err
	}
	beta, err := service.RateLatency(oracleFreqHz, oracleLatencyNs)
	if err != nil {
		return expected{}, err
	}
	ok, err := netcalc.CheckServiceConstraint(spans, beta, gammaU, oracleBuffer)
	if err != nil {
		return expected{}, err
	}
	e.check = checkJSON{Version: st.batches, OK: ok}
	cmp, err := netcalc.CompareFrequencies(spans, gammaU, oracleBuffer)
	if err != nil {
		return expected{}, err
	}
	e.minfreq = minFreqJSON{Version: st.batches, GammaHz: cmp.Gamma.Hz, GammaAtK: cmp.Gamma.AtK,
		GammaAtSpanNs: cmp.Gamma.AtSpanNs, WCETHz: cmp.WCET.Hz, WCETAtK: cmp.WCET.AtK,
		Saving: cmp.Saving, Buffer: oracleBuffer}
	return e, nil
}

// oracleStreams picks the streams the oracle recomputes: the eight with
// the most acknowledged samples plus every eighth stream, skipping streams
// with fewer than two samples or an unanswered ingest.
func (cl *client) oracleStreams() []int {
	var ids []int
	for i, st := range cl.acks {
		if st.samples >= 2 && !st.unknown {
			ids = append(ids, i)
		}
	}
	sort.SliceStable(ids, func(a, b int) bool { return cl.acks[ids[a]].samples > cl.acks[ids[b]].samples })
	var out []int
	for i, id := range ids {
		if i < 8 || id%8 == 0 {
			out = append(out, id)
		}
	}
	return out
}

// oracleReport counts what the oracle compared.
type oracleReport struct {
	Streams  int      `json:"streams"`
	Answers  int      `json:"answers"`
	Degraded int      `json:"degraded"`
	Errors   []string `json:"errors,omitempty"`
}

func (r *oracleReport) fail(format string, args ...any) {
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// verify asks wcmd every query kind in both encodings for the oracle's
// streams and compares: JSON byte for byte, binary value for value.
// Degraded answers are counted and not compared.
func (cl *client) verify() oracleReport {
	hc := &http.Client{Timeout: clientTimeout}
	defer hc.CloseIdleConnections()
	var rep oracleReport
	for _, id := range cl.oracleStreams() {
		rep.Streams++
		e, err := cl.expect(id)
		if err != nil {
			rep.fail("%s: oracle: %v", cl.g.streams[id].id, err)
			continue
		}
		name := cl.g.streams[id].id
		tenant := cl.g.w.sources[cl.g.streams[id].src].tenant
		get := func(method, path string, body []byte, bin bool) ([]byte, bool) {
			req, err := http.NewRequest(method, "http://"+cl.addr+"/v1/streams/"+name+path, bytes.NewReader(body))
			if err != nil {
				rep.fail("%s%s: %v", name, path, err)
				return nil, false
			}
			if bin {
				req.Header.Set("Accept", server.ContentTypeQueryBinary)
			}
			if tenant != "" {
				req.Header.Set("X-Wcm-Tenant", tenant)
			}
			var resp *http.Response
			for try := 0; ; try++ {
				if body != nil {
					req.Body = io.NopCloser(bytes.NewReader(body))
				}
				resp, err = hc.Do(req)
				if err != nil {
					rep.fail("%s%s: %v", name, path, err)
					return nil, false
				}
				if resp.StatusCode != http.StatusTooManyRequests || try == 50 {
					break
				}
				// A tenant over its token bucket: wait for a refill.
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained only to reuse the connection
				resp.Body.Close()
				time.Sleep(20 * time.Millisecond)
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				rep.fail("%s%s: status %d: %s %v", name, path, resp.StatusCode, b, err)
				return nil, false
			}
			rep.Answers++
			if resp.Header.Get("X-Wcm-Degraded") == "true" {
				rep.Degraded++
				return nil, false
			}
			return b, true
		}
		sameJSON := func(path string, got []byte, want any) {
			w, err := json.Marshal(want)
			if err != nil {
				rep.fail("%s%s: %v", name, path, err)
				return
			}
			if !bytes.Equal(got, append(w, '\n')) {
				rep.fail("%s%s: JSON differs from the oracle:\n got  %.300s\n want %.300s", name, path, got, w)
			}
		}
		if b, ok := get(http.MethodGet, "/curves", nil, false); ok {
			sameJSON("/curves", b, e.curves)
		}
		if b, ok := get(http.MethodGet, "/curves", nil, true); ok {
			c, err := wirefmt.DecodeCurves(b)
			w := e.curves
			if err != nil || c.Version != w.Version || c.Total != w.Total || c.InWindow != w.InWindow ||
				!slices.Equal(c.Upper, w.Upper) || !slices.Equal(c.Lower, w.Lower) ||
				!slices.Equal(c.DMin, w.DMin) || !slices.Equal(c.DMax, w.DMax) {
				rep.fail("%s/curves binary differs from the oracle (err %v)", name, err)
			}
		}
		if b, ok := get(http.MethodPost, "/check", checkBody, false); ok {
			sameJSON("/check", b, e.check)
		}
		if b, ok := get(http.MethodPost, "/check", checkBody, true); ok {
			c, err := wirefmt.DecodeCheck(b)
			if err != nil || c.Version != e.check.Version || c.OK != e.check.OK {
				rep.fail("%s/check binary differs from the oracle (err %v)", name, err)
			}
		}
		if b, ok := get(http.MethodGet, "/minfreq?b=2", nil, false); ok {
			sameJSON("/minfreq", b, e.minfreq)
		}
		if b, ok := get(http.MethodGet, "/minfreq?b=2", nil, true); ok {
			m, err := wirefmt.DecodeMinFreq(b)
			w := e.minfreq
			if err != nil || m.Version != w.Version || !sameFloat(m.GammaHz, w.GammaHz) ||
				m.GammaAtK != w.GammaAtK || m.GammaAtSpanNs != w.GammaAtSpanNs ||
				!sameFloat(m.WCETHz, w.WCETHz) || m.WCETAtK != w.WCETAtK ||
				!sameFloat(m.Saving, w.Saving) || m.Buffer != w.Buffer {
				rep.fail("%s/minfreq binary differs from the oracle (err %v)", name, err)
			}
		}
		if b, ok := get(http.MethodGet, "/verdict", nil, false); ok {
			sameJSON("/verdict", b, e.verdict)
		}
	}
	if rep.Streams == 0 {
		rep.fail("no stream had acknowledged samples to verify")
	}
	return rep
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
