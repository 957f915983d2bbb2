package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptrace"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wcm/internal/server"
	"wcm/internal/wirefmt"
)

// outcome classifies one request's end.
type outcome uint8

const (
	outOK       outcome = iota // 200 with an answer that passed its checks
	outDegraded                // 200 served from a stale cached answer
	outRefused                 // 429, or 404 for a stream wcmd never accepted (quota)
	outFailed                  // transport error, 5xx or an unexpected status
	outTimeout                 // no answer within the client timeout
	outWrong                   // 200 whose answer contradicts the acknowledged state
	outSkipped                 // never sent: the phase hit its hard stop first
)

// ackState is the generator's record of what wcmd acknowledged on one
// stream. A stream is only ever touched by its pinned connection, so no
// locking is needed while a phase runs.
type ackState struct {
	batches int64      // acknowledged ingest batches (= stream version)
	samples int64      // acknowledged samples
	ranges  [][2]int64 // acknowledged sample ranges [off, off+n) in order
	unknown bool       // a request on the stream ended without an answer
}

// result is one request's timeline, relative to its phase start.
type result struct {
	due, sent, ttfb, done time.Duration
	decode                time.Duration
	kind                  opKind
	bin                   bool
	src                   uint8
	out                   outcome
	bytes                 int32
}

// span is one traced interval; spans of one request share req.
type span struct {
	Req    uint32 `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const clientTimeout = 10 * time.Second

// client drives wcmd over nconn keep-alive connections, one goroutine each.
type client struct {
	g      *generator
	addr   string
	acks   []ackState
	conns  []*conn
	trace  bool
	spans  []span
	reqSeq uint32
	mu     sync.Mutex   // guards spans, reqSeq
	diag   atomic.Int32 // non-200 answers logged so far
}

type conn struct {
	hc     *http.Client
	body   []byte
	ts, ds []int64
	resp   bytes.Buffer
}

func newClient(g *generator, addr string, nconn int) *client {
	cl := &client{g: g, addr: addr, acks: make([]ackState, len(g.streams))}
	for i := 0; i < nconn; i++ {
		cl.conns = append(cl.conns, &conn{hc: &http.Client{
			Timeout: clientTimeout,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
			},
		}})
	}
	return cl
}

// retarget points the client at a restarted wcmd, keeping its records.
func (cl *client) retarget(addr string) {
	cl.addr = addr
	cl.close()
}

func (cl *client) close() {
	for _, c := range cl.conns {
		c.hc.CloseIdleConnections()
	}
}

// run sends sched open loop: every op leaves at its due time, or as soon
// as its connection is free when that is later. Ops still unsent at
// hardStop are recorded as skipped.
func (cl *client) run(sched [][]op, hardStop time.Duration) []result {
	out := make([][]result, len(sched))
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for i := range sched {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cl.conns[i]
			res := make([]result, 0, len(sched[i]))
			for j := range sched[i] {
				o := &sched[i][j]
				sleepUntil(start.Add(o.due))
				if time.Since(start) > hardStop {
					for _, o := range sched[i][j:] {
						res = append(res, result{due: o.due, kind: o.kind, src: o.src, out: outSkipped})
					}
					break
				}
				res = append(res, cl.do(c, o, start))
			}
			out[i] = res
		}(i)
	}
	wg.Wait()
	var all []result
	for _, r := range out {
		all = append(all, r...)
	}
	return all
}

// sleepUntil blocks until t with nanosleep: the runtime's timers wake up
// to a millisecond late on Linux, which would read as request latency.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR: the loop sleeps the rest
	}
}

var checkBody = []byte(`{"freq_hz":50000000,"latency_ns":20000,"buffer":2}`)

// request builds op o's HTTP request.
func (cl *client) request(c *conn, o *op) (*http.Request, error) {
	url := "http://" + cl.addr + "/v1/streams/" + cl.g.streams[o.stream].id
	method, ctype := http.MethodGet, ""
	var body []byte
	switch o.kind {
	case opIngest:
		method, url, ctype = http.MethodPost, url+"/ingest", server.ContentTypeBinary
		m := &cl.g.streams[o.stream]
		c.ts, c.ds = m.appendSamples(cl.g.pools, o.off, int(o.n), c.ts[:0], c.ds[:0])
		c.body = wirefmt.AppendBatch(c.body[:0], c.ts, c.ds)
		body = c.body
	case opCurves:
		url += "/curves"
	case opCheck:
		method, url, ctype, body = http.MethodPost, url+"/check", "application/json", checkBody
	case opMinFreq:
		url += "/minfreq?b=2"
	case opVerdict:
		url += "/verdict"
	case opQuery:
		method, url, ctype = http.MethodPost, "http://"+cl.addr+"/v1/query", "application/json"
		b := append(c.body[:0], `{"ids":[`...)
		for i, id := range o.ids {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, cl.g.streams[id].id)
		}
		c.body = append(b, `],"verdict":true,"minfreq_b":2,"check":{"freq_hz":50000000,"buffer":2}}`...)
		body = c.body
	}
	var req *http.Request
	var err error
	if body != nil {
		req, err = http.NewRequest(method, url, bytes.NewReader(body))
	} else {
		req, err = http.NewRequest(method, url, nil)
	}
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if o.bin {
		req.Header.Set("Accept", server.ContentTypeQueryBinary)
	}
	if t := cl.g.w.sources[o.src].tenant; t != "" {
		req.Header.Set("X-Wcm-Tenant", t)
	}
	return req, nil
}

func (cl *client) do(c *conn, o *op, start time.Time) result {
	r := result{due: o.due, kind: o.kind, bin: o.bin, src: o.src}
	req, err := cl.request(c, o)
	if err != nil {
		r.out = outFailed
		return r
	}
	var ttfb time.Time
	if cl.trace {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotFirstResponseByte: func() { ttfb = time.Now() },
		}))
	}
	r.sent = time.Since(start)
	resp, err := c.hc.Do(req)
	if err == nil {
		c.resp.Reset()
		_, err = c.resp.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	r.done = time.Since(start)
	if err != nil {
		r.out = outFailed
		if isTimeout(err) {
			r.out = outTimeout
		}
		cl.markUnknown(o)
		return r
	}
	if !ttfb.IsZero() {
		r.ttfb = ttfb.Sub(start)
	}
	r.bytes = int32(c.resp.Len())
	t0 := time.Now()
	r.out = cl.classify(o, resp, c.resp.Bytes())
	r.decode = time.Since(t0)
	if cl.trace {
		cl.record(r)
	}
	return r
}

func isTimeout(err error) bool {
	var te interface{ Timeout() bool }
	return errors.As(err, &te) && te.Timeout()
}

func (cl *client) markUnknown(o *op) {
	if o.kind == opIngest {
		cl.acks[o.stream].unknown = true
	}
}

// record turns a finished request into its span tree: the request from due
// to done, split into the wait for its connection, the HTTP exchange up to
// the first response byte, the body read, and the answer's decode/check.
func (cl *client) record(r result) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.reqSeq++
	id := cl.reqSeq
	name := "request." + kindNames[r.kind]
	cl.spans = append(cl.spans,
		span{Req: id, Name: name, Start: int64(r.due), End: int64(r.done + r.decode)},
		span{Req: id, Name: "gen.wait", Parent: name, Start: int64(r.due), End: int64(r.sent)},
		span{Req: id, Name: "client.http", Parent: name, Start: int64(r.sent), End: int64(r.ttfb)},
		span{Req: id, Name: "client.body", Parent: name, Start: int64(r.ttfb), End: int64(r.done)},
		span{Req: id, Name: "client.decode", Parent: name, Start: int64(r.done), End: int64(r.done + r.decode)},
	)
}

// classify checks one answered request against the acknowledged state and
// records acknowledged ingests.
func (cl *client) classify(o *op, resp *http.Response, body []byte) outcome {
	st := &cl.acks[o.stream]
	if resp.StatusCode != http.StatusOK && cl.diag.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "%s %s: status %d: %.200s\n", kindNames[o.kind], cl.g.streams[o.stream].id, resp.StatusCode, body)
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return outRefused
	case resp.StatusCode == http.StatusNotFound && o.kind != opIngest && st.samples == 0:
		return outRefused // the stream was never accepted (stream quota)
	case resp.StatusCode != http.StatusOK:
		return outFailed
	case resp.Header.Get("X-Wcm-Degraded") == "true":
		return outDegraded
	}
	if o.kind == opIngest {
		var ack struct {
			Accepted int   `json:"accepted"`
			Total    int64 `json:"total"`
		}
		if json.Unmarshal(body, &ack) != nil || ack.Accepted != int(o.n) || ack.Total != st.samples+int64(o.n) {
			st.unknown = true
			return outWrong
		}
		st.batches++
		st.samples += int64(o.n)
		st.ranges = append(st.ranges, [2]int64{o.off, o.off + int64(o.n)})
		return outOK
	}
	if err := cl.checkRead(o, st, body); err != nil {
		fmt.Fprintf(os.Stderr, "wrong answer: %s %s: %v\n", kindNames[o.kind], cl.g.streams[o.stream].id, err)
		return outWrong
	}
	return outOK
}

// checkRead verifies a single-stream read names the stream version and
// totals the acknowledged ingests imply (a batch query only its shape: its
// other streams belong to other connections).
func (cl *client) checkRead(o *op, st *ackState, body []byte) error {
	var version, total int64 = -1, -1
	switch o.kind {
	case opCurves:
		if o.bin {
			c, err := wirefmt.DecodeCurves(body)
			if err != nil {
				return err
			}
			version, total = c.Version, c.Total
		} else {
			var c curvesJSON
			if err := json.Unmarshal(body, &c); err != nil {
				return err
			}
			version, total = c.Version, c.Total
		}
	case opCheck:
		if o.bin {
			c, err := wirefmt.DecodeCheck(body)
			if err != nil {
				return err
			}
			version = c.Version
		} else {
			var c checkJSON
			if err := json.Unmarshal(body, &c); err != nil {
				return err
			}
			version = c.Version
		}
	case opMinFreq:
		if o.bin {
			m, err := wirefmt.DecodeMinFreq(body)
			if err != nil {
				return err
			}
			version = m.Version
		} else {
			var m minFreqJSON
			if err := json.Unmarshal(body, &m); err != nil {
				return err
			}
			version = m.Version
		}
	case opVerdict:
		var v verdictJSON
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		version, total = v.Version, v.Total
	case opQuery:
		var q struct {
			Streams []struct {
				ID string `json:"id"`
			} `json:"streams"`
		}
		if err := json.Unmarshal(body, &q); err != nil {
			return err
		}
		if len(q.Streams) != len(o.ids) {
			return fmt.Errorf("%d answers for %d ids", len(q.Streams), len(o.ids))
		}
		for i, s := range q.Streams {
			if s.ID != cl.g.streams[o.ids[i]].id {
				return fmt.Errorf("answer %d names %q", i, s.ID)
			}
		}
		return nil
	}
	if st.unknown {
		return nil
	}
	if version != st.batches {
		return fmt.Errorf("version %d, acknowledged batches %d", version, st.batches)
	}
	if total >= 0 && total != st.samples {
		return fmt.Errorf("total %d, acknowledged samples %d", total, st.samples)
	}
	return nil
}
