// Command benchjson measures the repository's two hot paths and writes the
// results as JSON, so the perf trajectory is tracked file-to-file across PRs
// (BENCH_extract.json):
//
//   - extraction: the fused, blocked, pool-parallel kernel vs the naive
//     pre-kernel algorithm (workload curves, span tables, admissibility);
//   - serving: the wcmd ingest and query paths, at stream level and through
//     the real HTTP handler — JSON vs binary ingest encoding, cached vs
//     uncached query answering, single stream vs sharded streams — repeated
//     for each requested GOMAXPROCS value (-procs), with the value recorded
//     per result so single-core and multi-core groups stay distinguishable.
//
// benchjson is also the CI perf regression guard: given -baseline (the
// committed BENCH_extract.json), it fails if ingest-path allocs/op grew more
// than -max-alloc-growth over the baseline, or ingest-path ns/op grew more
// than -max-latency-growth; -max-binary-allocs bounds the binary HTTP ingest
// path absolutely; -assert-scaling requires the sharded ingest group at the
// largest -procs value to beat the same group at the smallest by that factor
// — the multicore scaling floor (skipped on hosts with fewer than 4 CPUs,
// where there is no parallelism to measure); -assert-query-cache requires
// the 95/5 read-heavy mix to run at least that many times faster with the
// query cache than without it; -max-hit-allocs bounds the cache-hit path's
// allocations absolutely; -max-trace-overhead bounds the fractional latency
// cost of default-rate tracing (ingest_http_binary_traced vs
// ingest_http_binary at GOMAXPROCS=1); -max-qos-overhead bounds the cost
// configured tenants impose on untagged ingest (ingest_http_binary_qos vs
// ingest_http_binary). Both overheads are median ratios over interleaved
// rounds of the three groups, so host drift cancels instead of landing on
// one side of a one-shot comparison. -assert-qos-isolation requires the
// quiet tenant in the isolation bench to keep at least that admitted
// fraction while the noisy tenant is throttled. -procs groups larger than
// the host's CPU count are skipped with a note — oversubscribed numbers
// measure scheduler churn.
//
// The HTTP benches run with Config.SelfCurves enabled and send X-Request-Id,
// so the measured path is the fully instrumented one: trace-ID propagation,
// latency histograms, stage spans and the self-characterization feed.
//
// Usage:
//
//	benchjson [-out BENCH_extract.json] [-n 40000] [-maxk 4000]
//	          [-mintime 300ms] [-procs 1,4,32] [-baseline BENCH_extract.json]
//	          [-max-alloc-growth 0.20] [-max-binary-allocs 8]
//	          [-max-latency-growth 0.10] [-assert-scaling 1.5]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"wcm/internal/arrival"
	"wcm/internal/core"
	"wcm/internal/events"
	"wcm/internal/kernel"
	"wcm/internal/qos"
	"wcm/internal/server"
	"wcm/internal/stream"
	"wcm/internal/wal"
)

// Measurement is one benchmark's outcome.
type Measurement struct {
	Name        string  `json:"name"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
	// SamplesPerSec is set for the ingest group only: demand samples
	// absorbed per second of wall time.
	SamplesPerSec float64 `json:"samples_per_sec,omitempty"`
}

// Report is the BENCH_extract.json schema.
type Report struct {
	GeneratedAt string             `json:"generated_at"`
	GoVersion   string             `json:"go_version"`
	NumCPU      int                `json:"num_cpu"`
	Params      Params             `json:"params"`
	Results     []Measurement      `json:"results"`
	Speedups    map[string]float64 `json:"speedups"`
}

// Params records the instance size the numbers were taken at.
type Params struct {
	N          int   `json:"n"`
	MaxK       int   `json:"max_k"`
	MinTimeMs  int64 `json:"min_time_ms"`
	KernelSeqT int64 `json:"kernel_seq_threshold"`
}

// options collects the flag surface of run.
type options struct {
	n, maxK            int
	minTime            time.Duration
	out                string
	procs              []int
	baseline           string  // prior BENCH_extract.json to guard against; "" disables
	maxAllocGrowth     float64 // allowed fractional allocs/op growth over baseline
	maxBinaryAllocs    float64 // absolute allocs/op bound for ingest_http_binary; 0 disables
	maxLatencyGrowth   float64 // allowed fractional ns/op growth over baseline; 0 disables
	assertScaling      float64 // required sharded samples/s ratio, largest vs smallest procs group; 0 disables
	assertQueryCache   float64 // required query_mixed_uncached/cached ratio; 0 disables
	maxHitAllocs       float64 // absolute allocs/op bound for query_check_cached at GOMAXPROCS=1; 0 disables
	maxTraceOverhead   float64 // allowed fractional traced-vs-untraced ingest latency growth at GOMAXPROCS=1; 0 disables
	maxQosOverhead     float64 // allowed fractional untagged-ingest latency growth with tenants configured, at GOMAXPROCS=1; 0 disables
	assertQosIsolation float64 // required fraction of quiet-tenant requests admitted while a noisy tenant is throttled; 0 disables
}

// measure times fn until minTime has elapsed (at least once) and reports
// per-op wall time and allocation figures from the runtime's counters,
// stamped with the GOMAXPROCS it ran under.
func measure(name string, minTime time.Duration, fn func()) Measurement {
	fn() // warm-up: page in, reach pooled-buffer steady state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	iters := 0
	var elapsed time.Duration
	for elapsed < minTime {
		fn()
		iters++
		elapsed = time.Since(start)
	}
	runtime.ReadMemStats(&after)
	return Measurement{
		Name:        name,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(iters),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
		Iterations:  iters,
	}
}

// overheadRounds is how many alternating rounds measureInterleaved splits
// its time budget into; odd, so the median ratio is one round's figure.
const overheadRounds = 9

// measureInterleaved times fns in alternating rounds of minTime/rounds each
// (forward order on even rounds, reversed on odd ones), so host drift —
// steal, frequency, GC debt — lands on every fn alike. It returns one
// Measurement per fn aggregated over all rounds and, per fn, the median
// over rounds of its ns/op divided by fns[0]'s in the same round: an
// overhead ratio that one-shot measurements of a ~10µs op cannot resolve.
func measureInterleaved(minTime time.Duration, rounds int, names []string, fns ...func()) ([]Measurement, []float64) {
	out := make([]Measurement, len(fns))
	ratios := make([][]float64, len(fns))
	round := make([]Measurement, len(fns))
	for r := 0; r < rounds; r++ {
		for j := range fns {
			i := j
			if r%2 == 1 {
				i = len(fns) - 1 - j
			}
			round[i] = measure(names[i], minTime/time.Duration(rounds), fns[i])
		}
		for i, m := range round {
			ratios[i] = append(ratios[i], m.NsPerOp/round[0].NsPerOp)
			o := &out[i]
			prev, n := float64(o.Iterations), float64(o.Iterations+m.Iterations)
			o.NsPerOp = (o.NsPerOp*prev + m.NsPerOp*float64(m.Iterations)) / n
			o.AllocsPerOp = (o.AllocsPerOp*prev + m.AllocsPerOp*float64(m.Iterations)) / n
			o.BytesPerOp = (o.BytesPerOp*prev + m.BytesPerOp*float64(m.Iterations)) / n
			o.Iterations += m.Iterations
			o.Name, o.GOMAXPROCS = m.Name, m.GOMAXPROCS
		}
	}
	med := make([]float64, len(fns))
	for i, rs := range ratios {
		sort.Float64s(rs)
		med[i] = rs[len(rs)/2]
	}
	return out, med
}

// ---- serving-path harness ---------------------------------------------------

// nullRW is a reusable no-op ResponseWriter so handler benchmarks measure
// the handler, not a recorder.
type nullRW struct {
	h      http.Header
	status int
}

func (w *nullRW) Header() http.Header         { return w.h }
func (w *nullRW) WriteHeader(c int)           { w.status = c }
func (w *nullRW) Write(p []byte) (int, error) { return len(p), nil }

// rewindBody adapts a bytes.Reader to a rewindable request body without a
// per-op io.NopCloser allocation.
type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }

// ingestBench drives POST /v1/streams/{id}/ingest through the real handler.
// One op = one batch of batchLen samples; timestamps advance forever and the
// body is re-encoded per op from reused buffers, so the steady state
// allocates only what the server path itself allocates.
type ingestBench struct {
	h        http.Handler
	req      *http.Request
	body     *bytes.Reader
	rw       nullRW
	buf      []byte
	ts, ds   []int64
	now, hop int64
}

func newIngestBench(h http.Handler, id, contentType string, ds []int64, hop int64) *ingestBench {
	b := &ingestBench{h: h, ts: make([]int64, len(ds)), ds: ds, hop: hop, rw: nullRW{h: make(http.Header)}}
	b.body = bytes.NewReader(nil)
	req, err := http.NewRequest("POST", "/v1/streams/"+id+"/ingest", rewindBody{b.body})
	if err != nil {
		panic(err)
	}
	req.Header.Set("Content-Type", contentType)
	// A well-behaved client sends its own request ID; setting it here both
	// exercises the propagation path and keeps the benchmarked steady state
	// free of the generated-ID allocation.
	req.Header.Set("X-Request-Id", "bench-"+id)
	b.req = req
	return b
}

func (b *ingestBench) encodeJSON() {
	b.buf = append(b.buf[:0], `{"t":[`...)
	for i, v := range b.ts {
		if i > 0 {
			b.buf = append(b.buf, ',')
		}
		b.buf = strconv.AppendInt(b.buf, v, 10)
	}
	b.buf = append(b.buf, `],"demand":[`...)
	for i, v := range b.ds {
		if i > 0 {
			b.buf = append(b.buf, ',')
		}
		b.buf = strconv.AppendInt(b.buf, v, 10)
	}
	b.buf = append(b.buf, `]}`...)
}

func (b *ingestBench) op(binary bool) {
	for i := range b.ts {
		b.now += b.hop
		b.ts[i] = b.now
	}
	if binary {
		b.buf = server.AppendBinaryBatch(b.buf[:0], b.ts, b.ds)
	} else {
		b.encodeJSON()
	}
	serveWithRetry(b.h, &b.rw, b.req, func() {
		b.body.Reset(b.buf)
		b.req.ContentLength = int64(len(b.buf))
	})
}

// concurrentClients starts one long-lived goroutine per client, as a
// keep-alive connection reuses its goroutine across requests. round
// releases every client for one binary op and waits for all of them; stop
// ends the goroutines and waits for them to exit. A fresh goroutine per
// client per op would mostly measure goroutine stack growth rather than
// the ingest path.
func concurrentClients(clients []*ingestBench) (round, stop func()) {
	var ops, exited sync.WaitGroup
	release := make([]chan struct{}, len(clients))
	exited.Add(len(clients))
	for i, c := range clients {
		release[i] = make(chan struct{}, 1)
		go func(next <-chan struct{}) {
			defer exited.Done()
			for range next {
				c.op(true)
				ops.Done()
			}
		}(release[i])
	}
	round = func() {
		ops.Add(len(clients))
		for _, ch := range release {
			ch <- struct{}{}
		}
		ops.Wait()
	}
	stop = func() {
		for _, ch := range release {
			close(ch)
		}
		exited.Wait()
	}
	return round, stop
}

// opStatus drives one attempt without the retry wrapper and reports the
// HTTP status. The QoS isolation bench uses it for traffic that is
// deliberately rate-limited: there a 429 is the datum being counted, not
// a transient failure to back off from.
func (b *ingestBench) opStatus(binary bool) int {
	for i := range b.ts {
		b.now += b.hop
		b.ts[i] = b.now
	}
	if binary {
		b.buf = server.AppendBinaryBatch(b.buf[:0], b.ts, b.ds)
	} else {
		b.encodeJSON()
	}
	b.body.Reset(b.buf)
	b.req.ContentLength = int64(len(b.buf))
	b.rw.status = 0
	b.h.ServeHTTP(&b.rw, b.req)
	if b.rw.status == 0 {
		return http.StatusOK // implicit 200: body written without WriteHeader
	}
	return b.rw.status
}

// Retry policy for transient overload answers from the server's load
// shedder. The in-process benches drive handlers serially, so with any
// limiter ≥ 1 they never actually shed — the policy exists so a future
// bench shape with client-side concurrency degrades into backoff instead
// of a flaky panic.
const (
	maxRetryAttempts = 8
	backoffBase      = time.Millisecond
	backoffCap       = 50 * time.Millisecond
)

// retryableStatus reports whether an HTTP status is a transient overload
// answer worth retrying (429 shed, 503 busy).
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// backoffDelay returns the capped exponential backoff before retry
// attempt (0-based): base doubling per attempt, capped.
func backoffDelay(attempt int) time.Duration {
	if attempt > 20 { // avoid shift overflow long past the cap
		return backoffCap
	}
	d := backoffBase << uint(attempt)
	if d > backoffCap {
		d = backoffCap
	}
	return d
}

// serveWithRetry drives one request through h, retrying transient
// overload answers with capped exponential backoff. reset rewinds the
// request body before each attempt. Any other non-200 status — or
// exhausting the retries — panics: the bench cannot measure a failing
// path.
func serveWithRetry(h http.Handler, rw *nullRW, req *http.Request, reset func()) {
	for attempt := 0; ; attempt++ {
		reset()
		rw.status = 0
		h.ServeHTTP(rw, req)
		if rw.status == http.StatusOK {
			return
		}
		if !retryableStatus(rw.status) || attempt+1 >= maxRetryAttempts {
			panic(fmt.Sprintf("%s %s returned %d (attempt %d)",
				req.Method, req.URL.Path, rw.status, attempt+1))
		}
		time.Sleep(backoffDelay(attempt))
	}
}

func run(opts options) (*Report, error) {
	n, maxK, minTime := opts.n, opts.maxK, opts.minTime
	if n < 2 || maxK < 1 || maxK > n {
		return nil, fmt.Errorf("need n ≥ 2 and 1 ≤ maxK ≤ n, got n=%d maxK=%d", n, maxK)
	}
	if len(opts.procs) == 0 {
		opts.procs = []int{runtime.GOMAXPROCS(0)}
	}
	d, err := events.ModalDemands([]events.Mode{
		{Lo: 100, Hi: 900, MinRun: 3, MaxRun: 9},
		{Lo: 2000, Hi: 9000, MinRun: 1, MaxRun: 2},
	}, n, 7)
	if err != nil {
		return nil, err
	}
	a, err := core.NewAnalyzer(d)
	if err != nil {
		return nil, err
	}
	tt, err := events.Sporadic(0, 10_000, 40_000, n, 3)
	if err != nil {
		return nil, err
	}
	w, err := a.Workload(maxK)
	if err != nil {
		return nil, err
	}

	report := &Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Params: Params{
			N: n, MaxK: maxK, MinTimeMs: minTime.Milliseconds(),
			KernelSeqT: kernel.DefaultSeqThreshold,
		},
		Speedups: map[string]float64{},
	}
	add := func(m Measurement) { report.Results = append(report.Results, m) }

	// ---- extraction group (kernel vs naive), at the ambient GOMAXPROCS ----

	kernelWorkload := measure("extract_workload_kernel", minTime, func() {
		if _, err := a.Workload(maxK); err != nil {
			panic(err)
		}
	})
	add(kernelWorkload)
	naiveWorkload := measure("extract_workload_naive", minTime, func() {
		// The pre-kernel Analyzer.Workload path: one O(n) pass per curve
		// per k through the single-k queries.
		for k := 1; k <= maxK; k++ {
			if _, err := a.UpperAt(k); err != nil {
				panic(err)
			}
			if _, err := a.LowerAt(k); err != nil {
				panic(err)
			}
		}
	})
	add(naiveWorkload)

	kernelSpans := measure("extract_spans_kernel", minTime, func() {
		if _, _, err := arrival.ExtractSpans(tt, maxK); err != nil {
			panic(err)
		}
	})
	add(kernelSpans)
	naiveSpans := measure("extract_spans_naive", minTime, func() {
		if _, _, err := kernel.ExtractNaive(tt, maxK-1); err != nil {
			panic(err)
		}
	})
	add(naiveSpans)

	kernelAdmits := measure("admits_kernel", minTime, func() {
		v, err := w.AdmitsAnalyzed(a)
		if err != nil {
			panic(err)
		}
		if v != nil {
			panic(fmt.Sprintf("own trace rejected: %+v", *v))
		}
	})
	add(kernelAdmits)

	report.Speedups["workload"] = naiveWorkload.NsPerOp / kernelWorkload.NsPerOp
	report.Speedups["spans"] = naiveSpans.NsPerOp / kernelSpans.NsPerOp
	// Admits shares the naive-workload baseline: pre-kernel it was the
	// same 2·K·n sweep (plus an O(n) prefix rebuild per call).
	report.Speedups["admits"] = naiveWorkload.NsPerOp / kernelAdmits.NsPerOp

	// ---- serving group, once per requested GOMAXPROCS ----------------------

	const ingestBatch = 512
	ingestCfg := stream.Config{Window: 4096, MaxK: 256}
	if ingestCfg.Window > n {
		ingestCfg.Window = n
	}
	span := tt[len(tt)-1] + 1
	feed := func(s *stream.Stream, scratch []int64, off int64) {
		for j, v := range tt {
			scratch[j] = v + off
		}
		for i := 0; i < n; i += ingestBatch {
			hi := i + ingestBatch
			if hi > n {
				hi = n
			}
			if _, err := s.Ingest(scratch[i:hi], d[i:hi]); err != nil {
				panic(err)
			}
		}
	}
	newStream := func() *stream.Stream {
		s, err := stream.New(ingestCfg)
		if err != nil {
			panic(err)
		}
		return s
	}
	batchDemands := d[:min(ingestBatch, n)]

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var lastSingle, lastSharded Measurement
	shardedByProc := make(map[int]Measurement)
	var ranProcs []int
	for _, p := range opts.procs {
		if p < 1 {
			return nil, fmt.Errorf("bad -procs value %d", p)
		}
		if p > runtime.NumCPU() {
			// Oversubscribed groups measure scheduler churn, not the server,
			// and their numbers poison cross-host baseline comparisons.
			fmt.Fprintf(os.Stderr, "benchjson: skipping GOMAXPROCS=%d serving group: host has only %d CPUs\n",
				p, runtime.NumCPU())
			continue
		}
		ranProcs = append(ranProcs, p)
		runtime.GOMAXPROCS(p)

		// Stream-level: one op = the whole n-sample trace in batches.
		single := newStream()
		singleScratch := make([]int64, n)
		var singleOff int64
		ingestSingle := measure("ingest_single_stream", minTime, func() {
			feed(single, singleScratch, singleOff)
			singleOff += span
		})
		ingestSingle.SamplesPerSec = float64(n) / (ingestSingle.NsPerOp / 1e9)
		add(ingestSingle)

		// Sharded: p independent streams fed concurrently — the wcmd
		// multi-stream path, where per-stream locks never contend.
		shardStreams := make([]*stream.Stream, p)
		shardScratch := make([][]int64, p)
		shardOff := make([]int64, p)
		for i := range shardStreams {
			shardStreams[i] = newStream()
			shardScratch[i] = make([]int64, n)
		}
		ingestSharded := measure("ingest_sharded_streams", minTime, func() {
			var wg sync.WaitGroup
			for i := 0; i < p; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					feed(shardStreams[i], shardScratch[i], shardOff[i])
					shardOff[i] += span
				}(i)
			}
			wg.Wait()
		})
		ingestSharded.SamplesPerSec = float64(p*n) / (ingestSharded.NsPerOp / 1e9)
		add(ingestSharded)
		lastSingle, lastSharded = ingestSingle, ingestSharded
		shardedByProc[p] = ingestSharded

		// HTTP-level: one op = one batch through the real handler, JSON vs
		// binary encoding (client encode included in both). SelfCurves is
		// on so the numbers cover the fully instrumented deployment config.
		srv, err := server.New(server.Config{Stream: ingestCfg, SelfCurves: true})
		if err != nil {
			return nil, err
		}
		jb := newIngestBench(srv.Handler(), "j", "application/json", batchDemands, 3)
		httpJSON := measure("ingest_http_json", minTime, func() { jb.op(false) })
		httpJSON.SamplesPerSec = float64(len(batchDemands)) / (httpJSON.NsPerOp / 1e9)
		add(httpJSON)
		bb := newIngestBench(srv.Handler(), "b", server.ContentTypeBinary, batchDemands, 3)

		// The same binary path twice more, each against the server above:
		// with tracing at the default 1-in-N sample rate (every request
		// records its span tree — the recording cost is paid whether or not
		// the trace is kept — and the client sends a W3C traceparent so the
		// parse/echo path is inside the measurement), and on a server with
		// tenants configured, driven by untagged traffic that never opted
		// in. "acme" has a bucket generous enough to never reject (the full
		// tagged path — header parse, registry lookup, GCRA take), "noisy"
		// one the serial bench saturates immediately, and "quiet" none at
		// all; the last two serve the isolation bench below.
		// trace_overhead and qos_overhead are their fractional latency cost
		// over the plain binary path, as median ratios of interleaved rounds.
		tsrv, err := server.New(server.Config{
			Stream: ingestCfg, SelfCurves: true, TraceSample: server.DefaultTraceSample,
		})
		if err != nil {
			return nil, err
		}
		tb := newIngestBench(tsrv.Handler(), "t", server.ContentTypeBinary, batchDemands, 3)
		tb.req.Header.Set("traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
		qosSrv, err := server.New(server.Config{
			Stream: ingestCfg, SelfCurves: true,
			Tenants: []qos.TenantConfig{
				{Name: "acme", SLO: "interactive", RatePerSec: 1e8, Burst: 1024},
				{Name: "noisy", SLO: "besteffort", RatePerSec: 500, Burst: 32},
				{Name: "quiet", SLO: "interactive"},
			},
		})
		if err != nil {
			return nil, err
		}
		qub := newIngestBench(qosSrv.Handler(), "b", server.ContentTypeBinary, batchDemands, 3)
		paired, ratios := measureInterleaved(minTime, overheadRounds,
			[]string{"ingest_http_binary", "ingest_http_binary_traced", "ingest_http_binary_qos"},
			func() { bb.op(true) }, func() { tb.op(true) }, func() { qub.op(true) })
		for i := range paired {
			paired[i].SamplesPerSec = float64(len(batchDemands)) / (paired[i].NsPerOp / 1e9)
		}
		httpBinary, httpTraced, qosUntagged := paired[0], paired[1], paired[2]
		overhead, qosOverhead := ratios[1], ratios[2]
		add(httpBinary)
		add(httpTraced)
		add(qosUntagged)
		report.Speedups["ingest_binary_vs_json"] = httpJSON.NsPerOp / httpBinary.NsPerOp
		report.Speedups["trace_overhead"] = overhead
		report.Speedups["qos_overhead"] = qosOverhead
		// The absolute bound is checked on the GOMAXPROCS=1 group only:
		// single-proc runs count exactly the handler's own allocations,
		// while multi-proc runs also pick up background-GC noise.
		if opts.maxBinaryAllocs > 0 && p == 1 && httpBinary.AllocsPerOp > opts.maxBinaryAllocs {
			return nil, fmt.Errorf("ingest_http_binary allocates %.1f/op, bound %.1f (GOMAXPROCS=%d)",
				httpBinary.AllocsPerOp, opts.maxBinaryAllocs, p)
		}
		// The overhead budgets are guarded at GOMAXPROCS=1 only (multi-proc
		// latency picks up GC and scheduler noise), with 1µs absolute slack
		// so a tight fractional budget on a fast baseline isn't below clock
		// jitter.
		slack := 1000 / httpBinary.NsPerOp
		if opts.maxTraceOverhead > 0 && p == 1 && overhead > 1+opts.maxTraceOverhead+slack {
			return nil, fmt.Errorf("ingest_http_binary_traced costs %.1f%% over untraced (median of %d rounds, %.0f vs %.0f ns/op), budget %.1f%% (GOMAXPROCS=%d)",
				(overhead-1)*100, overheadRounds, httpTraced.NsPerOp, httpBinary.NsPerOp, opts.maxTraceOverhead*100, p)
		}
		if opts.maxQosOverhead > 0 && p == 1 && qosOverhead > 1+opts.maxQosOverhead+slack {
			return nil, fmt.Errorf("ingest_http_binary_qos costs %.1f%% over the tenant-free server (median of %d rounds, %.0f vs %.0f ns/op), budget %.1f%% (GOMAXPROCS=%d)",
				(qosOverhead-1)*100, overheadRounds, qosUntagged.NsPerOp, httpBinary.NsPerOp, opts.maxQosOverhead*100, p)
		}

		// Concurrent clients on the one path: each client drives the same
		// handler on its own stream, so batches arrive concurrently and
		// apply in parallel across shards. One op = every client sends one
		// batch. Contrast with ingest_http_binary (same wire format, serial
		// client). The name predates the one ingest path and is kept so the
		// -baseline guard still matches it.
		asyncSrv, err := server.New(server.Config{Stream: ingestCfg, SelfCurves: true})
		if err != nil {
			return nil, err
		}
		clients := p
		if clients < 2 {
			clients = 2 // concurrent arrivals even at p=1
		}
		ab := make([]*ingestBench, clients)
		for i := range ab {
			ab[i] = newIngestBench(asyncSrv.Handler(), "a"+strconv.Itoa(i),
				server.ContentTypeBinary, batchDemands, 3)
		}
		asyncRound, asyncStop := concurrentClients(ab)
		httpAsync := measure("ingest_async_pipeline", minTime, asyncRound)
		asyncStop()
		httpAsync.SamplesPerSec = float64(clients*len(batchDemands)) / (httpAsync.NsPerOp / 1e9)
		add(httpAsync)
		asyncSrv.Close()
		report.Speedups["ingest_async_vs_sync"] = httpAsync.SamplesPerSec /
			(float64(len(batchDemands)) / (httpBinary.NsPerOp / 1e9))

		// Durable ingest, same binary wire format with the WAL on, fsync
		// policy "batch" in both shapes. ingest_wal_always (named for the
		// folded "always" policy; kept so the -baseline guard still matches
		// it) is a serial client: one commit, hence one fsync, per request.
		// ingest_wal_batch is concurrent clients on the one path, where a
		// commit may find its shard's appends already synced by a
		// concurrent one. wal_overhead is the fraction of in-memory
		// throughput the default deployment (fsync=batch) retains vs the
		// same concurrent clients without a WAL.
		openWAL := func(pol wal.Policy) (*wal.Manager, string, error) {
			dir, err := os.MkdirTemp("", "benchwal")
			if err != nil {
				return nil, "", err
			}
			m, err := wal.Open(wal.Options{
				Dir: dir, Shards: server.DefaultShards, Policy: pol, Stream: ingestCfg,
			})
			if err != nil {
				os.RemoveAll(dir) //nolint:errcheck
				return nil, "", err
			}
			return m, dir, nil
		}
		inlineM, inlineDir, err := openWAL(wal.PolicyBatch)
		if err != nil {
			return nil, err
		}
		walSyncSrv, err := server.New(server.Config{Stream: ingestCfg, SelfCurves: true, WAL: inlineM})
		if err != nil {
			return nil, err
		}
		wb := newIngestBench(walSyncSrv.Handler(), "w", server.ContentTypeBinary, batchDemands, 3)
		walAlways := measure("ingest_wal_always", minTime, func() { wb.op(true) })
		walAlways.SamplesPerSec = float64(len(batchDemands)) / (walAlways.NsPerOp / 1e9)
		add(walAlways)
		walSyncSrv.Close()
		os.RemoveAll(inlineDir) //nolint:errcheck

		batchM, batchDir, err := openWAL(wal.PolicyBatch)
		if err != nil {
			return nil, err
		}
		walAsyncSrv, err := server.New(server.Config{
			Stream: ingestCfg, SelfCurves: true, WAL: batchM,
		})
		if err != nil {
			return nil, err
		}
		wab := make([]*ingestBench, clients)
		for i := range wab {
			wab[i] = newIngestBench(walAsyncSrv.Handler(), "wa"+strconv.Itoa(i),
				server.ContentTypeBinary, batchDemands, 3)
		}
		walRound, walStop := concurrentClients(wab)
		walBatch := measure("ingest_wal_batch", minTime, walRound)
		walStop()
		walBatch.SamplesPerSec = float64(clients*len(batchDemands)) / (walBatch.NsPerOp / 1e9)
		add(walBatch)
		walAsyncSrv.Close()
		os.RemoveAll(batchDir) //nolint:errcheck
		report.Speedups["wal_overhead"] = walBatch.SamplesPerSec / httpAsync.SamplesPerSec

		// ---- query group ---------------------------------------------------
		// Both sides drive the REAL handler: the cached server answers from
		// the version-keyed cache (singleflight misses, pooled renders), the
		// uncached one is the same handler built with Config.DisableQueryCache
		// — every read takes a fresh snapshot and re-renders through
		// encoding/json. So the comparison is cache-on vs cache-off over
		// identical code, not handler vs hand-written recomputation.
		// SelfCurves is off here (unlike the ingest benches): the
		// self-characterization feed adds identical per-request work to both
		// sides, diluting the measured cache effect; and with no logger and
		// no request timeout the handler's bare-context fast path is active —
		// the shape a latency-sensitive reader deploys.
		qsrv, err := server.New(server.Config{Stream: ingestCfg})
		if err != nil {
			return nil, err
		}
		usrv, err := server.New(server.Config{Stream: ingestCfg, DisableQueryCache: true})
		if err != nil {
			return nil, err
		}
		seedQ := newIngestBench(qsrv.Handler(), "q", server.ContentTypeBinary, batchDemands, 3)
		seedU := newIngestBench(usrv.Handler(), "q", server.ContentTypeBinary, batchDemands, 3)
		for _, seed := range []*ingestBench{seedQ, seedU} {
			for i := 0; i*ingestBatch < 2*ingestCfg.Window; i++ {
				seed.op(true) // fill the window so queries see full curves
			}
		}
		checkBody := []byte(`{"freq_hz":100000000,"latency_ns":10,"buffer":2}`)
		newQueryOp := func(h http.Handler, method, path string, body []byte, accept string) func() {
			br := bytes.NewReader(nil)
			var rc io.ReadCloser = http.NoBody
			if body != nil {
				rc = rewindBody{br}
			}
			req, err := http.NewRequest(method, path, rc)
			if err != nil {
				panic(err)
			}
			req.Header.Set("X-Request-Id", "bench-q")
			if body != nil {
				req.Header.Set("Content-Type", "application/json")
			}
			if accept != "" {
				req.Header.Set("Accept", accept)
			}
			rw := &nullRW{h: make(http.Header)}
			return func() {
				serveWithRetry(h, rw, req, func() {
					if body != nil {
						br.Reset(body)
						req.ContentLength = int64(len(body))
					}
				})
			}
		}

		checkCachedOp := newQueryOp(qsrv.Handler(), "POST", "/v1/streams/q/check", checkBody, "")
		cached := measure("query_check_cached", minTime, checkCachedOp)
		add(cached)
		if opts.maxHitAllocs > 0 && p == 1 && cached.AllocsPerOp > opts.maxHitAllocs {
			return nil, fmt.Errorf("query_check_cached allocates %.1f/op, bound %.1f (GOMAXPROCS=%d)",
				cached.AllocsPerOp, opts.maxHitAllocs, p)
		}
		checkUncachedOp := newQueryOp(usrv.Handler(), "POST", "/v1/streams/q/check", checkBody, "")
		uncached := measure("query_check_uncached", minTime, checkUncachedOp)
		add(uncached)
		report.Speedups["query_check_cached_vs_uncached"] = uncached.NsPerOp / cached.NsPerOp

		curvesJSONOp := newQueryOp(qsrv.Handler(), "GET", "/v1/streams/q/curves", nil, "")
		curvesJSON := measure("query_curves_cached", minTime, curvesJSONOp)
		add(curvesJSON)
		curvesBinOp := newQueryOp(qsrv.Handler(), "GET", "/v1/streams/q/curves", nil,
			server.ContentTypeQueryBinary)
		curvesBin := measure("query_curves_binary", minTime, curvesBinOp)
		add(curvesBin)
		report.Speedups["query_binary_vs_json"] = curvesJSON.NsPerOp / curvesBin.NsPerOp

		batchBody := []byte(`{"ids":["q"],"curves":true,"verdict":true,"minfreq_b":2,` +
			`"check":{"freq_hz":100000000,"latency_ns":10,"buffer":2}}`)
		batchOp := newQueryOp(qsrv.Handler(), "POST", "/v1/query", batchBody, "")
		add(measure("query_batch_all", minTime, batchOp))

		// 95/5 read-heavy mix — the workload the cache exists for. Every
		// 20th request ingests a small batch (bumping the stream version, so
		// the next read of each kind on the cached side is a real miss that
		// re-renders), the rest alternate curves and check reads. Small write
		// batches keep the ingest cost from flooding the read-path signal:
		// with 512-sample writes both sides converge on ingest time and the
		// ratio stops meaning anything.
		const mixEvery = 20
		mixDemands := d[:min(64, n)]
		mixCachedIngest := newIngestBench(qsrv.Handler(), "q", server.ContentTypeBinary, mixDemands, 3)
		mixCachedIngest.now = seedQ.now // streams demand monotonic timestamps
		mixN := 0
		mixedCached := measure("query_mixed_cached", minTime, func() {
			mixN++
			switch {
			case mixN%mixEvery == 0:
				mixCachedIngest.op(true)
			case mixN%2 == 0:
				curvesJSONOp()
			default:
				checkCachedOp()
			}
		})
		add(mixedCached)
		curvesUncachedOp := newQueryOp(usrv.Handler(), "GET", "/v1/streams/q/curves", nil, "")
		mixUncachedIngest := newIngestBench(usrv.Handler(), "q", server.ContentTypeBinary, mixDemands, 3)
		mixUncachedIngest.now = seedU.now
		mixM := 0
		mixedUncached := measure("query_mixed_uncached", minTime, func() {
			mixM++
			switch {
			case mixM%mixEvery == 0:
				mixUncachedIngest.op(true)
			case mixM%2 == 0:
				curvesUncachedOp()
			default:
				checkUncachedOp()
			}
		})
		add(mixedUncached)
		ratio := mixedUncached.NsPerOp / mixedCached.NsPerOp
		report.Speedups["query_cached_vs_uncached"] = ratio
		if opts.assertQueryCache > 0 && ratio < opts.assertQueryCache {
			return nil, fmt.Errorf("query_mixed_cached is only %.2f× faster than uncached, need ≥ %.2f× (GOMAXPROCS=%d)",
				ratio, opts.assertQueryCache, p)
		}

		// ---- qos group -----------------------------------------------------
		// Tagged traffic on the tenant server built above (untagged traffic
		// on it is qos_overhead, measured with the binary ingest group).
		qtb := newIngestBench(qosSrv.Handler(), "bt", server.ContentTypeBinary, batchDemands, 3)
		qtb.req.Header.Set("X-Wcm-Tenant", "acme")
		qosTagged := measure("ingest_http_binary_tenant", minTime, func() { qtb.op(true) })
		qosTagged.SamplesPerSec = float64(len(batchDemands)) / (qosTagged.NsPerOp / 1e9)
		add(qosTagged)
		report.Speedups["qos_overhead_tagged"] = qosTagged.NsPerOp / httpBinary.NsPerOp

		// qos_isolation: alternate one noisy-tenant attempt with one
		// quiet-tenant attempt. The noisy bucket drains after its burst, so
		// almost every noisy op eats a 429 — and none of that pressure may
		// leak onto quiet, whose admitted fraction is the isolation figure.
		nzb := newIngestBench(qosSrv.Handler(), "nz", server.ContentTypeBinary, mixDemands, 3)
		nzb.req.Header.Set("X-Wcm-Tenant", "noisy")
		qtb2 := newIngestBench(qosSrv.Handler(), "qt", server.ContentTypeBinary, mixDemands, 3)
		qtb2.req.Header.Set("X-Wcm-Tenant", "quiet")
		var noisyOK, noisyThrottled, noisyOther, quietOK, quietBad int
		iso := measure("qos_isolation_mixed", minTime, func() {
			switch nzb.opStatus(true) {
			case http.StatusOK:
				noisyOK++
			case http.StatusTooManyRequests:
				noisyThrottled++
			default:
				noisyOther++
			}
			if qtb2.opStatus(true) == http.StatusOK {
				quietOK++
			} else {
				quietBad++
			}
		})
		add(iso)
		if noisyOther > 0 || quietOK == 0 {
			return nil, fmt.Errorf("qos_isolation_mixed: unexpected statuses (noisy other=%d, quiet ok=%d of %d)",
				noisyOther, quietOK, quietOK+quietBad)
		}
		isoRatio := float64(quietOK) / float64(quietOK+quietBad)
		report.Speedups["qos_isolation"] = isoRatio
		if opts.assertQosIsolation > 0 {
			if noisyThrottled == 0 {
				return nil, fmt.Errorf("qos_isolation_mixed: the noisy tenant was never throttled (%d ops) — the scenario did not engage", noisyOK)
			}
			if isoRatio < opts.assertQosIsolation {
				return nil, fmt.Errorf("qos_isolation: only %.4f of quiet-tenant requests admitted while noisy throttled %d times, need ≥ %.4f (GOMAXPROCS=%d)",
					isoRatio, noisyThrottled, opts.assertQosIsolation, p)
			}
		}
	}
	runtime.GOMAXPROCS(prev)

	// ingest_scaling is the multicore scaling ratio: sharded samples/s at
	// the largest -procs value over the smallest. > 1 means adding cores
	// adds throughput — the cliff this harness exists to guard. With a
	// single -procs group the cross-proc ratio degenerates to the in-group
	// sharding gain (sharded vs single-stream at that GOMAXPROCS), which is
	// also reported separately either way.
	if len(ranProcs) == 0 {
		return nil, fmt.Errorf("every -procs value exceeds the host's %d CPUs — nothing to measure", runtime.NumCPU())
	}
	report.Speedups["ingest_sharding_gain"] = lastSharded.SamplesPerSec / lastSingle.SamplesPerSec
	minP, maxP := ranProcs[0], ranProcs[0]
	for _, p := range ranProcs {
		minP, maxP = min(minP, p), max(maxP, p)
	}
	if maxP > minP {
		report.Speedups["ingest_scaling"] = shardedByProc[maxP].SamplesPerSec / shardedByProc[minP].SamplesPerSec
	} else {
		report.Speedups["ingest_scaling"] = report.Speedups["ingest_sharding_gain"]
	}
	if opts.assertScaling > 0 {
		if runtime.NumCPU() < 4 {
			fmt.Fprintf(os.Stderr, "benchjson: skipping -assert-scaling %.2f: only %d CPUs\n",
				opts.assertScaling, runtime.NumCPU())
		} else if report.Speedups["ingest_scaling"] < opts.assertScaling {
			return nil, fmt.Errorf("ingest_sharded_streams scales only %.2f× from GOMAXPROCS=%d to %d, need ≥ %.2f×",
				report.Speedups["ingest_scaling"], minP, maxP, opts.assertScaling)
		}
	}

	if opts.baseline != "" {
		if err := guardBaseline(report, opts.baseline, opts.maxAllocGrowth, opts.maxLatencyGrowth); err != nil {
			return nil, err
		}
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(opts.out, buf, 0o644); err != nil {
		return nil, err
	}
	return report, nil
}

// guardBaseline compares the HTTP ingest-path figures against the committed
// baseline report. Allocs/op may grow at most the allowed fraction (plus an
// absolute slack of 2 allocs so near-zero baselines aren't impossible to
// meet). When latGrowth > 0, ns/op at GOMAXPROCS=1 may grow at most that
// fraction (plus 1µs absolute slack); multi-proc latency is exempt — it
// picks up scheduler and GC noise that makes a tight bound flaky. Only the
// ingest_http_* groups are guarded: they drive a fixed-size batch through
// pooled steady state, so their counts are deterministic, where the
// whole-trace stream groups pick up background-GC noise. Results are
// matched by (name, gomaxprocs); names missing from the baseline pass — a
// new benchmark can't regress.
func guardBaseline(cur *Report, baselinePath string, growth, latGrowth float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	type key struct {
		name  string
		procs int
	}
	baseline := make(map[key]Measurement)
	for _, m := range base.Results {
		baseline[key{m.Name, m.GOMAXPROCS}] = m
	}
	for _, m := range cur.Results {
		if !strings.HasPrefix(m.Name, "ingest_http_") {
			continue
		}
		b, ok := baseline[key{m.Name, m.GOMAXPROCS}]
		if !ok {
			continue
		}
		limit := b.AllocsPerOp*(1+growth) + 2
		if m.AllocsPerOp > limit {
			return fmt.Errorf("%s (GOMAXPROCS=%d): %.1f allocs/op exceeds baseline %.1f by more than %.0f%% (+2)",
				m.Name, m.GOMAXPROCS, m.AllocsPerOp, b.AllocsPerOp, growth*100)
		}
		if latGrowth > 0 && m.GOMAXPROCS == 1 {
			latLimit := b.NsPerOp*(1+latGrowth) + 1000
			if m.NsPerOp > latLimit {
				return fmt.Errorf("%s (GOMAXPROCS=%d): %.0f ns/op exceeds baseline %.0f by more than %.0f%% (+1µs)",
					m.Name, m.GOMAXPROCS, m.NsPerOp, b.NsPerOp, latGrowth*100)
			}
		}
	}
	return nil
}

// parseProcs parses the -procs flag ("1,4" → [1, 4]).
func parseProcs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad -procs entry %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-procs is empty")
	}
	return out, nil
}

func main() {
	out := flag.String("out", "BENCH_extract.json", "output JSON path")
	n := flag.Int("n", 40_000, "trace length (activations / events)")
	maxK := flag.Int("maxk", 4_000, "largest window length K")
	minTime := flag.Duration("mintime", 300*time.Millisecond, "min measuring time per benchmark")
	procs := flag.String("procs", "1,4,32", "comma-separated GOMAXPROCS values for the serving group")
	baseline := flag.String("baseline", "", "committed report to guard ingest allocs/op against")
	maxAllocGrowth := flag.Float64("max-alloc-growth", 0.20, "allowed fractional allocs/op growth over -baseline")
	maxBinaryAllocs := flag.Float64("max-binary-allocs", 0, "allocs/op bound for ingest_http_binary at GOMAXPROCS=1 (0 = off)")
	maxLatencyGrowth := flag.Float64("max-latency-growth", 0, "allowed fractional ns/op growth over -baseline at GOMAXPROCS=1 (0 = off)")
	assertScaling := flag.Float64("assert-scaling", 0, "required sharded ingest scaling ratio, largest vs smallest -procs group (0 = off; skipped under 4 CPUs)")
	assertQueryCache := flag.Float64("assert-query-cache", 0, "required query_mixed_uncached/cached ns/op ratio (0 = off)")
	maxHitAllocs := flag.Float64("max-hit-allocs", 0, "allocs/op bound for query_check_cached at GOMAXPROCS=1 (0 = off)")
	maxTraceOverhead := flag.Float64("max-trace-overhead", 0, "allowed fractional latency cost of default-rate tracing at GOMAXPROCS=1 (0 = off)")
	maxQosOverhead := flag.Float64("max-qos-overhead", 0, "allowed fractional untagged-ingest latency cost of configuring tenants, at GOMAXPROCS=1 (0 = off)")
	assertQosIsolation := flag.Float64("assert-qos-isolation", 0, "required admitted fraction for the quiet tenant in the isolation bench (0 = off)")
	flag.Parse()
	pr, err := parseProcs(*procs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	report, err := run(options{
		n: *n, maxK: *maxK, minTime: *minTime, out: *out, procs: pr,
		baseline: *baseline, maxAllocGrowth: *maxAllocGrowth,
		maxBinaryAllocs: *maxBinaryAllocs, maxLatencyGrowth: *maxLatencyGrowth,
		assertScaling: *assertScaling, assertQueryCache: *assertQueryCache,
		maxHitAllocs: *maxHitAllocs, maxTraceOverhead: *maxTraceOverhead,
		maxQosOverhead: *maxQosOverhead, assertQosIsolation: *assertQosIsolation,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (n=%d K=%d, cpus=%d)\n", *out, *n, *maxK, report.NumCPU)
	for _, m := range report.Results {
		fmt.Printf("  %-24s p=%-2d %14.0f ns/op %8.1f allocs/op", m.Name, m.GOMAXPROCS, m.NsPerOp, m.AllocsPerOp)
		if m.SamplesPerSec > 0 {
			fmt.Printf(" %12.0f samples/s", m.SamplesPerSec)
		}
		fmt.Println()
	}
	for name, s := range report.Speedups {
		fmt.Printf("  speedup %-24s %6.2fx\n", name, s)
	}
}
