package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"wcm/internal/kernel"
	"wcm/internal/obs"
	"wcm/internal/qos"
	"wcm/internal/server"
	"wcm/internal/stream"
	"wcm/internal/wal"
	"wcm/internal/wirefmt"
)

// layerMetric is one per-layer ledger row: the layer it measures, and the
// end-to-end metric (on which workload) a change to it should move.
type layerMetric struct {
	name, unit, better, arrow string
}

// layerMetrics lists every per-layer metric of the traced run, in print
// order. BENCHMARK.json's per_layer list mirrors it.
var layerMetrics = []layerMetric{
	{"ingest_p50_ms", "ms", "lower", "end to end: ingest ack latency from due time, every workload"},
	{"ingest_p99_ms", "ms", "lower", "end to end: ingest ack latency from due time, every workload"},
	{"query_p50_ms", "ms", "lower", "end to end: read latency from due time, every workload"},
	{"query_p99_ms", "ms", "lower", "end to end: read latency from due time, every workload"},
	{"sustained_rps", "1/s", "higher", "end to end: highest ladder rate meeting the latency limit, every workload"},
	{"recovery_s", "s", "lower", "end to end: kill -9 to /healthz, every workload"},
	{"gen.late_p99_ms", "ms", "lower", "benchmark health: the run is invalid past the workload's latency limit"},
	{"gen.ingest_n", "count", "higher", "benchmark health: ingests measured"},
	{"gen.query_n", "count", "higher", "benchmark health: reads measured"},
	{"client.ttfb_us", "us", "lower", "query_p50_ms / ingest_p50_ms, every workload"},
	{"client.decode_json_us", "us", "lower", "query_p50_ms, read_mostly"},
	{"client.decode_binary_us", "us", "lower", "query_p50_ms, read_mostly"},
	{"client.resp_bytes_json", "bytes", "lower", "query_p50_ms, read_mostly"},
	{"client.resp_bytes_binary", "bytes", "lower", "query_p50_ms, read_mostly"},
	{"net.overhead_us", "us", "lower", "query_p50_ms, read_mostly"},
	{"server.ingest_us", "us", "lower", "ingest_p50_ms and cpu_us_per_req, ingest_durable"},
	{"server.ingest_allocs", "count", "lower", "ingest_p50_ms and cpu_us_per_req, ingest_durable"},
	{"server.read_hit_us", "us", "lower", "cpu_us_per_req and sustained_rps, read_mostly"},
	{"server.read_hit_allocs", "count", "lower", "cpu_us_per_req and sustained_rps, read_mostly"},
	{"server.read_miss_us", "us", "lower", "query_p99_ms, read_mostly and ingest_durable"},
	{"server.query_batch_us", "us", "lower", "query_p99_ms, read_mostly"},
	{"server.cache_hit_ratio", "ratio", "higher", "cpu_us_per_req, read_mostly"},
	{"server.renders_per_read", "ratio", "lower", "cpu_us_per_req, read_mostly"},
	{"server.singleflight_shared_frac", "ratio", "higher", "query_p99_ms, read_mostly"},
	{"server.coalesce_mean", "count", "higher", "sustained_rps, ingest_durable"},
	{"server.degraded_frac", "ratio", "lower", "query_p99_ms, bursty_tenants"},
	{"stream.apply_ns_per_sample", "ns", "lower", "ingest_p50_ms and cpu_us_per_req, ingest_durable; no change on read_mostly"},
	{"stream.snapshot_us", "us", "lower", "query_p99_ms, read_mostly"},
	{"stream.state_bytes", "bytes", "lower", "recovery_s, ingest_durable"},
	{"kernel.anchor_us", "us", "lower", "ingest_p99_ms, ingest_durable"},
	{"netcalc.minfreq_us", "us", "lower", "query_p99_ms, read_mostly"},
	{"netcalc.check_us", "us", "lower", "query_p99_ms, read_mostly"},
	{"wirefmt.decode_batch_ns_per_sample", "ns", "lower", "ingest_p50_ms, ingest_durable"},
	{"wal.append_us", "us", "lower", "ingest_p50_ms, ingest_durable; no change elsewhere"},
	{"wal.commit_ms_p50", "ms", "lower", "ingest_p99_ms, ingest_durable; no change elsewhere"},
	{"wal.commit_ms_p99", "ms", "lower", "sustained_rps, ingest_durable; no change elsewhere"},
	{"wal.fsyncs_per_req", "ratio", "lower", "sustained_rps, ingest_durable; no change elsewhere"},
	{"wal.bytes_per_sample", "bytes", "lower", "cpu_us_per_req, ingest_durable; no change elsewhere"},
	{"wal.replay_s", "s", "lower", "recovery_s, ingest_durable; no change elsewhere"},
	{"qos.take_ns", "ns", "lower", "ingest_p50_ms, bursty_tenants (predicted negligible)"},
	{"qos.throttled_frac", "ratio", "lower", "ok_frac, bursty_tenants"},
	{"ledger.coverage", "ratio", "higher", "reconciliation: blocking-path layer p50s over the end-to-end p50"},
	{"ledger.trace_overhead_frac", "ratio", "lower", "reconciliation: traced p50 over untraced p50, minus 1"},
}

func (b *bench) traced() (verdict, map[string]any, error) {
	w := b.w
	rd, err := b.measure(1, true)
	if err != nil {
		return verdict{}, nil, err
	}
	// Leave the data directory as kill -9 leaves it, for wal.replay_s.
	b.shutdown()
	dd := b.dataDir(b.setup - 1)
	resU, tp := rd.res, rd.traced
	resT, m0, m1 := tp.res, tp.m0, tp.m1

	spanFile := filepath.Join(b.o.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, b.o.seed))
	if err := writeSpans(spanFile, b.cl.spans); err != nil {
		return verdict{}, nil, err
	}

	L := map[string]float64{}
	// gen and client, from the traced phase's results and spans.
	var late, ttfb, decJ, decB, bytesJ, bytesB []float64
	var nIngest, nRead float64
	for _, r := range resT {
		if r.out == outSkipped {
			continue
		}
		late = append(late, ms(r.sent-r.due))
		if r.out != outOK && r.out != outDegraded {
			continue
		}
		if r.kind == opIngest {
			nIngest++
		} else {
			nRead++
		}
		if r.kind == w.blocking || (w.blocking != opIngest && r.kind != opIngest) {
			ttfb = append(ttfb, float64(r.ttfb-r.sent)/1e3)
		}
		if r.kind == opCurves || r.kind == opCheck || r.kind == opMinFreq {
			if r.bin {
				decB = append(decB, float64(r.decode)/1e3)
				bytesB = append(bytesB, float64(r.bytes))
			} else {
				decJ = append(decJ, float64(r.decode)/1e3)
				bytesJ = append(bytesJ, float64(r.bytes))
			}
		}
	}
	L["gen.late_p99_ms"] = summarize(late).Tail
	L["gen.ingest_n"], L["gen.query_n"] = nIngest, nRead
	L["client.ttfb_us"] = median(ttfb)
	L["client.decode_json_us"], L["client.decode_binary_us"] = median(decJ), median(decB)
	L["client.resp_bytes_json"], L["client.resp_bytes_binary"] = median(bytesJ), median(bytesB)

	// server, from /metrics deltas over the traced phase.
	hits, misses := delta(m0, m1, "wcmd_query_cache_hits_total"), delta(m0, m1, "wcmd_query_cache_misses_total")
	L["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	L["server.renders_per_read"] = ratio(delta(m0, m1, "wcmd_query_renders_total"), hits+misses)
	shared, leader := delta(m0, m1, "wcmd_query_singleflight_shared_total"), delta(m0, m1, "wcmd_query_singleflight_leader_total")
	L["server.singleflight_shared_frac"] = ratio(shared, shared+leader)
	coalesce := ratio(delta(m0, m1, "wcmd_ingest_coalesce_batches_sum"), delta(m0, m1, "wcmd_ingest_coalesce_batches_count"))
	L["server.coalesce_mean"] = coalesce
	L["server.degraded_frac"] = ratio(delta(m0, m1, "wcmd_degraded_responses_total"), nRead)
	ingests := delta(m0, m1, "wcmd_ingest_batches_total")
	samples := delta(m0, m1, "wcmd_samples_ingested_total")
	L["wal.fsyncs_per_req"] = ratio(delta(m0, m1, "wcmd_wal_fsyncs_total"), ingests)
	admitted, throttled := delta(m0, m1, "wcmd_tenant_admitted_total"), delta(m0, m1, "wcmd_tenant_throttled_total")
	L["qos.throttled_frac"] = ratio(throttled, admitted+throttled+
		delta(m0, m1, "wcmd_tenant_shed_total")+delta(m0, m1, "wcmd_tenant_degraded_total"))

	// In-process, outside-in timings of each module's public functions.
	lg := &ledger{w: w, seed: b.o.seed, dir: b.dir, group: max(1, int(math.Round(coalesce)))}
	if err := lg.measure(L); err != nil {
		return verdict{}, nil, err
	}
	if w.durable {
		L["wal.bytes_per_sample"] = ratio(float64(tp.dirBytes1-tp.dirBytes0), samples)
		if L["wal.replay_s"], err = lg.replay(dd); err != nil {
			return verdict{}, nil, err
		}
	}
	for k, x := range rd.values() {
		L[k] = x
	}

	// Reconciliation from the spans: the blocking request's children, with
	// the HTTP exchange split into wcmd's in-process time and the rest.
	reqName := "request." + kindNames[w.blocking]
	selfs := selfTimes(b.cl.spans, reqName)
	serverUs := L["server.read_hit_us"]
	if w.blocking == opIngest {
		serverUs = L["server.ingest_us"]
	}
	L["net.overhead_us"] = L["client.ttfb_us"] - serverUs
	e2e := selfs[reqName].P50Dur
	L["ledger.coverage"] = ratio(selfs["gen.wait"].P50Self+L["net.overhead_us"]+serverUs+
		selfs["client.body"].P50Self+selfs["client.decode"].P50Self, e2e)
	var lu, lt []float64
	for _, r := range resU {
		if r.kind == w.blocking && r.out == outOK {
			lu = append(lu, float64(r.done-r.due)/1e3)
		}
	}
	for _, r := range resT {
		if r.kind == w.blocking && r.out == outOK {
			lt = append(lt, float64(r.done-r.due)/1e3)
		}
	}
	L["ledger.trace_overhead_frac"] = ratio(median(lt), median(lu)) - 1

	v := verdict{Correct: rd.correct(w), Attempted: rd.attempted + len(resT), Failed: rd.failed + failures(resT),
		Metrics: map[string]metric{}}
	for _, m := range layerMetrics {
		x, ok := L[m.name]
		if !ok || math.IsNaN(x) {
			x = 0
		}
		v.Metrics[m.name] = metric{x, m.unit}
	}
	arrows := map[string]string{}
	for _, m := range layerMetrics {
		arrows[m.name] = m.arrow
	}
	report := rd.report()
	report["spans_file"] = spanFile
	report["self_times"] = selfs
	report["arrows"] = arrows
	report["wal_in_use"] = w.durable
	return v, report, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfRow summarizes one span name: p50 duration and p50 self time (the
// duration minus what its child spans cover), in microseconds.
type selfRow struct {
	N       int     `json:"n"`
	P50Dur  float64 `json:"p50_us"`
	P50Self float64 `json:"p50_self_us"`
}

// selfTimes summarizes the span trees whose root is named root.
func selfTimes(spans []span, root string) map[string]selfRow {
	child := map[uint32]int64{} // per request: total child duration
	want := map[uint32]bool{}
	for _, s := range spans {
		if s.Parent != "" {
			child[s.Req] += s.End - s.Start
		} else if s.Name == root {
			want[s.Req] = true
		}
	}
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		if !want[s.Req] {
			continue
		}
		d := float64(s.End-s.Start) / 1e3
		self := d
		if s.Parent == "" {
			self -= float64(child[s.Req]) / 1e3
		}
		durs[s.Name] = append(durs[s.Name], d)
		selfs[s.Name] = append(selfs[s.Name], self)
	}
	out := map[string]selfRow{}
	for name, d := range durs {
		out[name] = selfRow{N: len(d), P50Dur: median(d), P50Self: median(selfs[name])}
	}
	return out
}

// ledger times each module's public functions in process, on inputs drawn
// from the workload's own generator and with wcmd's own configuration.
type ledger struct {
	w     *workload
	seed  uint64
	dir   string
	group int // WAL/stream group size: the coalescing wcmd showed
}

// wcmdConfig is the server.Config wcmd builds from its flag defaults plus
// the workload's flags (logs discarded).
func wcmdConfig(w *workload) (server.Config, error) {
	var tenants []qos.TenantConfig
	for i := 0; i+1 < len(w.flags); i++ {
		if w.flags[i] == "-tenant" {
			tc, err := qos.ParseTenantFlag(w.flags[i+1])
			if err != nil {
				return server.Config{}, err
			}
			tenants = append(tenants, tc)
		}
	}
	return server.Config{
		Shards:            server.DefaultShards,
		MaxBodyBytes:      server.DefaultMaxBodyBytes,
		Stream:            stream.Config{Window: stream.DefaultWindow, MaxK: stream.DefaultMaxK},
		Logger:            obs.Discard(),
		RequestTimeout:    10 * time.Second,
		MaxInflightIngest: server.DefaultMaxInflightIngest,
		MaxInflightRead:   server.DefaultMaxInflightRead,
		IngestRing:        1024,
		CoalesceBudget:    server.DefaultCoalesceBudget,
		TraceSample:       server.DefaultTraceSample,
		SnapshotInterval:  time.Minute,
		Tenants:           tenants,
	}, nil
}

func openWAL(dir string, cfg server.Config) (*wal.Manager, error) {
	return wal.Open(wal.Options{Dir: dir, Shards: cfg.Shards, Policy: wal.PolicyBatch, Stream: cfg.Stream})
}

// timeLoop calls f up to n times, stopping early once budget is spent, and
// returns each call's duration in microseconds and the mean allocations
// per call.
func timeLoop(n int, budget time.Duration, f func(i int)) ([]float64, float64) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	durs := make([]float64, 0, n)
	end := time.Now().Add(budget)
	for i := 0; i < n && (i < 10 || time.Now().Before(end)); i++ {
		t0 := time.Now()
		f(i)
		durs = append(durs, float64(time.Since(t0))/1e3)
	}
	runtime.ReadMemStats(&ms1)
	return durs, float64(ms1.Mallocs-ms0.Mallocs) / float64(len(durs))
}

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.h }
func (r *recorder) WriteHeader(c int)   { r.code = c }
func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}
func (r *recorder) reset() { clear(r.h); r.code = 0; r.body.Reset() }

const ledgerBudget = 400 * time.Millisecond

// ingestOps draws n ingest ops from a fresh generator for the workload.
func (lg *ledger) ingestOps(n int) (*generator, []op, error) {
	g, err := newGenerator(lg.w, lg.seed, 1)
	if err != nil {
		return nil, nil, err
	}
	r := rand.New(rand.NewSource(int64(lg.seed)))
	rates := make([]weighted[uint8], len(lg.w.sources))
	for si, s := range lg.w.sources {
		rates[si] = weighted[uint8]{uint8(si), s.rate}
	}
	var ops []op
	for len(ops) < n {
		if o := g.makeOp(r, pick(r, rates), 0); o.kind == opIngest {
			ops = append(ops, o)
		}
	}
	return g, ops, nil
}

func (lg *ledger) measure(L map[string]float64) error {
	cfg, err := wcmdConfig(lg.w)
	if err != nil {
		return err
	}
	if lg.w.durable {
		if cfg.WAL, err = openWAL(filepath.Join(lg.dir, "ledger-wal"), cfg); err != nil {
			return err
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	rec := &recorder{h: http.Header{}}
	serve := func(req *http.Request) int {
		rec.reset()
		h.ServeHTTP(rec, req)
		return rec.code
	}

	g, ops, err := lg.ingestOps(2000)
	if err != nil {
		return err
	}
	tenantOf := func(stream int32) string { return lg.w.sources[g.streams[stream].src].tenant }
	ingestReq := func(o op) *http.Request {
		ts, ds := g.streams[o.stream].appendSamples(g.pools, o.off, int(o.n), nil, nil)
		req, _ := http.NewRequest(http.MethodPost, "/v1/streams/"+g.streams[o.stream].id+"/ingest",
			bytes.NewReader(wirefmt.AppendBatch(nil, ts, ds)))
		req.Header.Set("Content-Type", server.ContentTypeBinary)
		if t := tenantOf(o.stream); t != "" {
			req.Header.Set("X-Wcm-Tenant", t)
		}
		return req
	}

	// server.ingest: the workload's ingests, requests built ahead.
	reqs := make([]*http.Request, len(ops))
	for i, o := range ops {
		reqs[i] = ingestReq(o)
	}
	d, allocs := timeLoop(len(reqs), 2*ledgerBudget, func(i int) { serve(reqs[i]) })
	L["server.ingest_us"], L["server.ingest_allocs"] = median(d), allocs

	// Read paths on a few streams filled to a full window.
	const hot = 8
	readIDs := make([]int32, 0, hot)
	for i := 0; i < hot && i < len(g.streams); i++ {
		s := int32(i)
		readIDs = append(readIDs, s)
		off := g.cursor[s]
		for done := 0; done < stream.DefaultWindow; done += 512 {
			if code := serve(ingestReq(op{stream: s, n: 512, off: off + int64(done)})); code != http.StatusOK && code != http.StatusTooManyRequests {
				return fmt.Errorf("ledger prefill: status %d", code)
			}
		}
		g.cursor[s] = off + stream.DefaultWindow
	}
	readReq := func(i int) *http.Request {
		s := readIDs[i%len(readIDs)]
		req, _ := http.NewRequest(http.MethodGet, "/v1/streams/"+g.streams[s].id+"/curves", nil)
		if i%2 == 1 {
			req.Header.Set("Accept", server.ContentTypeQueryBinary)
		}
		if t := tenantOf(s); t != "" {
			req.Header.Set("X-Wcm-Tenant", t)
		}
		return req
	}
	reqs = reqs[:0]
	for i := 0; i < 4000; i++ {
		reqs = append(reqs, readReq(i))
	}
	for _, r := range reqs[:2*hot] { // first reads render; the timed ones hit
		serve(r)
	}
	d, allocs = timeLoop(len(reqs), ledgerBudget, func(i int) { serve(reqs[i]) })
	L["server.read_hit_us"], L["server.read_hit_allocs"] = median(d), allocs

	// Misses: a one-sample ingest (untimed) bumps the version before each read.
	bumps := make([]*http.Request, 400)
	for i := range bumps {
		s := readIDs[i%len(readIDs)]
		bumps[i] = ingestReq(op{stream: s, n: 1, off: g.cursor[s]})
		g.cursor[s]++
	}
	var miss []float64
	for i := range bumps {
		serve(bumps[i])
		t0 := time.Now()
		serve(reqs[i])
		miss = append(miss, float64(time.Since(t0))/1e3)
	}
	L["server.read_miss_us"] = median(miss)

	qbody := []byte(`{"ids":[`)
	for i, s := range readIDs {
		if i > 0 {
			qbody = append(qbody, ',')
		}
		qbody = strconv.AppendQuote(qbody, g.streams[s].id)
	}
	qbody = append(qbody, `],"verdict":true,"minfreq_b":2,"check":{"freq_hz":50000000,"buffer":2}}`...)
	d, _ = timeLoop(2000, ledgerBudget, func(int) {
		req, _ := http.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(qbody))
		serve(req)
	})
	L["server.query_batch_us"] = median(d)

	if err := lg.measureStream(L, g, ops); err != nil {
		return err
	}
	if err := lg.measureWAL(L, g, ops, cfg); err != nil {
		return err
	}
	tb := qos.NewTokenBucket(beRate, beBurst)
	now := time.Now().UnixNano()
	t0 := time.Now()
	const takes = 200000
	for i := 0; i < takes; i++ {
		tb.Take(now + int64(i)*1000)
	}
	L["qos.take_ns"] = float64(time.Since(t0)) / takes
	return nil
}

// measureStream times the stream, kernel, netcalc and wirefmt layers on
// one stream fed the workload's batches, grouped as wcmd coalesced them.
func (lg *ledger) measureStream(L map[string]float64, g *generator, ops []op) error {
	cfg := stream.Config{Window: stream.DefaultWindow, MaxK: stream.DefaultMaxK}
	st, err := stream.New(cfg)
	if err != nil {
		return err
	}
	m := &g.streams[0]
	var off int64
	var batches []stream.Batch
	var bodies [][]byte
	samples := 0
	for _, o := range ops {
		ts, ds := m.appendSamples(g.pools, off, int(o.n), nil, nil)
		off += int64(o.n)
		batches = append(batches, stream.Batch{Ts: ts, Demands: ds})
		bodies = append(bodies, wirefmt.AppendBatch(nil, ts, ds))
		samples += int(o.n)
	}
	results := make([]stream.BatchResult, lg.group)
	t0 := time.Now()
	for i := 0; i < len(batches); i += lg.group {
		j := min(i+lg.group, len(batches))
		st.IngestBatches(batches[i:j], results[:j-i])
		for _, r := range results[:j-i] {
			if r.Err != nil {
				return fmt.Errorf("ledger stream ingest: %w", r.Err)
			}
		}
	}
	L["stream.apply_ns_per_sample"] = float64(time.Since(t0)) / float64(samples)

	var ts, ds []int64
	t0 = time.Now()
	for _, b := range bodies {
		ts, ds, err = wirefmt.DecodeBatch(b, ts[:0], ds[:0])
		if err != nil {
			return err
		}
	}
	L["wirefmt.decode_batch_ns_per_sample"] = float64(time.Since(t0)) / float64(samples)

	d, _ := timeLoop(2000, ledgerBudget, func(int) { st.Snapshot() }) //nolint:errcheck // filled stream
	L["stream.snapshot_us"] = median(d)
	L["stream.state_bytes"] = float64(len(st.ExportState().AppendBinary(nil)))
	d, _ = timeLoop(2000, ledgerBudget, func(int) { st.MinFrequency(oracleBuffer) }) //nolint:errcheck // filled stream
	L["netcalc.minfreq_us"] = median(d)
	d, _ = timeLoop(2000, ledgerBudget, func(int) { st.CheckService(oracleFreqHz, oracleLatencyNs, oracleBuffer) }) //nolint:errcheck // filled stream
	L["netcalc.check_us"] = median(d)

	// The anchor: prefix sums of a full window, extracted single-worker.
	prefix := make([]int64, stream.DefaultWindow+1)
	for i := 0; i < stream.DefaultWindow; i++ {
		_, dd := m.sample(g.pools, int64(i))
		prefix[i+1] = prefix[i] + dd
	}
	up, lo := make([]int64, stream.DefaultMaxK+1), make([]int64, stream.DefaultMaxK+1)
	d, _ = timeLoop(500, ledgerBudget, func(int) {
		kernel.ExtractInto(prefix, stream.DefaultMaxK, kernel.Options{Workers: 1}, up, lo) //nolint:errcheck // valid sizes
	})
	L["kernel.anchor_us"] = median(d)
	return nil
}

// measureWAL appends the workload's batches to a fresh log on the run's
// filesystem in groups of the coalescing wcmd showed, committing each.
func (lg *ledger) measureWAL(L map[string]float64, g *generator, ops []op, cfg server.Config) error {
	dir := filepath.Join(lg.dir, "ledger-wal-append")
	mgr, err := openWAL(dir, cfg)
	if err != nil {
		return err
	}
	// Records go to the shard log wcmd would pick (FNV-1a of the id, the
	// partitioning the WAL format fixes), with per-stream versions, so the
	// directory replays like one wcmd wrote.
	shardOf := func(id string) int {
		h := fnv.New32a()
		h.Write([]byte(id)) //nolint:errcheck // hash writes cannot fail
		return int(h.Sum32() % uint32(cfg.Shards))
	}
	version := map[int32]int64{}
	var app, commit []float64
	samples := 0
	end := time.Now().Add(2 * ledgerBudget)
	for i := 0; i < len(ops) && time.Now().Before(end); i += lg.group {
		byShard := map[int][]wal.IngestRec{}
		for _, o := range ops[i:min(i+lg.group, len(ops))] {
			m := &g.streams[o.stream]
			ts, ds := m.appendSamples(g.pools, o.off, int(o.n), nil, nil)
			version[o.stream]++
			sh := shardOf(m.id)
			byShard[sh] = append(byShard[sh], wal.IngestRec{ID: m.id, Version: version[o.stream], Ts: ts, Ds: ds})
			samples += int(o.n)
		}
		for sh, recs := range byShard {
			log := mgr.Shard(sh)
			t0 := time.Now()
			if err := log.AppendIngestGroup(recs); err != nil {
				mgr.Close()
				return err
			}
			t1 := time.Now()
			if err := log.Commit(); err != nil {
				mgr.Close()
				return err
			}
			app = append(app, float64(t1.Sub(t0))/1e3)
			commit = append(commit, float64(time.Since(t1))/1e6)
		}
	}
	if err := mgr.Close(); err != nil {
		return err
	}
	L["wal.append_us"] = median(app)
	cs := append([]float64(nil), commit...)
	sort.Float64s(cs)
	L["wal.commit_ms_p50"] = quantile(cs, 50)
	L["wal.commit_ms_p99"] = quantile(cs, tailPct(len(cs)))
	L["wal.bytes_per_sample"] = ratio(float64(dirBytes(dir)), float64(samples))
	L["wal.replay_s"], err = lg.replay(dir)
	return err
}

// replay times recovery of a data directory: wal.Open plus server.New,
// which replays snapshots and the log tail into the registry.
func (lg *ledger) replay(dir string) (float64, error) {
	cfg, err := wcmdConfig(lg.w)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if cfg.WAL, err = openWAL(dir, cfg); err != nil {
		return 0, err
	}
	srv, err := server.New(cfg)
	if err != nil {
		cfg.WAL.Close()
		return 0, err
	}
	d := time.Since(t0).Seconds()
	srv.Close()
	return d, nil
}
