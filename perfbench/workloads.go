package main

import (
	"fmt"
	"time"

	"wcm/internal/stream"
)

// workload is one traffic mix and the wcmd configuration it runs against.
type workload struct {
	name    string
	flags   []string // wcmd flags beyond -addr (and -data-dir when durable)
	durable bool     // run wcmd with -data-dir; kill -9 it after the nominal phase
	streams int
	sources []source
	// prefill fills streams [0, prefillStreams) to prefill samples each
	// during set-up.
	prefill, prefillStreams int
	warmup                  int // closed-loop requests at the end of set-up
	// ladder holds the rate scales (× the nominal rate) tried for
	// sustained_rps, ascending, in ~10% steps around the knee where the
	// send backlog starts to grow. limitMs is the p99 latency a rung must
	// meet: above the stall floor this machine shows at any rate, so that
	// the knee, not a stray stall, decides.
	ladder  []float64
	limitMs float64
	// blocking is the request kind whose p50 the ledger reconciles.
	blocking opKind
}

func (w *workload) totalRate() float64 {
	r := 0.0
	for _, s := range w.sources {
		r += s.rate
	}
	return r
}

// A run whose nominal phase sends more than validityFactor × limitMs late
// (at p99) measured the generator, not wcmd, and is invalid.
const validityFactor = 10

var (
	mixIngestHeavy = []weighted[opKind]{{opIngest, 90}, {opCurves, 5}, {opVerdict, 5}}
	mixReadMostly  = []weighted[opKind]{
		{opIngest, 5}, {opCurves, 30}, {opCheck, 20}, {opMinFreq, 20}, {opVerdict, 15}, {opQuery, 10}}
	mixInteractive = []weighted[opKind]{{opIngest, 60}, {opCurves, 15}, {opMinFreq, 10}, {opVerdict, 15}}
	mixBestEffort  = []weighted[opKind]{{opIngest, 70}, {opCurves, 20}, {opVerdict, 10}}

	// Mostly 64-sample batches with a heavy tail of long ones.
	batchesHeavyTail = []weighted[int]{{64, 90}, {256, 7}, {1024, 2.5}, {4096, 0.5}}
)

// workloads are the benchmark's traffic mixes; BENCHMARK.json lists them
// in this order with the reason each exists.
var workloads = []*workload{
	{
		// The ingest path does the work: decode, ring hop and coalescing,
		// stream apply, the kernel anchor every Window samples, WAL append
		// and fsync. Reads mostly miss: writes keep invalidating the cache.
		name:    "ingest_durable",
		durable: true,
		streams: 300,
		sources: []source{{
			rate: 400, cv: 1, first: 0, count: 300,
			mix: mixIngestHeavy, batches: batchesHeavyTail,
		}},
		// One batch per stream during set-up, so the measured phases see
		// no stream creation.
		prefill: 64, prefillStreams: 300,
		warmup:   400,
		ladder:   []float64{2.6, 2.9, 3.2, 3.5, 3.9, 4.3, 4.7},
		limitMs:  50,
		blocking: opIngest,
	},
	{
		// The read path does the work: cache hits, singleflight, rendering
		// in both encodings, netcalc on misses. The WAL is bypassed, so a
		// durability change must show no change here.
		name:    "read_mostly",
		streams: 64,
		sources: []source{{
			rate: 1500, cv: 1, first: 0, count: 64,
			mix: mixReadMostly, batches: []weighted[int]{{8, 1}}, queryIDs: 8,
		}},
		prefill: stream.DefaultWindow, prefillStreams: 64,
		warmup:   600,
		ladder:   []float64{2.7, 3, 3.3, 3.6, 4, 4.4, 4.8},
		limitMs:  25,
		blocking: opCurves,
	},
	{
		// A Clockwork-style mix: a steady interactive tenant on fixed
		// streams and a bursty besteffort tenant over a growing stream set
		// that outruns its token bucket and stream quota. The only workload
		// that exercises qos admission, throttled-read degradation, cold
		// stream creation and ring backpressure under bursts.
		name: "bursty_tenants",
		flags: []string{
			"-tenant", "ia:interactive",
			"-tenant", fmt.Sprintf("be:besteffort:%d:%d:%d", beRate, beBurst, beQuota),
		},
		streams: 8 + beStreams,
		sources: []source{
			{tenant: "ia", rate: 400, cv: 1, first: 0, count: 8,
				mix: mixInteractive, batches: []weighted[int]{{64, 1}}},
			{tenant: "be", besteffort: true, rate: 600, cv: 2, first: 8, count: beStreams, growEvery: 250 * time.Millisecond,
				mix: mixBestEffort, batches: []weighted[int]{{64, 3}, {256, 1}}},
		},
		warmup:   300,
		ladder:   []float64{1.4, 1.55, 1.7, 1.9, 2.1, 2.3, 2.5},
		limitMs:  25,
		blocking: opIngest,
	},
}

// The besteffort tenant's policy: its mean offered rate exceeds beRate, and
// its stream set outgrows beQuota.
const (
	beRate    = 400
	beBurst   = 40
	beQuota   = 24
	beStreams = 32
)

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
