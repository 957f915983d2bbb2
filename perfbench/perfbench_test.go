package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"wcm/internal/server"
	"wcm/internal/wirefmt"
)

// A stall must be charged to every request queued behind it: latency runs
// from the due time, not the send time.
func TestStallChargedToQueuedRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	var n atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 10 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"version":0,"admitted":true,"contract_set":false,"total":0,"violations":0,"drift":0}` + "\n")) //nolint:errcheck // test server
	}))
	defer ts.Close()

	w := &workload{streams: 1, limitMs: 5, sources: []source{{rate: 1000, cv: 1, count: 1}}}
	g, err := newGenerator(w, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl := newClient(g, ts.Listener.Addr().String(), 1)
	defer cl.close()
	var sched []op
	for i := 0; i < 100; i++ {
		sched = append(sched, op{due: time.Duration(i) * time.Millisecond, kind: opVerdict})
	}
	smp := startSampler(nil)
	res := cl.run([][]op{sched}, time.Minute)
	smp.finish()
	if len(res) != 100 {
		t.Fatalf("%d results, want 100", len(res))
	}
	stalled := res[9]
	for _, r := range res[10:] {
		if r.out != outOK {
			t.Fatalf("request due %v: outcome %d", r.due, r.out)
		}
		// Each request due while the stalled one was in flight waits out
		// the rest of the stall.
		if behind := r.due - stalled.due; behind < stall*3/4 {
			if got, min := r.done-r.due, stall-behind-5*time.Millisecond; got < min {
				t.Errorf("request due %v after the stall: latency %v, want ≥ %v", behind, got, min)
			}
		}
	}
	ps := summarizePhase(w, res, 100*time.Millisecond, smp)
	if ps.Late.Tail < ms(stall)/2 {
		t.Errorf("lateness tail %.1f ms does not show a %v stall", ps.Late.Tail, stall)
	}
	// 100 samples: p99 and p95 have fewer than ten beyond them, p90 has ten.
	if ps.Query.N != 100 || ps.Query.TailPct != 90 {
		t.Errorf("query summary n=%d tail p%v, want n=100 tail p90", ps.Query.N, ps.Query.TailPct)
	}
	if ps.meets(w) {
		t.Errorf("a %v stall met a %v ms limit", stall, w.limitMs)
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {1000, 99}, {999, 95}, {200, 95}, {100, 90}, {40, 75}, {20, 50}, {19, 0}} {
		if got := tailPct(c.n); got != c.want {
			t.Errorf("tailPct(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if s := summarize(xs); s.N != 5000 || s.TailPct != 99 || s.Tail != 4950 || s.P50 != 2500 {
		t.Errorf("summarize(1..5000) = %+v", s)
	}
}

// scheduleDigest hashes a schedule and every byte the ingests would send.
func scheduleDigest(g *generator, sched [][]op) string {
	h := sha256.New()
	for c, ops := range sched {
		for _, o := range ops {
			fmt.Fprintf(h, "%d %d %d %v %d %d %d %d %v\n", c, o.due, o.kind, o.bin, o.src, o.stream, o.n, o.off, o.ids)
			if o.kind == opIngest {
				ts, ds := g.streams[o.stream].appendSamples(g.pools, o.off, int(o.n), nil, nil)
				h.Write(wirefmt.AppendBatch(nil, ts, ds))
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestScheduleDeterministic(t *testing.T) {
	for _, w := range workloads {
		digest := func(seed uint64) string {
			g, err := newGenerator(w, seed, 2)
			if err != nil {
				t.Fatal(err)
			}
			d := scheduleDigest(g, g.prefill())
			d += scheduleDigest(g, g.schedule(1, 0, w.warmup))
			d += scheduleDigest(g, g.schedule(1, 2*time.Second, 0))
			return d + scheduleDigest(g, g.schedule(w.ladder[0], time.Second, 0))
		}
		if a, b := digest(7), digest(7); a != b {
			t.Errorf("%s: seed 7 gave two different schedules", w.name)
		}
		if digest(7) == digest(8) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
	}
}

// The oracle agrees with wcmd's handler on a short read_mostly run served
// in process, and the per-request checks pass.
func TestOracleAgreesWithServer(t *testing.T) {
	w, err := workloadByName("read_mostly")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := wcmdConfig(w)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	g, err := newGenerator(w, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	cl := newClient(g, ts.Listener.Addr().String(), 2)
	defer cl.close()
	for _, sched := range [][][]op{g.prefill(), g.schedule(0.2, time.Second, 0)} {
		for _, r := range cl.run(sched, time.Minute) {
			if r.out != outOK {
				t.Fatalf("%s request: outcome %d", kindNames[r.kind], r.out)
			}
		}
	}
	rep := cl.verify()
	if len(rep.Errors) > 0 || rep.Streams == 0 {
		t.Fatalf("oracle: %+v", rep)
	}
}

// BENCHMARK.json lists exactly the workloads and metrics this program runs
// and prints, in the same order, names, units and directions.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range b.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	for _, m := range b.EndToEnd {
		got = append(got, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, m := range e2eMetrics {
		want = append(want, m.name+" "+m.unit+" "+m.better)
	}
	for _, m := range b.PerLayer {
		got = append(got, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, m := range layerMetrics {
		want = append(want, m.name+" "+m.unit+" "+m.better)
	}
	if !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json lists\n%q\nthe program runs\n%q", got, want)
	}
}
