package main

import (
	"math"
	"sort"
	"time"
)

// phaseStats summarizes one phase's results. Latencies run from each
// request's due time, so a stall is charged to every request queued behind
// it; lateness is the part of that spent waiting to be sent.
//
// The latencies and wcmd's CPU time come from the phase's one-second
// windows in which the hypervisor stole no more CPU than in the least
// stolen quarter of them: on a shared virtual machine, steal comes and goes
// over seconds and slows client and server alike, and it varies far more
// between runs than anything wcmd does. Ties keep every window they cover,
// so on a quiet machine the whole phase counts.
type phaseStats struct {
	Seconds  float64        `json:"seconds"`
	Ingest   latencySummary `json:"ingest_ms"`
	Query    latencySummary `json:"query_ms"`
	Late     latencySummary `json:"late_ms"`
	Limited  latencySummary `json:"limited_ms"`      // the limited sources, misses counted as infinite
	LateEnd  float64        `json:"late_end_p50_ms"` // median lateness over the phase's last quarter, all windows
	Achieved float64        `json:"achieved_rps"`    // all windows
	CPUPerOK float64        `json:"cpu_us_per_req"`  // wcmd CPU time per answered request
	Steal    []float64      `json:"window_steal"`    // steal share of each window
	Kept     []int          `json:"kept_windows"`
	Counts   [outSkipped + 1]int
}

// e2eMetrics are the untraced run's gated metrics; BENCHMARK.json's
// end_to_end list mirrors it and adds each one's regression bound. They are
// the ones that hold steady on a shared virtual machine whose CPU steal
// swings between runs. Wall-clock latency and capacity move with the steal
// of the moment more than with wcmd, so they are reported ungated: on the
// untraced run's detail line, and as per-layer metrics of traced runs.
var e2eMetrics = []struct{ name, unit, better string }{
	{"cpu_us_per_req", "us", "lower"},
	{"rss_peak_mb", "MiB", "lower"},
	{"ok_frac", "ratio", "higher"},
	{"setup_s", "s", "lower"},
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// missMs is the latency a failed, refused or unsent request counts as
// against a latency limit: longer than any limit, and finite for JSON.
const missMs = 1e6

// runPhase sends sched, sampling steal and wcmd's CPU time meanwhile, and
// summarizes the results of the phase of length d.
func (b *bench) runPhase(sched [][]op, d, grace time.Duration) ([]result, phaseStats) {
	smp := startSampler(b.proc)
	res := b.cl.run(sched, d+grace)
	smp.finish()
	return res, summarizePhase(b.w, res, d, smp)
}

// summarizePhase summarizes the results of a phase of length d that began
// at smp's first reading.
func summarizePhase(w *workload, res []result, d time.Duration, smp *sampler) phaseStats {
	ps := phaseStats{Seconds: d.Seconds()}
	k := max(1, int(d/time.Second))
	start := smp.pts[0].t
	ps.Steal = make([]float64, k)
	cpu := make([]time.Duration, k)
	order := make([]int, k)
	for j := range order {
		order[j] = j
		ps.Steal[j], cpu[j] = smp.between(start.Add(d*time.Duration(j)/time.Duration(k)),
			start.Add(d*time.Duration(j+1)/time.Duration(k)))
	}
	sort.SliceStable(order, func(a, b int) bool { return ps.Steal[order[a]] < ps.Steal[order[b]] })
	limit := ps.Steal[order[(k+3)/4-1]]
	kept := make([]bool, k)
	var cpuKept time.Duration
	for j, st := range ps.Steal {
		if st <= limit {
			kept[j] = true
			ps.Kept = append(ps.Kept, j)
			cpuKept += cpu[j]
		}
	}

	var ing, qry, late, lim, lateEnd []float64
	answered, answeredKept := 0, 0
	for _, r := range res {
		ps.Counts[r.out]++
		f := float64(r.due) / float64(d)
		in := kept[min(k-1, max(0, int(f*float64(k))))]
		limited := !w.sources[r.src].besteffort
		ok := r.out == outOK || r.out == outDegraded
		if limited && !ok && in {
			lim = append(lim, missMs)
		}
		if r.out == outSkipped {
			continue
		}
		if f >= 0.75 {
			lateEnd = append(lateEnd, ms(r.sent-r.due))
		}
		if ok {
			answered++
		}
		if !in {
			continue
		}
		late = append(late, ms(r.sent-r.due))
		if !ok {
			continue
		}
		answeredKept++
		l := ms(r.done - r.due)
		if limited {
			lim = append(lim, l)
		}
		if r.kind == opIngest {
			ing = append(ing, l)
		} else {
			qry = append(qry, l)
		}
	}
	ps.Ingest, ps.Query, ps.Late, ps.Limited = summarize(ing), summarize(qry), summarize(late), summarize(lim)
	ps.LateEnd = median(lateEnd)
	ps.Achieved = float64(answered) / d.Seconds()
	ps.CPUPerOK = ratio(float64(cpuKept)/float64(time.Microsecond), float64(answeredKept))
	return ps
}

// meets reports whether a phase held the workload's latency limit without
// a growing send backlog.
func (ps phaseStats) meets(w *workload) bool {
	return ps.Limited.Tail <= w.limitMs && ps.LateEnd <= w.limitMs
}

// sustained returns the highest rate on the ladder that meets the latency
// limit. Every rung runs, so one stall below the knee cannot end the search
// early; between the highest rung that met the limit and the rung above it,
// the rate is interpolated on log p99.
func sustained(w *workload, rungs []phaseStats) (rps float64, topped bool) {
	best := -1
	for i, r := range rungs {
		if r.meets(w) {
			best = i
		}
	}
	if best < 0 {
		return rungs[0].Achieved * math.Min(1, w.limitMs/rungs[0].Limited.Tail), false
	}
	if best == len(rungs)-1 {
		return rungs[best].Achieved, true
	}
	lo, hi := rungs[best], rungs[best+1]
	frac := 0.0
	if hi.Limited.Tail < missMs && hi.Limited.Tail > w.limitMs {
		frac = (math.Log(w.limitMs) - math.Log(lo.Limited.Tail)) / (math.Log(hi.Limited.Tail) - math.Log(lo.Limited.Tail))
		frac = math.Max(0, math.Min(1, frac))
	}
	return lo.Achieved + frac*(hi.Achieved-lo.Achieved), false
}

// runData is what one run measured, traced or not.
type runData struct {
	setups, recov     []float64
	res               []result // the nominal phase
	nom               phaseStats
	rungs             []phaseStats // nominal first, then the ladder
	rps               float64
	topped            bool
	hwm               int64
	orc               oracleReport
	orcKill           *oracleReport
	attempted, failed int
	traced            *tracedPhase
}

// tracedPhase is the traced run's second nominal phase, with wcmd's
// /metrics and data-directory size around it.
type tracedPhase struct {
	res                  []result
	m0, m1               promSample
	dirBytes0, dirBytes1 int64
}

// measure runs set-up (setups times), the nominal phase, with trace a
// traced copy of it, the rate ladder, the oracle and the kill -9
// reboots.
func (b *bench) measure(setups int, trace bool) (*runData, error) {
	w := b.w
	rd := &runData{}
	for i := 0; i < setups; i++ {
		d, err := b.setUp()
		if err != nil {
			return nil, err
		}
		rd.setups = append(rd.setups, d.Seconds())
	}

	// Nominal phase: half the run at the workload's nominal rate.
	nominal := time.Duration(b.o.seconds) * time.Second / 2
	rd.res, rd.nom = b.runPhase(b.g.schedule(1, nominal, 0), nominal, 2*time.Second)
	var err error
	if rd.hwm, err = b.proc.vmHWM(); err != nil {
		return nil, err
	}
	rd.attempted, rd.failed = len(rd.res), failures(rd.res)
	if trace {
		if rd.traced, err = b.runTraced(nominal); err != nil {
			return nil, err
		}
	}

	// A durable wcmd is crashed after the nominal phase, so recovery
	// replays the same amount of log in every run; the ladder then runs on
	// the recovered process. An in-memory wcmd loses its streams on a
	// crash, so it is crashed at the end.
	if w.durable {
		if rd.recov, rd.orcKill, err = b.crashRecover(); err != nil {
			return nil, err
		}
	}

	// Ladder: the other half, split over the rungs.
	rd.rungs = []phaseStats{rd.nom}
	rungDur := time.Duration(b.o.seconds) * time.Second / 2 / time.Duration(len(w.ladder))
	for _, scale := range w.ladder {
		rr, ps := b.runPhase(b.g.schedule(scale, rungDur, 0), rungDur, time.Second)
		rd.attempted += len(rr)
		rd.failed += failures(rr)
		rd.rungs = append(rd.rungs, ps)
	}
	rd.rps, rd.topped = sustained(w, rd.rungs)

	rd.orc = b.cl.verify()
	if !w.durable {
		if rd.recov, _, err = b.crashRecover(); err != nil {
			return nil, err
		}
	}
	for _, o := range []*oracleReport{&rd.orc, rd.orcKill} {
		if o != nil {
			rd.attempted += o.Answers
			rd.failed += len(o.Errors)
		}
	}
	return rd, nil
}

// runTraced repeats the nominal phase with client spans on, scraping
// /metrics around it.
func (b *bench) runTraced(d time.Duration) (*tracedPhase, error) {
	tp := &tracedPhase{}
	var err error
	dd := b.dataDir(b.setup - 1)
	if tp.m0, err = scrapeMetrics(b.proc.addr); err != nil {
		return nil, err
	}
	tp.dirBytes0 = dirBytes(dd)
	b.cl.trace = true
	tp.res = b.cl.run(b.g.schedule(1, d, 0), d+2*time.Second)
	b.cl.trace = false
	if tp.m1, err = scrapeMetrics(b.proc.addr); err != nil {
		return nil, err
	}
	tp.dirBytes1 = dirBytes(dd)
	return tp, nil
}

// correct reports whether every answer of the run was right and the run
// measured wcmd rather than a stalled generator.
func (rd *runData) correct(w *workload) bool {
	ok := len(rd.orc.Errors) == 0 && (rd.orcKill == nil || len(rd.orcKill.Errors) == 0) &&
		rd.nom.Late.Tail <= validityFactor*w.limitMs
	for _, r := range rd.rungs {
		ok = ok && r.Counts[outWrong] == 0
	}
	if rd.traced != nil {
		ok = ok && failures(rd.traced.res) == 0
	}
	return ok
}

// values are every metric of the run by name: the end-to-end ones gated by
// BENCHMARK.json and the latency and capacity figures reported beside them.
func (rd *runData) values() map[string]float64 {
	answered := rd.nom.Counts[outOK] + rd.nom.Counts[outDegraded]
	return map[string]float64{
		"setup_s":        median(append([]float64(nil), rd.setups...)),
		"ingest_p50_ms":  rd.nom.Ingest.P50,
		"ingest_p99_ms":  rd.nom.Ingest.Tail,
		"query_p50_ms":   rd.nom.Query.P50,
		"query_p99_ms":   rd.nom.Query.Tail,
		"sustained_rps":  rd.rps,
		"ok_frac":        float64(answered) / math.Max(1, float64(len(rd.res))),
		"cpu_us_per_req": rd.nom.CPUPerOK,
		"rss_peak_mb":    float64(rd.hwm) / (1 << 20),
		"recovery_s":     median(append([]float64(nil), rd.recov...)),
	}
}

// report is the run's detail line: every count behind the metrics.
func (rd *runData) report() map[string]any {
	return map[string]any{
		"setup_s":           rd.setups,
		"recovery_s":        rd.recov,
		"nominal":           rd.nom,
		"ladder":            rd.rungs[1:],
		"ladder_topped":     rd.topped,
		"oracle":            rd.orc,
		"oracle_after_kill": rd.orcKill,
	}
}

func (b *bench) untraced() (verdict, map[string]any, error) {
	rd, err := b.measure(3, false)
	if err != nil {
		return verdict{}, nil, err
	}
	vals := rd.values()
	v := verdict{Correct: rd.correct(b.w), Attempted: rd.attempted, Failed: rd.failed, Metrics: map[string]metric{}}
	report := rd.report()
	// The detail line carries the ungated latency and capacity figures
	// too, with the units the traced run prints them in.
	all := map[string]metric{}
	for _, m := range layerMetrics {
		if x, ok := vals[m.name]; ok {
			all[m.name] = metric{x, m.unit}
		}
	}
	for _, m := range e2eMetrics {
		v.Metrics[m.name] = metric{vals[m.name], m.unit}
		all[m.name] = v.Metrics[m.name]
	}
	report["metrics"] = all
	return v, report, nil
}

// crashRecover kills wcmd with SIGKILL and boots it again, timing each boot
// until /healthz answers; the median of several is reported. A boot does
// not checkpoint, so every boot over a crashed data directory replays the
// same log. On a durable wcmd the oracle then checks that every
// acknowledged batch survived.
func (b *bench) crashRecover() ([]float64, *oracleReport, error) {
	boots := 5
	if b.w.durable {
		boots = 3 // each replays the whole log
	}
	crashed := b.dataDir(b.setup - 1)
	var times []float64
	for i := 0; i < boots; i++ {
		d, err := b.restart(crashed)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d.Seconds())
	}
	if !b.w.durable {
		return times, nil, nil
	}
	rep := b.cl.verify()
	return times, &rep, nil
}

// failures counts requests that failed unexpectedly: transport errors,
// timeouts, unexpected statuses and wrong answers. Refusals by QoS and
// sends cut by a phase's hard stop are not failures of wcmd.
func failures(res []result) int {
	n := 0
	for _, r := range res {
		if r.out == outFailed || r.out == outTimeout || r.out == outWrong {
			n++
		}
	}
	return n
}
