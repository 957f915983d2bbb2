package main

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"wcm/internal/events"
	"wcm/internal/mpeg2"
)

// opKind is the kind of one generated request.
type opKind uint8

const (
	opIngest  opKind = iota // POST /v1/streams/{id}/ingest, binary batch
	opCurves                // GET  /v1/streams/{id}/curves
	opCheck                 // POST /v1/streams/{id}/check
	opMinFreq               // GET  /v1/streams/{id}/minfreq?b=2
	opVerdict               // GET  /v1/streams/{id}/verdict
	opQuery                 // POST /v1/query over several streams
	numKinds
)

var kindNames = [numKinds]string{"ingest", "curves", "check", "minfreq", "verdict", "query"}

// op is one request of the schedule. Ingest ops carry the stream's sample
// range [off, off+n); the bytes are derived from it at send time, so the
// schedule stays small however long the run.
type op struct {
	due    time.Duration // send time, relative to the phase start
	kind   opKind
	bin    bool // ask for (and decode) the binary query encoding
	src    uint8
	stream int32
	n      int32
	off    int64
	ids    []int32 // opQuery only
}

type weighted[T any] struct {
	v T
	w float64
}

func pick[T any](r *rand.Rand, xs []weighted[T]) T {
	total := 0.0
	for _, x := range xs {
		total += x.w
	}
	u := r.Float64() * total
	for _, x := range xs {
		if u < x.w {
			return x.v
		}
		u -= x.w
	}
	return xs[len(xs)-1].v
}

// source is one independent user population: a tenant sending an open-loop
// stream of requests over a range of streams.
type source struct {
	tenant    string        // X-Wcm-Tenant header; empty sends none
	rate      float64       // mean requests/s at ladder scale 1
	cv        float64       // inter-arrival coefficient of variation: 1 = Poisson, >1 = Gamma
	first     int           // first stream index
	count     int           // streams the source may address
	growEvery time.Duration // >0: the active set starts at one stream and grows by one per interval
	mix       []weighted[opKind]
	batches   []weighted[int]
	queryIDs  int // streams per opQuery
	// besteffort marks a source whose refusals are policy, not overload:
	// its requests do not count against the workload's latency limit.
	besteffort bool
}

// interarrival draws the gap to the next request (absim's client-delay
// model): exponential for cv = 1, Gamma with shape 1/cv² otherwise.
func (s *source) interarrival(r *rand.Rand, rate float64) time.Duration {
	var x float64
	if s.cv == 1 {
		x = r.ExpFloat64() / rate
	} else {
		k := 1 / (s.cv * s.cv)
		x = gammaSample(r, k) / (rate * k)
	}
	return time.Duration(x * 1e9)
}

// gammaSample draws Gamma(k, 1) by Marsaglia–Tsang, boosting k < 1.
func gammaSample(r *rand.Rand, k float64) float64 {
	if k < 1 {
		return gammaSample(r, k+1) * math.Pow(r.Float64(), 1/k)
	}
	d := k - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x || math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// streamModel derives a stream's samples from its index alone: timestamps
// advance by period plus a hashed jitter below period/2 (so they strictly
// increase), demands cycle through one of the variable-demand pools.
type streamModel struct {
	id      string
	src     uint8
	pool    int
	poolOff int
	t0      int64
	period  int64
	key     uint64
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (m *streamModel) sample(pools [][]int64, i int64) (t, d int64) {
	t = m.t0 + i*m.period + int64(splitmix(m.key^uint64(i))%uint64(m.period/2))
	p := pools[m.pool]
	return t, p[(int64(m.poolOff)+i)%int64(len(p))]
}

// appendSamples appends samples [off, off+n) of m to ts and ds.
func (m *streamModel) appendSamples(pools [][]int64, off int64, n int, ts, ds []int64) ([]int64, []int64) {
	for i := off; i < off+int64(n); i++ {
		t, d := m.sample(pools, i)
		ts = append(ts, t)
		ds = append(ds, d)
	}
	return ts, ds
}

const poolLen = 4096

// demandPools builds the variable-demand traces streams draw from: the
// paper's polling task (Example 1), multi-mode processes, and MPEG-2
// macroblock demands of clips from the case-study library.
func demandPools(seed uint64) ([][]int64, error) {
	var pools [][]int64
	for i, p := range []struct{ T, lo, hi, ep, ec int64 }{
		{1000, 3000, 9000, 900, 120},
		{500, 2000, 20000, 4000, 300},
	} {
		d, err := events.PollingDemands(p.T, p.lo, p.hi, p.ep, p.ec, poolLen, seed+uint64(i))
		if err != nil {
			return nil, err
		}
		pools = append(pools, d)
	}
	for i, modes := range [][]events.Mode{
		{{Lo: 100, Hi: 200, MinRun: 20, MaxRun: 80}, {Lo: 900, Hi: 1400, MinRun: 5, MaxRun: 30}},
		{{Lo: 50, Hi: 60, MinRun: 100, MaxRun: 300}, {Lo: 300, Hi: 800, MinRun: 10, MaxRun: 50}, {Lo: 2000, Hi: 2500, MinRun: 1, MaxRun: 4}},
	} {
		d, err := events.ModalDemands(modes, poolLen, seed+10+uint64(i))
		if err != nil {
			return nil, err
		}
		pools = append(pools, d)
	}
	lib := mpeg2.Library()
	for i := 0; i < 2; i++ {
		clip := lib[int((seed+uint64(i)*7)%uint64(len(lib)))]
		st, err := mpeg2.Generate(mpeg2.DefaultStream(3), clip)
		if err != nil {
			return nil, err
		}
		var d events.DemandTrace
		if i == 0 {
			d, err = st.DemandsPE1(mpeg2.DefaultPE1Costs())
		} else {
			d, err = st.DemandsPE2(mpeg2.DefaultPE2Costs())
		}
		if err != nil {
			return nil, err
		}
		pools = append(pools, d[:poolLen])
	}
	return pools, nil
}

// generator owns the deterministic request schedule of one run: the stream
// models, the per-stream sample cursors that successive phases continue,
// and the seed every phase's randomness is drawn from.
type generator struct {
	w       *workload
	seed    uint64
	nconn   int
	pools   [][]int64
	streams []streamModel
	cursor  []int64 // next unscheduled sample per stream
	phase   int
}

func newGenerator(w *workload, seed uint64, nconn int) (*generator, error) {
	pools, err := demandPools(seed)
	if err != nil {
		return nil, fmt.Errorf("demand pools: %w", err)
	}
	g := &generator{w: w, seed: seed, nconn: nconn, pools: pools,
		streams: make([]streamModel, w.streams), cursor: make([]int64, w.streams)}
	r := rand.New(rand.NewSource(int64(splitmix(seed))))
	for si, s := range w.sources {
		for i := s.first; i < s.first+s.count; i++ {
			period := int64(1000 + r.Intn(9000))
			g.streams[i] = streamModel{
				id:      fmt.Sprintf("%s-%d", cmp.Or(s.tenant, "s"), i),
				src:     uint8(si),
				pool:    r.Intn(len(pools)),
				poolOff: r.Intn(poolLen),
				t0:      int64(r.Intn(1 << 20)),
				period:  period,
				key:     splitmix(seed ^ uint64(i)<<32),
			}
		}
	}
	return g, nil
}

// connOf pins a stream to one connection, so its samples reach wcmd in
// timestamp order and its reads observe every earlier acknowledged ingest.
func (g *generator) connOf(stream int32) int { return int(stream) % g.nconn }

// prefill returns, per connection, ingests that fill every stream of the
// workload's prefill set to w.prefill samples, all due at once.
func (g *generator) prefill() [][]op {
	out := make([][]op, g.nconn)
	const chunk = 512
	for i := 0; i < g.w.prefillStreams; i++ {
		for done := 0; done < g.w.prefill; done += chunk {
			n := min(chunk, g.w.prefill-done)
			o := op{kind: opIngest, src: g.streams[i].src, stream: int32(i), n: int32(n), off: g.cursor[i]}
			g.cursor[i] += int64(n)
			out[g.connOf(o.stream)] = append(out[g.connOf(o.stream)], o)
		}
	}
	return out
}

// schedule generates the next phase: every source's arrivals over d at
// scale × its nominal rate (or, with count > 0, exactly count arrivals all
// due at once — the closed-loop warm-up), merged by due time and split by
// connection.
func (g *generator) schedule(scale float64, d time.Duration, count int) [][]op {
	r := rand.New(rand.NewSource(int64(splitmix(g.seed ^ uint64(g.phase+1)<<40))))
	g.phase++
	var all []op
	if count > 0 {
		rates := make([]weighted[uint8], len(g.w.sources))
		for si, s := range g.w.sources {
			rates[si] = weighted[uint8]{uint8(si), s.rate}
		}
		for i := 0; i < count; i++ {
			all = append(all, g.makeOp(r, pick(r, rates), 0))
		}
	}
	for si := range g.w.sources {
		s := &g.w.sources[si]
		for t := s.interarrival(r, s.rate*scale); count == 0 && t < d; t += s.interarrival(r, s.rate*scale) {
			all = append(all, g.makeOp(r, uint8(si), t))
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].due < all[j].due })
	out := make([][]op, g.nconn)
	for _, o := range all {
		c := g.connOf(o.stream)
		out[c] = append(out[c], o)
	}
	return out
}

func (g *generator) makeOp(r *rand.Rand, si uint8, due time.Duration) op {
	s := &g.w.sources[si]
	active := s.count
	if s.growEvery > 0 {
		active = min(s.count, 1+int(due/s.growEvery))
	}
	pickStream := func() int32 {
		// Zipf ranks: rank 0 is the most popular. A growing set makes its
		// newest stream the most popular, so bursts land on cold streams.
		rank := int(rand.NewZipf(r, 1.1, 1, uint64(active-1)).Uint64())
		if s.growEvery > 0 {
			rank = active - 1 - rank
		}
		return int32(s.first + rank)
	}
	o := op{due: due, src: si, kind: pick(r, s.mix)}
	o.stream = pickStream()
	if g.cursor[o.stream] == 0 {
		// Reads poll streams being written: a stream's first request
		// writes it.
		o.kind = opIngest
	}
	switch o.kind {
	case opIngest:
		o.n = int32(pick(r, s.batches))
		o.off = g.cursor[o.stream]
		g.cursor[o.stream] += int64(o.n)
	case opCurves, opCheck, opMinFreq:
		o.bin = r.Intn(2) == 1
	case opQuery:
		o.ids = append(o.ids, o.stream)
		for tries := 0; len(o.ids) < s.queryIDs && tries < 8*s.queryIDs; tries++ {
			id := pickStream()
			dup := g.cursor[id] == 0
			for _, x := range o.ids {
				dup = dup || x == id
			}
			if !dup {
				o.ids = append(o.ids, id)
			}
		}
	}
	return o
}
