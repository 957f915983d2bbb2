package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"wcm/internal/stream"
)

// maxCachedQueries caps the per-stream, per-tenant parameterized result
// maps (/check and /minfreq keys). A stream version rarely sees more than
// a handful of distinct query parameters; the cap only guards against a
// client sweeping parameters faster than the stream ingests. On overflow
// the tenant's bucket starts a fresh epoch rather than evicting — simpler,
// and the whole map dies at the next version bump anyway. The cap is
// scoped per tenant bucket on purpose: one tenant spinning distinct
// parameters resets only its own bucket and can never evict another
// tenant's cached entries. Epoch resets are counted
// (wcmd_query_cache_epoch_resets_total) so an operator can see a
// parameter sweep happening.
const maxCachedQueries = 256

// cachedResp is one fully rendered HTTP answer: status plus the exact body
// bytes, stamped with the stream version it was computed at and the wire
// format of the body. Hits replay the bytes, so a cached response is
// bit-identical to the miss that populated it by construction.
type cachedResp struct {
	status  int
	body    []byte
	version int64
	binary  bool // body is the columnar query encoding, not JSON
}

// checkKey identifies a /check query. All fields are comparable, so the
// struct is directly usable as a map key.
type checkKey struct {
	freqHz    float64
	latencyNs int64
	buffer    int
}

// respSlot is a single-answer cache cell: one atomic pointer to the most
// recently rendered response for an unparameterized (endpoint, format)
// pair. A hit is one atomic load plus a version compare — no state clone,
// no map, no lock. Publishing never clones anything: the slot either
// advances to a newer version or keeps what it has (a CAS loop drops stale
// results that lost a race against a fresher render).
type respSlot struct {
	p atomic.Pointer[cachedResp]
}

// get returns the cached answer iff it was rendered at version.
func (s *respSlot) get(version int64) *cachedResp {
	if r := s.p.Load(); r != nil && r.version == version {
		return r
	}
	return nil
}

// last returns whatever the slot holds, any version — the degraded-read
// fallback, which explicitly serves stale answers.
func (s *respSlot) last() *cachedResp { return s.p.Load() }

// put installs r unless the slot already holds a newer version.
func (s *respSlot) put(r *cachedResp) {
	for {
		old := s.p.Load()
		if old != nil && old.version > r.version {
			return
		}
		if s.p.CompareAndSwap(old, r) {
			return
		}
	}
}

// paramMap is an immutable-after-publish two-level map of parameterized
// answers at one version: tenant name → key → answer. Readers obtain it
// with a single atomic load and may look up any key without
// synchronization; writers never mutate a published map — they clone the
// outer map (inner maps are shared by reference, being immutable too),
// extend the one tenant bucket they touch and compare-and-swap. Unlike
// the old whole-cache clone-on-miss, only these small capped maps are
// ever copied, and only when a genuinely new parameter shows up at an
// unchanged version.
type paramMap[K comparable] struct {
	version int64
	m       map[string]map[K]*cachedResp
}

// paramCache is the per-(endpoint, format) parameterized answer cache.
// The zero value is ready to use.
type paramCache[K comparable] struct {
	p atomic.Pointer[paramMap[K]]
}

// get returns tenant's answer for k iff the published map is at version.
func (c *paramCache[K]) get(version int64, tenant string, k K) *cachedResp {
	if pm := c.p.Load(); pm != nil && pm.version == version {
		return pm.m[tenant][k]
	}
	return nil
}

// getAny returns an answer for k at whatever version is published — the
// degraded-read fallback. The tenant's own bucket is preferred; failing
// that, any tenant's entry serves: cached bodies are functions of the
// stream alone, so cross-tenant reuse of stale bytes is sound.
func (c *paramCache[K]) getAny(tenant string, k K) *cachedResp {
	pm := c.p.Load()
	if pm == nil {
		return nil
	}
	if r := pm.m[tenant][k]; r != nil {
		return r
	}
	for _, bucket := range pm.m {
		if r := bucket[k]; r != nil {
			return r
		}
	}
	return nil
}

// put records tenant's answer for k at version. reset reports that the
// tenant's bucket hit the cap and a fresh epoch replaced it (the caller
// counts those); other tenants' buckets are never touched by a reset.
// A stale version (older than the published map) is dropped.
func (c *paramCache[K]) put(version int64, tenant string, k K, r *cachedResp) (reset bool) {
	for {
		old := c.p.Load()
		if old != nil && old.version > version {
			return reset
		}
		next := &paramMap[K]{version: version}
		if old != nil && old.version == version {
			bucket := old.m[tenant]
			next.m = make(map[string]map[K]*cachedResp, len(old.m)+1)
			for ot, ob := range old.m {
				next.m[ot] = ob
			}
			if len(bucket) >= maxCachedQueries {
				reset = true
				next.m[tenant] = map[K]*cachedResp{k: r}
			} else {
				nb := make(map[K]*cachedResp, len(bucket)+1)
				for ok, ov := range bucket {
					nb[ok] = ov
				}
				nb[k] = r
				next.m[tenant] = nb
			}
		} else {
			next.m = map[string]map[K]*cachedResp{tenant: {k: r}}
		}
		if c.p.CompareAndSwap(old, next) {
			return reset
		}
	}
}

// ---- singleflight ----------------------------------------------------------

// Endpoint ordinals for flight keys.
const (
	epCurves uint8 = iota
	epCheck
	epMinFreq
	epVerdict
)

// flightKey names one render: which endpoint, which wire format, which
// query parameters, at which stream generation. The version is part of the
// key on purpose — a reader that observed version 6 must not piggyback on a
// render started for version 5.
type flightKey struct {
	ep      uint8
	binary  bool
	version int64
	ck      checkKey // zero unless ep == epCheck
	b       int      // zero unless ep == epMinFreq
}

// flightCall is one in-progress render. done closes when resp/err are set;
// followers block on it (bounded by their request context).
type flightCall struct {
	done chan struct{}
	resp *cachedResp
	err  error
}

// flightGroup deduplicates concurrent renders of the same flightKey: the
// first goroutine in becomes the leader and renders, later arrivals wait
// for its result. The map only ever holds in-progress calls, so the mutex
// is uncontended except during an actual miss storm — hits never touch it.
type flightGroup struct {
	mu sync.Mutex
	m  map[flightKey]*flightCall
}

// errRenderAborted is what followers see when the leader panicked before
// producing a result (the panic itself propagates on the leader's request).
var errRenderAborted = errors.New("concurrent render aborted")

// do runs render under singleflight for key. Exactly one caller (the
// leader) executes render; concurrent callers with the same key wait for
// the leader's result until ctx expires, then fail with stream.ErrBusy so
// the caller's degraded-read fallback takes over. led reports whether this
// call was the leader (for metrics).
func (g *flightGroup) do(ctx context.Context, key flightKey, render func() (*cachedResp, error)) (resp *cachedResp, led bool, err error) {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			if c.resp == nil && c.err == nil {
				return nil, false, errRenderAborted
			}
			return c.resp, false, c.err
		case <-ctx.Done():
			return nil, false, stream.ErrBusy
		}
	}
	if g.m == nil {
		g.m = make(map[flightKey]*flightCall)
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()
	defer func() {
		// Publish-then-release even on panic: followers must never be
		// stranded on done, and the flight must leave the map so the next
		// request can retry rather than join a dead call.
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.resp, c.err = render()
	return c.resp, true, c.err
}

// ---- per-stream cache ------------------------------------------------------

// queryCache is the per-stream version-keyed response cache. The zero value
// is ready to use.
//
// Invalidation needs no explicit step: stream.Stream bumps its version
// (atomically, under the stream lock, before the mutating call returns) on
// every ingest batch, contract change and forced re-extraction, and every
// lookup compares the cached answer's version against Stream.Version().
// An answer rendered at an older version simply stops matching; the next
// miss renders a successor into its slot. Hits are one atomic load (plus a
// map lookup for parameterized endpoints) — no locks, no stream access,
// and unlike the previous design a miss never clones cache state: each
// endpoint/format pair owns an independent slot.
type queryCache struct {
	curves    respSlot // GET /curves, JSON
	curvesBin respSlot // GET /curves, binary
	verdict   respSlot // GET /verdict (JSON only)

	check      paramCache[checkKey] // POST /check, JSON
	checkBin   paramCache[checkKey] // POST /check, binary
	minfreq    paramCache[int]      // GET /minfreq, JSON; key: buffer b
	minfreqBin paramCache[int]      // GET /minfreq, binary

	flights flightGroup
}

func (c *queryCache) curvesSlot(binary bool) *respSlot {
	if binary {
		return &c.curvesBin
	}
	return &c.curves
}

func (c *queryCache) checkCache(binary bool) *paramCache[checkKey] {
	if binary {
		return &c.checkBin
	}
	return &c.check
}

func (c *queryCache) minfreqCache(binary bool) *paramCache[int] {
	if binary {
		return &c.minfreqBin
	}
	return &c.minfreq
}
