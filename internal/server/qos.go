package server

// Multi-tenant QoS: tenant identity, per-tenant token-bucket admission,
// SLO-ordered shedding and stream quotas. See internal/qos for the
// primitives and DESIGN.md §16 for the admission order.
//
// Tenant resolution is bounded-cardinality by construction: a request
// names its tenant via the X-Wcm-Tenant header (or ?tenant= query param),
// and any name the registry does not know — including no name at all —
// resolves to the default tenant. Hostile clients therefore cannot mint
// metric label values, cache buckets or registry entries; they can only
// share the default tenant's budget.
//
// The untagged fast path stays allocation-free: one canonical-key header
// lookup, a RawQuery scan (no url.Values map), and the default tenant's
// nil bucket check.

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"wcm/internal/obs"
	"wcm/internal/qos"
)

// DefaultTenantName is the tenant untagged and unknown-tenant requests
// resolve to. Configuring a tenant with this name sets the default
// tenant's policy (rate, quota, SLO).
const DefaultTenantName = "default"

// tenantState is one tenant's runtime admission state. The counter
// quartet mirrors the wcmd_tenant_*_total metric families:
//
//	admitted  — requests that passed rate admission (they may still fail
//	            in the handler, or hit the tenant's stream quota)
//	throttled — requests rejected 429 by the tenant's own token bucket
//	shed      — requests turned away by SLO-ordered in-flight shedding
//	degraded  — throttled/shed reads answered 200 from the cached
//	            (possibly stale) snapshot path instead of being rejected
type tenantState struct {
	name   string
	slo    qos.SLO
	bucket *qos.TokenBucket // nil = unlimited rate
	rate   float64          // configured, for introspection
	burst  int

	maxStreams int64 // 0 = unlimited
	streams    atomic.Int64

	admitted  atomic.Uint64
	throttled atomic.Uint64
	shed      atomic.Uint64
	degraded  atomic.Uint64

	latency obs.Histogram
}

// reserveStream atomically claims one stream-quota slot; false when the
// tenant is at its cap. The CAS loop makes check-and-claim atomic across
// shards without a global lock.
func (t *tenantState) reserveStream() bool {
	if t == nil {
		return true
	}
	for {
		cur := t.streams.Load()
		if t.maxStreams > 0 && cur >= t.maxStreams {
			return false
		}
		if t.streams.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// releaseStream returns one quota slot (creation race lost, or stream
// deleted).
func (t *tenantState) releaseStream() {
	if t != nil {
		t.streams.Add(-1)
	}
}

// qosRegistry maps tenant names to their admission state. Immutable after
// New — lookups on the request path need no lock.
type qosRegistry struct {
	tenants map[string]*tenantState // nil when only the default tenant exists
	names   []string                // sorted, default included
	def     *tenantState
}

// newQoSRegistry builds the registry from Config. Always returns a usable
// registry: with no configured tenants it holds just the default tenant
// (unlimited, DefaultSLO), so the introspection surfaces and counters
// exist unconditionally.
func newQoSRegistry(tenants []qos.TenantConfig, defaultSLO string) (*qosRegistry, error) {
	defSLO := qos.Interactive
	if defaultSLO != "" {
		var err error
		if defSLO, err = qos.ParseSLO(defaultSLO); err != nil {
			return nil, fmt.Errorf("server: default slo: %w", err)
		}
	}
	r := &qosRegistry{}
	seen := make(map[string]bool, len(tenants))
	for _, tc := range tenants {
		if err := tc.Validate(); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		if seen[tc.Name] {
			return nil, fmt.Errorf("server: duplicate tenant %q", tc.Name)
		}
		seen[tc.Name] = true
		slo := defSLO
		if tc.SLO != "" {
			slo, _ = qos.ParseSLO(tc.SLO) // validated above
		}
		ts := &tenantState{
			name:       tc.Name,
			slo:        slo,
			bucket:     qos.NewTokenBucket(tc.RatePerSec, tc.Burst),
			rate:       tc.RatePerSec,
			burst:      tc.Burst,
			maxStreams: int64(tc.MaxStreams),
		}
		if ts.bucket == nil {
			ts.rate, ts.burst = 0, 0
		}
		if r.tenants == nil {
			r.tenants = make(map[string]*tenantState, len(tenants))
		}
		r.tenants[tc.Name] = ts
		if tc.Name == DefaultTenantName {
			r.def = ts
		}
	}
	if r.def == nil {
		r.def = &tenantState{name: DefaultTenantName, slo: defSLO}
		if r.tenants != nil {
			r.tenants[DefaultTenantName] = r.def
		}
	}
	if r.tenants != nil {
		r.names = make([]string, 0, len(r.tenants)+1)
		for name := range r.tenants {
			r.names = append(r.names, name)
		}
		if _, ok := r.tenants[DefaultTenantName]; !ok {
			r.names = append(r.names, DefaultTenantName)
		}
	} else {
		r.names = []string{DefaultTenantName}
	}
	sort.Strings(r.names)
	return r, nil
}

// lookup resolves a tenant name; unknown names land on the default tenant.
func (r *qosRegistry) lookup(name string) *tenantState {
	if name == "" || r.tenants == nil {
		return r.def
	}
	if ts := r.tenants[name]; ts != nil {
		return ts
	}
	return r.def
}

// state returns the tenantState listed under name (for introspection
// walks over r.names, where the default may not be in the map).
func (r *qosRegistry) state(name string) *tenantState {
	if r.tenants != nil {
		if ts := r.tenants[name]; ts != nil {
			return ts
		}
	}
	return r.def
}

// tenantQueryParam scans a raw query string for tenant=... without
// building the url.Values map (which allocates per call). Tenant names
// are restricted to [A-Za-z0-9_-], so no percent-decoding is needed — an
// escaped name simply fails to match and resolves to the default tenant.
func tenantQueryParam(raw string) string {
	const key = "tenant="
	for raw != "" {
		kv := raw
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			kv, raw = raw[:i], raw[i+1:]
		} else {
			raw = ""
		}
		if strings.HasPrefix(kv, key) {
			return kv[len(key):]
		}
	}
	return ""
}

// tenantFor resolves the request's tenant: X-Wcm-Tenant header first,
// ?tenant= query param second, default tenant otherwise.
func (s *Server) tenantFor(r *http.Request) *tenantState {
	name := r.Header.Get("X-Wcm-Tenant")
	if name == "" && r.URL.RawQuery != "" {
		name = tenantQueryParam(r.URL.RawQuery)
	}
	return s.qos.lookup(name)
}

// admitDecision is the outcome of request admission, attached to traces
// and resolved into tenant counters once the response status is known.
type admitDecision uint8

const (
	admitOK        admitDecision = iota
	admitThrottled               // tenant over its own rate budget
	admitShed                    // server in-flight pressure at this SLO's threshold
)

func (d admitDecision) String() string {
	switch d {
	case admitThrottled:
		return "throttled"
	case admitShed:
		return "shed"
	}
	return "ok"
}

// account resolves (decision, final status) into the tenant counter
// quartet. A throttled or shed request that still answered 200 was served
// by the degraded/cached path — that is the mixed-criticality degradation
// outcome, counted as degraded rather than rejected.
func (t *tenantState) account(d admitDecision, status int, lat time.Duration) {
	t.latency.Observe(lat)
	switch d {
	case admitOK:
		t.admitted.Add(1)
	case admitThrottled:
		if status == http.StatusOK {
			t.degraded.Add(1)
		} else {
			t.throttled.Add(1)
		}
	case admitShed:
		if status == http.StatusOK {
			t.degraded.Add(1)
		} else {
			t.shed.Add(1)
		}
	}
}

// errStreamQuota marks a creation refused by the owning tenant's
// stream quota; handlers answer it 429 instead of 500.
var errStreamQuota = errors.New("stream quota exceeded")

// writeThrottled answers a request rejected by its tenant's token bucket:
// 429 with a Retry-After computed from the bucket's refill deficit
// (already converted to whole seconds by retrySecsFromNs), so a
// well-behaved client backs off exactly as long as the budget needs.
func writeThrottled(w http.ResponseWriter, tenant string, secs int) {
	w.Header().Set("Retry-After", retryAfterValue(secs))
	writeJSON(w, http.StatusTooManyRequests,
		errorResponse{"tenant " + tenant + " over rate limit"})
}

// ---- GET /v1/tenants --------------------------------------------------------

// tenantJSON is one tenant's reading: its policy, its admission counters
// and its request latency. It is a /v1/tenants row, a /v1/stats tenant
// block, and the source of the wcmd_tenant_* series.
type tenantJSON struct {
	Name       string           `json:"name"`
	SLO        string           `json:"slo"`
	RatePerSec float64          `json:"rate_per_sec,omitempty"`
	Burst      int              `json:"burst,omitempty"`
	MaxStreams int64            `json:"max_streams,omitempty"`
	Streams    int64            `json:"streams"`
	Admitted   uint64           `json:"admitted"`
	Throttled  uint64           `json:"throttled"`
	Shed       uint64           `json:"shed"`
	Degraded   uint64           `json:"degraded"`
	Latency    latencyStatsJSON `json:"latency"`

	hist obs.HistSnapshot // the full distribution behind Latency
}

type tenantsResponse struct {
	DefaultSLO string       `json:"default_slo"`
	Tenants    []tenantJSON `json:"tenants"`
}

// handleTenants serves the QoS introspection surface: every configured
// tenant (plus the default) with its policy and counters. classNone —
// like /metrics, it must answer exactly when the service is drowning.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, tenantsResponse{
		DefaultSLO: s.qos.def.slo.String(),
		Tenants:    s.tenantReadings(),
	})
}

// tenantReadings samples every tenant, in name order: the tenant block of
// the scrape snapshot (see Server.collect).
func (s *Server) tenantReadings() []tenantJSON {
	out := make([]tenantJSON, 0, len(s.qos.names))
	for _, name := range s.qos.names {
		t := s.qos.state(name)
		hist := t.latency.Snapshot()
		out = append(out, tenantJSON{
			Name:       name,
			SLO:        t.slo.String(),
			RatePerSec: t.rate,
			Burst:      t.burst,
			MaxStreams: t.maxStreams,
			Streams:    t.streams.Load(),
			Admitted:   t.admitted.Load(),
			Throttled:  t.throttled.Load(),
			Shed:       t.shed.Load(),
			Degraded:   t.degraded.Load(),
			Latency:    latencyStatsFrom(hist, 0),
			hist:       hist,
		})
	}
	return out
}
