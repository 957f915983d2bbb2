package stream

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wcm/internal/arrival"
	"wcm/internal/core"
	"wcm/internal/curve"
	"wcm/internal/events"
	"wcm/internal/kernel"
	"wcm/internal/netcalc"
	"wcm/internal/pwl"
	"wcm/internal/service"
)

// Errors returned by this package (beyond ErrBadConfig).
var (
	ErrNoSamples = errors.New("stream: no samples ingested yet")
	ErrBadBatch  = errors.New("stream: invalid ingest batch")
	ErrNoSpans   = errors.New("stream: need at least 2 samples in window for span queries")
	// ErrBusy is returned by SnapshotWithin when the stream lock could not
	// be acquired inside the caller's budget — the signal the serving layer
	// uses to fall back to a cached (degraded) answer instead of blocking a
	// request past its deadline.
	ErrBusy = errors.New("stream: lock busy past deadline")
)

// Defaults for the zero-valued Config fields.
const (
	DefaultWindow = 1024
	DefaultMaxK   = 256
)

// scratch holds the temporaries of one audit or read: an audit's kernel
// input and outputs, and the tables Snapshot copies into its curves.
type scratch struct{ data, up, lo, up2, lo2 []int64 }

// scratchFree is a small free list of scratch shared by every stream, so a
// stream that is never read carries none. A buffered channel rather than a
// sync.Pool: the race detector makes a pool drop items at random, which
// would turn the allocation guards flaky. A scratch is held only for one
// read under one stream's lock, so 16 covers the reads that run at once
// on any likely GOMAXPROCS; past that a read allocates and the surplus is
// dropped.
var scratchFree = make(chan *scratch, 16)

func getScratch() *scratch {
	select {
	case sc := <-scratchFree:
		return sc
	default:
		return new(scratch)
	}
}

func putScratch(sc *scratch) {
	select {
	case scratchFree <- sc:
	default:
	}
}

// Config parameterizes a Stream. The zero value picks service defaults.
type Config struct {
	// Window is the sliding window length in samples. Default 1024; must be
	// ≥ 2.
	Window int
	// MaxK is the largest window length k the curves cover, capped to
	// Window. Default min(256, Window).
	MaxK int
}

// Resolved returns the config with every zero field replaced by its
// default — the exact parameters a stream built from c will run with.
// Durability layers (internal/wal) persist the resolved form so a config
// mismatch between the on-disk state and a restarted process is detected
// by equality, defaults included.
func (c Config) Resolved() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.Window == 0 {
		c.Window = DefaultWindow
	}
	if c.MaxK == 0 {
		c.MaxK = DefaultMaxK
	}
	if c.MaxK > c.Window {
		c.MaxK = c.Window
	}
	return c
}

// Stream is one task's live characterization: a sliding window of
// (timestamp, demand) samples with incrementally maintained workload curves
// γᵘ/γˡ and span tables d(k)/D(k), an optional admission contract, and the
// Network-Calculus queries of the paper evaluated against the CURRENT
// window. All methods are safe for concurrent use.
//
// The curves are settled on read. Ingest only appends to the two rings (and
// checks each new sample's windows against the contract, read from the
// prefix ring); the first read that needs curves — Workload, Spans,
// Snapshot, or an audit (Reextract, Audit) — catches the incremental
// extrema up with everything ingested since the previous read, in one pass
// over the rings. A backlog of a window or more has expired every recorded
// extremum, so that pass rescans the whole window: the settle "rebuilds".
// Answers are the same either way, and a settle does not move Version.
//
// A settle only settles. The check that the settled extrema equal a batch
// extraction of the window is an audit, run on demand (Reextract) or by a
// caller's sampled auditor (Audit) — never on the read path.
type Stream struct {
	mu     sync.Mutex
	window int
	maxK   int

	// version counts state mutations (ingest batches, contract changes,
	// audits that found a mismatch and rebuilt). It is bumped under mu
	// before the mutating call returns and is readable WITHOUT the lock, so
	// version-keyed caches (internal/server) can validate a hit with one
	// atomic load.
	//
	// version and lastMut are the only fields read lock-free while ingest
	// is writing everything around them, so they get their own cache line:
	// without the padding, every cache-validation load on a read path would
	// ping-pong the line that mu and the ring bookkeeping are being written
	// through (false sharing — one of the contention sources behind the
	// multicore ingest cliff).
	_       [64]byte
	version atomic.Int64
	lastMut atomic.Int64
	_       [64 - 16]byte

	// The window, stored once: times[i % window] is the timestamp of
	// sample i, and prefix[i % (window+1)] the sum of the first i demands
	// (wrapping in int64; differences stay exact). Demand i is
	// prefix[i+1] − prefix[i]. Until the window first fills, the rings hold
	// only the samples ingested so far (see growLocked): no index has
	// wrapped yet, so i % len is i and every reader indexes them alike.
	times  []int64
	prefix []int64
	total  int64 // samples ever ingested
	lastT  int64 // largest timestamp seen

	settled int64 // samples pre/spi have caught up with; settled ≤ total
	pre     *Inc  // over prefix: offsets 1..maxK
	spi     *Inc  // over times: offsets 1..maxK−1 (nil when maxK == 1)

	contract   *core.Bounds    // nil until a contract is set
	contractAt int64           // samples ingested before its install
	firstViol  *core.Violation // first contract violation ever seen
	violations int64           // total contract violations

	audits     int64 // audits run (see Reextract)
	mismatches int64 // audits that disagreed with the incremental state
	audited    int64 // version at the last audit

	obsT, obsD [1]int64 // Observe's single-sample batch, allocation-free
}

// New builds an empty stream.
func New(cfg Config) (*Stream, error) {
	cfg = cfg.withDefaults()
	if cfg.Window < 2 {
		return nil, fmt.Errorf("%w: window=%d (need ≥ 2)", ErrBadConfig, cfg.Window)
	}
	if cfg.MaxK < 1 {
		return nil, fmt.Errorf("%w: maxK=%d (need ≥ 1)", ErrBadConfig, cfg.MaxK)
	}
	s := &Stream{
		window: cfg.Window,
		maxK:   cfg.MaxK,
	}
	pre, err := NewInc(cfg.MaxK, cfg.Window+1)
	if err != nil {
		return nil, err
	}
	s.pre = pre
	if cfg.MaxK >= 2 {
		spi, err := NewInc(cfg.MaxK-1, cfg.Window)
		if err != nil {
			return nil, err
		}
		s.spi = spi
	}
	return s, nil
}

// IngestResult reports one accepted batch.
type IngestResult struct {
	Accepted   int             // samples in the batch
	Total      int64           // samples ever ingested
	Version    int64           // stream version after this batch's bump
	Violation  *core.Violation // first contract violation IN THIS BATCH, if any
	Violated   int             // samples of this batch that violated the contract
	Violations int64           // cumulative contract violations
	// Drift is the stream's audit mismatch count (expect 0): audits that
	// found the settled extrema disagreeing with a batch extraction of the
	// window. Ingest runs no audit, so this batch is not yet checked.
	Drift int64
}

// Ingest appends a batch of samples: timestamps (non-decreasing, not before
// anything already ingested) with their per-activation cycle demands
// (non-negative). Validation is all-or-nothing: a bad batch changes no
// state, and a valid one always applies. Ingest is an O(batch) append to
// the two rings, plus O(batch·window) for a contract's check; the curves
// catch up on the next read (see Stream).
func (s *Stream) Ingest(ts, demands []int64) (IngestResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := validateBatch(ts, demands, s.lastT); err != nil {
		return IngestResult{}, err
	}
	return s.ingestLocked(ts, demands), nil
}

// validateBatch checks one batch against the stream's shape, ordering and
// sign invariants, starting from `last` (the newest timestamp already
// accepted). It is the single source of truth for ingest validation —
// Ingest and IngestBatches must reject exactly the same batches with
// exactly the same errors, so a batch answers the same whether it is
// ingested alone or coalesced with others.
func validateBatch(ts, demands []int64, last int64) error {
	if len(ts) == 0 || len(ts) != len(demands) {
		return fmt.Errorf("%w: %d timestamps, %d demands", ErrBadBatch, len(ts), len(demands))
	}
	for i := range ts {
		if ts[i] < last {
			return fmt.Errorf("%w: timestamp %d at index %d precedes %d",
				ErrBadBatch, ts[i], i, last)
		}
		last = ts[i]
		if demands[i] < 0 {
			return fmt.Errorf("%w: negative demand %d at index %d",
				ErrBadBatch, demands[i], i)
		}
	}
	return nil
}

// ValidateBatch checks a batch exactly as Ingest checks it on a stream that
// holds no samples, with the same error: the check a caller can run before
// it creates a stream for the batch.
func ValidateBatch(ts, demands []int64) error { return validateBatch(ts, demands, 0) }

// Observe ingests a single sample with a caller-supplied clock reading,
// clamping a timestamp that lags the newest one already ingested forward
// to it instead of rejecting the batch. It exists for INTERNAL
// self-observation streams (internal/obs feeding the service's own
// request costs back into the model): concurrent request completions race
// to the stream lock, so their wall-clock timestamps arrive slightly out
// of order even though each reading was taken honestly. Clamping keeps
// the span tables well-defined (a reordered pair collapses to a
// simultaneous one) without the all-or-nothing validation external
// ingest needs. Demand must still be non-negative. Allocation-free in
// steady state.
func (s *Stream) Observe(t, demand int64) (IngestResult, error) {
	if demand < 0 {
		return IngestResult{}, fmt.Errorf("%w: negative demand %d", ErrBadBatch, demand)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t < s.lastT {
		t = s.lastT
	}
	s.obsT[0], s.obsD[0] = t, demand
	return s.ingestLocked(s.obsT[:], s.obsD[:]), nil
}

// ingestLocked applies a pre-validated batch: timestamps non-decreasing
// and ≥ lastT, demands non-negative, len(ts) == len(demands) ≥ 1. It writes
// the rings and checks the contract; pre/spi stay behind until a settle.
func (s *Stream) ingestLocked(ts, demands []int64) IngestResult {
	res := IngestResult{Accepted: len(ts)}
	s.growLocked(s.total + int64(len(ts)))
	// Only the newest window timestamps of the batch survive in the ring.
	skip := max(len(ts)-s.window, 0)
	slot := int((s.total + int64(skip)) % int64(s.window))
	n := copy(s.times[slot:], ts[skip:])
	copy(s.times, ts[skip+n:])
	w := int64(len(s.prefix))
	i := s.total % w
	p := s.prefix[i]
	c := s.contract
	for j, d := range demands {
		p += d
		if i++; i == w {
			i = 0
		}
		s.prefix[i] = p
		if c == nil {
			continue
		}
		// Checked before the next write: a batch longer than the window
		// overwrites the sums this sample's windows start from.
		if v := c.Check(s.prefix, int(i), int(s.total+int64(j)+1-s.contractAt)); v != nil {
			res.Violated++
			if s.firstViol == nil {
				s.firstViol = v
			}
			if res.Violation == nil {
				res.Violation = v
			}
		}
	}
	s.total += int64(len(ts))
	s.lastT = ts[len(ts)-1]
	s.violations += int64(res.Violated)
	s.bumpLocked()
	res.Total, res.Violations, res.Drift = s.total, s.violations, s.mismatches
	// The WAL tags each logged batch with the version it lands at, for
	// exactly-once replay.
	res.Version = s.version.Load()
	return res
}

// growLocked makes the rings hold the first n samples: short of a full
// window it doubles them (at least to n, at most to window and window+1
// slots), copying the samples in order — none has wrapped yet. A stream
// thus costs what its window holds; once full, ingest wraps in place.
func (s *Stream) growLocked(n int64) {
	c := len(s.times)
	if c == s.window || int64(c) >= n {
		return
	}
	c = int(min(max(n, int64(2*c), minGrow), int64(s.window)))
	times, prefix := make([]int64, c), make([]int64, c+1) // c+1 sums cover c samples
	copy(times, s.times)
	copy(prefix, s.prefix)
	s.times, s.prefix = times, prefix
}

// Batch is one ingest request's samples, as replayed from the WAL.
// Version is the stream version the batch first landed at (0 when
// unknown): replay raises the stream's version to it, so a version bump
// that left no log record (a contract change, a mismatching audit) does
// not leave the replayed stream numbering its batches below the log's.
type Batch struct {
	Ts      []int64
	Demands []int64
	Version int64
}

// BatchResult reports the outcome of one Batch of an IngestBatches call:
// exactly what the corresponding Ingest call would have returned.
type BatchResult struct {
	Res IngestResult
	Err error
}

// IngestBatches ingests a sequence of batches under ONE lock acquisition —
// how WAL recovery replays a stream's logged batches. Results are written
// into the caller-supplied results slice (len(results) must equal
// len(batches); both can be reused scratch, so a steady-state caller stays
// allocation-free).
//
// Each batch goes through exactly the validation and apply that Ingest
// uses, in order, so per batch the outcome is EXACTLY what a sequential
// Ingest call would have produced: an invalid batch records its validation
// error, changes no state, and does not break later batches; a valid batch
// records the same counts, total, violation attribution, and one version
// bump, raised further to the batch's Version when that is higher.
func (s *Stream) IngestBatches(batches []Batch, results []BatchResult) {
	if len(batches) != len(results) {
		panic(fmt.Sprintf("stream: IngestBatches with %d batches, %d results", len(batches), len(results)))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, b := range batches {
		if err := validateBatch(b.Ts, b.Demands, s.lastT); err != nil {
			results[i] = BatchResult{Err: err}
			continue
		}
		res := s.ingestLocked(b.Ts, b.Demands)
		if b.Version > res.Version {
			s.version.Store(b.Version)
			res.Version = b.Version
		}
		results[i] = BatchResult{Res: res}
	}
}

// Version returns the stream's mutation counter: it increases (and never
// decreases) every time an ingest batch, contract change or mismatching
// audit touches state. Reading it does not take the stream lock, so
// callers can validate version-keyed caches for free; Snapshot and Stats
// record the version consistent with their contents.
func (s *Stream) Version() int64 { return s.version.Load() }

// bumpLocked advances the version and stamps the mutation time. Must be
// called with mu held (or via defer scheduled under mu).
func (s *Stream) bumpLocked() {
	s.version.Add(1)
	s.lastMut.Store(time.Now().UnixNano())
}

// LastMutation returns the wall-clock time of the last state mutation, or
// the zero time if the stream was never mutated. Lock-free, like Version:
// a degraded read can stamp the answer it serves with its staleness
// without touching the contended stream.
func (s *Stream) LastMutation() time.Time {
	ns := s.lastMut.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// SetContract installs (or replaces) the admission contract: every
// subsequently ingested sample is checked against the workload
// characterization w over windows of 1..window activations, read from the
// stream's own prefix ring, and violations are recorded (see Stats and
// IngestResult). The window is core.NewBounds(w, window, Config.Window):
// 0 means the curves' common domain, at most the stream's window; above
// the stream's window is an error. Only windows that start after the call
// are checked.
func (s *Stream) SetContract(w core.Workload, window int) error {
	b, err := core.NewBounds(w, window, s.window)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.contract, s.contractAt = &b, s.total
	s.bumpLocked()
	return nil
}

// inWindowLocked returns the number of samples currently in the window.
func (s *Stream) inWindowLocked() int {
	if s.total < int64(s.window) {
		return int(s.total)
	}
	return s.window
}

// effKLocked returns the largest curve argument currently defined.
func (s *Stream) effKLocked() int {
	k := s.inWindowLocked()
	if k > s.maxK {
		k = s.maxK
	}
	return k
}

// appendRing appends the data points from..to−1 of ring (point i at
// ring[i % len(ring)]) to dst and returns the extended slice.
func appendRing(dst, ring []int64, from, to int64) []int64 {
	for i := from; i < to; i++ {
		dst = append(dst, ring[i%int64(len(ring))])
	}
	return dst
}

// demandsLocked appends the retained demands to dst in ingest order
// (oldest first): each is the difference of two adjacent prefix sums.
func (s *Stream) demandsLocked(dst []int64) []int64 {
	n := s.inWindowLocked()
	if n == 0 {
		return dst
	}
	from := len(dst)
	dst = appendRing(dst, s.prefix, s.total-int64(n), s.total+1)
	for i := from; i < from+n; i++ {
		dst[i] = dst[i+1] - dst[i]
	}
	return dst[:from+n]
}

// auditLocked settles the curves, runs the batch kernel over the current
// window contents and compares bit for bit with the incremental state. A
// disagreement counts a mismatch, rebuilds the incremental state from the
// window (the kernel wins) and bumps the version, so cached answers taken
// from the wrong extrema are not served again. An agreeing audit changes
// no answer and does not move the version.
func (s *Stream) auditLocked() error {
	s.settleLocked()
	s.audits++
	defer func() { s.audited = s.version.Load() }()
	n := s.inWindowLocked()
	if n == 0 {
		return nil
	}
	sc := getScratch()
	defer putScratch(sc)

	// Workload curves: prefix sums of the window's demands, base 0.
	start := s.total - int64(n)
	sc.data = appendRing(sc.data[:0], s.prefix, start, s.total+1)
	for i := n; i >= 0; i-- {
		sc.data[i] -= sc.data[0]
	}
	effK := s.effKLocked()
	sc.up = grow(sc.up, effK+1)
	sc.lo = grow(sc.lo, effK+1)
	// Workers: 1 — the audit runs under the stream mutex, and the kernel's
	// pool (its default at this window·K size) would spawn GOMAXPROCS
	// goroutines per audit while holding it: scheduler allocations (malg/
	// allocm) under the stream lock, plus worker fan-out behind the most
	// contended lock in the service.
	if err := kernel.ExtractInto(sc.data, effK, kernel.Options{Workers: 1}, sc.up, sc.lo); err != nil {
		return err
	}
	sc.up2, sc.lo2 = s.pre.AppendCurves(sc.up2[:0], sc.lo2[:0])
	agree := equal(sc.up[:effK+1], sc.up2) && equal(sc.lo[:effK+1], sc.lo2)

	// Span tables: the window's timestamps, offsets up to effK−1.
	if s.spi != nil && n >= 2 {
		sc.data = appendRing(sc.data[:0], s.times, start, s.total)
		off := effK - 1
		if err := kernel.ExtractInto(sc.data, off, kernel.Options{Workers: 1}, sc.up, sc.lo); err != nil {
			return err
		}
		sc.up2, sc.lo2 = s.spi.AppendCurves(sc.up2[:0], sc.lo2[:0])
		agree = agree && equal(sc.up[:off+1], sc.up2) && equal(sc.lo[:off+1], sc.lo2)
	}

	if !agree {
		s.mismatches++
		s.rebuildLocked()
		s.bumpLocked()
	}
	return nil
}

// settleLocked catches pre/spi up with every sample ingested since the last
// settle. It reports how many samples it settled and whether the backlog
// was a window or more (every offset rescanned).
func (s *Stream) settleLocked() (settled int, rebuilt bool) {
	backlog := s.total - s.settled
	if backlog == 0 {
		return 0, false
	}
	s.applyLocked()
	return int(backlog), backlog >= int64(s.window)
}

// rebuildLocked forgets every recorded extremum and catches pre/spi up from
// the retained window — how an audit recovers from a mismatch.
func (s *Stream) rebuildLocked() {
	s.pre.Reset()
	if s.spi != nil {
		s.spi.Reset()
	}
	s.applyLocked()
}

// applyLocked catches pre/spi up with the rings.
func (s *Stream) applyLocked() {
	s.pre.CatchUp(s.prefix, s.total+1)
	if s.spi != nil {
		s.spi.CatchUp(s.times, s.total)
	}
	s.settled = s.total
}

func grow(b []int64, n int) []int64 {
	if cap(b) < n {
		return make([]int64, n)
	}
	return b[:n]
}

func equal(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Workload materializes the current sliding-window characterization
// (γᵘ, γˡ) on k = 0..min(MaxK, samples in window).
func (s *Stream) Workload() (core.Workload, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settleLocked()
	return s.workloadLocked()
}

func (s *Stream) workloadLocked() (core.Workload, error) {
	if s.total == 0 {
		return core.Workload{}, ErrNoSamples
	}
	sc := getScratch()
	defer putScratch(sc)
	sc.up, sc.lo = s.pre.AppendCurves(sc.up[:0], sc.lo[:0])
	up, err := curve.NewFinite(sc.up)
	if err != nil {
		return core.Workload{}, err
	}
	lo, err := curve.NewFinite(sc.lo)
	if err != nil {
		return core.Workload{}, err
	}
	return core.Workload{Upper: up, Lower: lo}, nil
}

// Spans materializes the current span tables d(k) (minimal, behind ᾱ) and
// D(k) (maximal, behind ᾱˡ) for k = 1..min(MaxK, samples in window).
func (s *Stream) Spans() (arrival.Spans, arrival.MaxSpans, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settleLocked()
	return s.spansLocked()
}

func (s *Stream) spansLocked() (arrival.Spans, arrival.MaxSpans, error) {
	if s.total == 0 {
		return nil, nil, ErrNoSamples
	}
	// d(k)/D(k) are spi's (k−1)-difference extrema: its curves, shifted.
	sc := getScratch()
	defer putScratch(sc)
	sc.up, sc.lo = append(sc.up[:0], 0), append(sc.lo[:0], 0)
	if s.spi != nil {
		sc.up, sc.lo = s.spi.AppendCurves(sc.up[:0], sc.lo[:0])
	}
	mins, err := arrival.FromValues(sc.lo)
	if err != nil {
		return nil, nil, err
	}
	maxs, err := arrival.MaxSpansFromValues(sc.up)
	if err != nil {
		return nil, nil, err
	}
	return mins, maxs, nil
}

// Snapshot is a consistent point-in-time view of a stream: curves and span
// tables taken under one lock acquisition, tagged with the stream version
// they were taken at.
type Snapshot struct {
	Version  int64
	Total    int64
	InWindow int
	Workload core.Workload
	Spans    arrival.Spans
	MaxSpans arrival.MaxSpans

	// The settle this capture paid for: samples caught up since the
	// previous read, and whether that backlog forced a rebuild from the
	// window (see Stream). Zero when the curves were already current.
	Settled int
	Rebuilt bool
}

// Snapshot captures curves and spans atomically, settling them first.
func (s *Stream) Snapshot() (Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

// SnapshotWithin captures a snapshot like Snapshot, but gives up with
// ErrBusy if the stream lock cannot be acquired within d: it polls
// TryLock with a short growing sleep instead of queueing on the mutex, so
// a request that is already near its deadline never joins a convoy behind
// a long-held lock. d ≤ 0 means a single TryLock attempt.
func (s *Stream) SnapshotWithin(d time.Duration) (Snapshot, error) {
	if !s.lockWithin(d) {
		return Snapshot{}, ErrBusy
	}
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

// lockWithin tries to acquire mu for at most d, backing off from 50µs to
// 2ms between attempts. Reports whether the lock was acquired.
func (s *Stream) lockWithin(d time.Duration) bool {
	if s.mu.TryLock() {
		return true
	}
	if d <= 0 {
		return false
	}
	deadline := time.Now().Add(d)
	pause := 50 * time.Microsecond
	for {
		if rem := time.Until(deadline); rem <= 0 {
			return false
		} else if pause > rem {
			pause = rem
		}
		time.Sleep(pause)
		if s.mu.TryLock() {
			return true
		}
		if pause < 2*time.Millisecond {
			pause *= 2
		}
	}
}

// HoldLock acquires the stream lock and holds it for d before releasing.
// It is a fault-injection aid for resilience tests and the wcmd
// -inject-fault hook: it manufactures the lock contention a monster batch
// or a stalled ingest would cause, so degraded-read and deadline paths
// can be exercised deterministically. Never use it on a production path.
func (s *Stream) HoldLock(d time.Duration) {
	s.mu.Lock()
	time.Sleep(d)
	s.mu.Unlock()
}

func (s *Stream) snapshotLocked() (Snapshot, error) {
	settled, rebuilt := s.settleLocked()
	w, err := s.workloadLocked()
	if err != nil {
		return Snapshot{}, err
	}
	spans, maxs, err := s.spansLocked()
	if err != nil {
		return Snapshot{}, err
	}
	return Snapshot{
		Version:  s.version.Load(),
		Total:    s.total,
		InWindow: s.inWindowLocked(),
		Workload: w,
		Spans:    spans,
		MaxSpans: maxs,
		Settled:  settled,
		Rebuilt:  rebuilt,
	}, nil
}

// MinFrequency evaluates eq. (9) and eq. (10) against the snapshot: the
// minimum processor frequency avoiding overflow of a FIFO holding b events,
// by workload curve and by single-value WCET. The snapshot must hold at
// least 2 samples. Pure: callers may share one snapshot across queries.
func (sn *Snapshot) MinFrequency(b int) (netcalc.FrequencyComparison, error) {
	if sn.Spans.MaxK() < 2 {
		return netcalc.FrequencyComparison{}, ErrNoSpans
	}
	return netcalc.CompareFrequencies(sn.Spans, sn.Workload.Upper, b)
}

// CheckService evaluates eq. (8) against the snapshot: does a processor of
// freqHz (optionally a rate-latency server with latencyNs) keep a FIFO of b
// events from overflowing on this stream? Pure, like Snapshot.MinFrequency.
func (sn *Snapshot) CheckService(freqHz float64, latencyNs int64, b int) (bool, error) {
	if sn.Spans.MaxK() < 2 {
		return false, ErrNoSpans
	}
	var beta pwl.Curve
	var err error
	if latencyNs > 0 {
		beta, err = service.RateLatency(freqHz, latencyNs)
	} else {
		beta, err = service.Full(freqHz)
	}
	if err != nil {
		return false, err
	}
	return netcalc.CheckServiceConstraint(sn.Spans, beta, sn.Workload.Upper, b)
}

// MinFrequency evaluates eq. (9) and eq. (10) against the CURRENT window.
// At least 2 samples must be in the window.
func (s *Stream) MinFrequency(b int) (netcalc.FrequencyComparison, error) {
	snap, err := s.Snapshot()
	if err != nil {
		return netcalc.FrequencyComparison{}, err
	}
	return snap.MinFrequency(b)
}

// CheckService evaluates eq. (8) against the current window.
func (s *Stream) CheckService(freqHz float64, latencyNs int64, b int) (bool, error) {
	snap, err := s.Snapshot()
	if err != nil {
		return false, err
	}
	return snap.CheckService(freqHz, latencyNs, b)
}

// Stats is the stream's observability surface, current at capture. Reading
// it does not settle the curves.
type Stats struct {
	Version        int64           // mutation counter at capture time
	Total          int64           // samples ever ingested
	InWindow       int             // samples currently characterized
	Window         int             // configured sliding window
	MaxK           int             // configured curve domain
	LastTimestamp  int64           // largest timestamp ingested
	Audits         int64           // audits run (Reextract, Audit)
	Mismatches     int64           // audits that disagreed and rebuilt (expect 0)
	ContractSet    bool            // a contract is installed
	Violations     int64           // contract violations observed
	FirstViolation *core.Violation // earliest contract violation, if any
}

// Stats returns a consistent snapshot of the stream's counters.
func (s *Stream) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

func (s *Stream) statsLocked() Stats {
	return Stats{
		Version:        s.version.Load(),
		Total:          s.total,
		InWindow:       s.inWindowLocked(),
		Window:         s.window,
		MaxK:           s.maxK,
		LastTimestamp:  s.lastT,
		Audits:         s.audits,
		Mismatches:     s.mismatches,
		ContractSet:    s.contract != nil,
		Violations:     s.violations,
		FirstViolation: s.firstViol,
	}
}

// StatsWithin reports stats like Stats, but gives up with ErrBusy if the
// stream lock cannot be acquired within d (see SnapshotWithin for the
// acquisition strategy). d ≤ 0 means a single TryLock attempt.
func (s *Stream) StatsWithin(d time.Duration) (Stats, error) {
	if !s.lockWithin(d) {
		return Stats{}, ErrBusy
	}
	defer s.mu.Unlock()
	return s.statsLocked(), nil
}

// Reextract audits the stream now: it settles the curves, re-extracts the
// window with the batch kernel and compares (see auditLocked). It reports
// the stream's cumulative mismatch count. An agreeing audit leaves Version,
// and so every version-keyed cached answer, as it was.
func (s *Stream) Reextract() (mismatches int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	err = s.auditLocked()
	return s.mismatches, err
}

// Audit is Reextract for a sampled auditor: it runs only when the stream
// has changed since its last audit and a read has already allocated all
// the extrema its settle needs. So an audit allocates no extrema: it skips
// a stream no read asked for, and one that outgrew its extrema since its
// last read, until that read. It reports whether the audit ran and
// whether it found a mismatch.
func (s *Stream) Audit() (ran, mismatch bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.version.Load() == s.audited || !s.pre.covers(s.total+1) || s.spi != nil && !s.spi.covers(s.total) {
		return false, false, nil
	}
	before := s.mismatches
	err = s.auditLocked()
	return true, s.mismatches != before, err
}

// DemandTrace returns the retained window's demands in ingest order — the
// batch an audit re-extracts.
func (s *Stream) DemandTrace() events.DemandTrace {
	s.mu.Lock()
	defer s.mu.Unlock()
	return events.DemandTrace(s.demandsLocked(nil))
}
