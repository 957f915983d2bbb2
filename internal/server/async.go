package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"wcm/internal/obs"
	"wcm/internal/obs/trace"
	"wcm/internal/ringbuf"
	"wcm/internal/stream"
	"wcm/internal/wal"
)

// The async ingest pipeline (Config.IngestRing > 0) restructures the ingest
// hot path so HTTP handlers only ENQUEUE: each registry shard owns an SPSC
// ring of ingest jobs and one dedicated worker goroutine that drains it,
// groups the drained jobs by stream, and applies each group through ONE
// stream.IngestBatches call — one stream-lock acquisition for every request
// that arrived while the previous batch was being applied (cross-request
// coalescing). The handler parks on a 1-slot
// completion channel and then renders exactly what the synchronous path
// would have: per-job results come from IngestBatches, which reproduces
// sequential Ingest semantics batch for batch, so responses — status,
// counts, violation attribution, error text — are byte-identical (see
// TestAsyncIngestDifferential).
//
// Why this beats handlers calling Stream.Ingest directly under concurrency:
// with N handlers racing one stream, the mutex hands the stream state's
// cache lines from core to core on every batch, and each handoff pays the
// wakeup + cold-cache toll while later arrivals convoy. Here the stream is
// touched by ONE goroutine; concurrent arrivals meet only at the ring's
// producer mutex, held for two atomics (not the whole curve update), and
// their batches ride a single coalesced scan. Backpressure is explicit: a
// full ring sheds with 503 at the handler's deadline instead of growing an
// invisible mutex queue.
//
// Shutdown: Server.Close closes every ring (new pushes fail fast onto the
// synchronous fallback path) and waits for the workers to drain what was
// already enqueued — a handler that got TryPush to succeed WILL see its job
// completed, so no acknowledged-enqueued batch is ever lost (see
// TestShutdownDrainsInflight).

// DefaultCoalesceBudget caps how many queued jobs one worker wakeup drains
// and fuses. It bounds the latency a coalesced early arrival can absorb
// waiting for its group to apply, and the scratch the worker pins.
const DefaultCoalesceBudget = 64

// ingestJob carries one enqueued ingest request through a shard's ring.
// The ts/ds columns alias the handler's pooled decode scratch: the handler
// always blocks until done fires, so the worker's reads cannot race a
// scratch reuse. Jobs cycle through jobPool; done is allocated once per
// job and reused (capacity 1, always drained by the owning handler).
type ingestJob struct {
	e       *entry
	id      string
	created bool
	ts, ds  []int64

	// Request context carried across the async hop. scope is the
	// originating request's observability scope — worker-side log lines go
	// through it so they keep the request's trace_id/endpoint attribution.
	// tr/parent/enq stitch worker-side spans (queue wait, apply, WAL
	// append/fsync) into the request's trace under the handler's update
	// span; all nil/zero when the request is untraced. The handler always
	// parks on done until the worker finishes, so every worker-side use of
	// these fields happens-before the scope and trace are recycled.
	scope  *obs.Request
	tr     *trace.Active
	parent trace.SpanRef
	enq    time.Time

	res     stream.IngestResult
	err     error // stream rejection → 400 (same shape as the sync path)
	errCode int   // overrides the 400 for err: 409 (registry race), 500 (worker panic)

	done chan struct{}
}

// logger returns the originating request's logger (trace_id and endpoint
// attached) for worker-side log lines, falling back to the service logger
// for jobs that carried no scope.
func (j *ingestJob) logger(fallback *slog.Logger) *slog.Logger {
	if j.scope != nil {
		return j.scope.Logger()
	}
	return fallback
}

var jobPool = sync.Pool{New: func() any {
	return &ingestJob{done: make(chan struct{}, 1)}
}}

// ingestPipe is one registry shard's half of the pipeline: the SPSC ring,
// the producer-side mutex that lets any number of handlers act as the
// single producer (held for two atomics — this is the lock-handoff fix:
// contention moved off the stream mutex onto a critical section that does
// no stream work), and the 1-slot wake signal for the worker.
type ingestPipe struct {
	idx    int // shard index, = position in Server.pipes/shards/walShards
	ring   *ringbuf.SPSC[*ingestJob]
	pushMu sync.Mutex
	wake   chan struct{}

	// Worker-owned scratch, sized to the coalesce budget once.
	jobs    []*ingestJob
	group   []*ingestJob
	batches []stream.Batch
	results []stream.BatchResult

	// pending collects jobs whose WAL records await the wakeup-wide group
	// commit (fsync policy "batch"): applied and appended, not yet durable,
	// their handlers still parked. Worker-owned.
	pending []*ingestJob

	// recs is walLogGroup's reusable record scratch, so a group append
	// allocates nothing in steady state. Worker-owned.
	recs []wal.IngestRec
}

// startPipeline builds the per-shard pipes and spawns their workers.
// Called from New when cfg.IngestRing > 0.
func (s *Server) startPipeline(ringCap, budget int) error {
	s.pipes = make([]*ingestPipe, len(s.shards))
	for i := range s.pipes {
		ring, err := ringbuf.New[*ingestJob](ringCap)
		if err != nil {
			return fmt.Errorf("server: ingest ring: %w", err)
		}
		p := &ingestPipe{
			idx:     i,
			ring:    ring,
			wake:    make(chan struct{}, 1),
			jobs:    make([]*ingestJob, budget),
			group:   make([]*ingestJob, 0, budget),
			batches: make([]stream.Batch, 0, budget),
			results: make([]stream.BatchResult, budget),
			pending: make([]*ingestJob, 0, budget),
			recs:    make([]wal.IngestRec, 0, budget),
		}
		s.pipes[i] = p
		s.workers.Add(1)
		go s.ingestWorker(p)
	}
	return nil
}

// Close shuts the server's background machinery down: the async rings stop
// accepting work (handlers fall back to synchronous ingest) and workers
// drain and complete every job already acknowledged into a ring; then, with
// durability on, the checkpoint loop stops, a final checkpoint snapshots
// every stream, and the WAL closes with its clean-shutdown marker — so a
// restart replays (nearly) nothing. Safe to call multiple times and on
// servers with neither subsystem. The HTTP layer should stop accepting
// requests first (http.Server.Shutdown) — wcmd does — but even without
// that, post-Close ingests stay correct via the fallback (they answer 500
// once the WAL is closed, rather than acknowledging non-durable data).
func (s *Server) Close() {
	if !s.closing.CompareAndSwap(false, true) {
		return
	}
	if s.pipes != nil {
		for _, p := range s.pipes {
			p.ring.Close()
			select {
			case p.wake <- struct{}{}:
			default:
			}
		}
		s.workers.Wait()
	}
	if s.wal != nil {
		if s.ckStop != nil {
			close(s.ckStop)
			<-s.ckDone
		}
		s.checkpointAll()
		if err := s.wal.Close(); err != nil {
			s.logger.LogAttrs(context.Background(), slog.LevelError, "wal close failed",
				slog.String("error", err.Error()))
		}
	}
}

// enqueueIngest hands a job to the shard's worker and reports whether it
// was accepted. A full ring is retried with a growing sleep until the
// request deadline (mirroring stream.lockWithin's pacing); a closed ring
// or an exhausted deadline reports false and the caller falls back or
// sheds. On true, the caller MUST wait for job.done.
func (s *Server) enqueueIngest(p *ingestPipe, job *ingestJob, r *http.Request) (accepted, closed bool) {
	pause := 50 * time.Microsecond
	for {
		p.pushMu.Lock()
		ok := p.ring.TryPush(job)
		p.pushMu.Unlock()
		if ok {
			select {
			case p.wake <- struct{}{}:
			default: // worker already signaled
			}
			return true, false
		}
		if p.ring.Closed() {
			return false, true
		}
		// Ring full: the shard's worker is saturated. Sleep-poll toward the
		// request deadline; with no deadline configured, keep trying (the
		// worker always makes progress — its panics are recovered).
		if dl, ok := r.Context().Deadline(); ok {
			rem := time.Until(dl)
			if rem <= 0 {
				return false, false
			}
			if pause > rem {
				pause = rem
			}
		}
		time.Sleep(pause)
		if pause < 2*time.Millisecond {
			pause *= 2
		}
	}
}

// ingestWorker is one shard's dedicated consumer: drain up to the coalesce
// budget, group by stream, apply each group through one IngestBatches call,
// complete the jobs. Exits when the ring is closed and drained.
func (s *Server) ingestWorker(p *ingestPipe) {
	defer s.workers.Done()
	for {
		n := p.ring.PopBatch(p.jobs)
		if n == 0 {
			if p.ring.Closed() {
				if p.ring.Len() == 0 {
					return
				}
				continue // closed with a late push in flight: drain it
			}
			<-p.wake
			continue
		}
		s.metrics.coalesce.Observe(int64(n))
		jobs := p.jobs[:n]
		// One timestamp per drain, taken only when some job is traced —
		// untraced drains never touch the clock for tracing.
		var tPop time.Time
		for i := 0; i < n; i++ {
			if jobs[i] != nil && jobs[i].tr != nil {
				tPop = time.Now()
				break
			}
		}
		for i := 0; i < n; i++ {
			if jobs[i] == nil {
				continue
			}
			// Stable partition: collect every job for this stream in drain
			// order. Within a stream, arrival order is preserved; across
			// streams, reordering is invisible (different locks anyway).
			lead := jobs[i]
			p.group, p.batches = p.group[:0], p.batches[:0]
			for k := i; k < n; k++ {
				if jobs[k] != nil && jobs[k].e == lead.e {
					p.group = append(p.group, jobs[k])
					p.batches = append(p.batches, stream.Batch{Ts: jobs[k].ts, Demands: jobs[k].ds})
					jobs[k] = nil
				}
			}
			s.applyGroup(p, lead.e, p.group, p.batches, p.results[:len(p.group)], tPop)
		}
		// Wakeup-wide group commit (fsync policy "batch"): every group of
		// this drain is applied and appended; one fsync makes them all
		// durable before ANY of their handlers is released.
		if len(p.pending) > 0 {
			t0 := tPop
			if !t0.IsZero() {
				t0 = time.Now()
			}
			err := s.walShards[p.idx].Commit()
			if !t0.IsZero() {
				t1 := time.Now()
				for _, job := range p.pending {
					if job.tr != nil {
						job.tr.RecordAt("wal_fsync", job.parent, t0, t1)
					}
				}
			}
			if err != nil {
				s.failPending(p.pending, err)
			}
			for _, job := range p.pending {
				job.done <- struct{}{}
			}
			p.pending = p.pending[:0]
		}
	}
}

// applyGroup runs one stream's coalesced batches and completes their jobs:
// per-job registry fixups (the same dropIfEmpty/ensureRegistered dance the
// sync handler does), metrics, WAL logging, completion signal. A panic
// inside the stream update is caught here — job owners are parked on done
// and MUST be released — answered as 500s on every job of the group,
// mirroring the handler-side recovery barrier (nothing was appended to the
// WAL for a panicked group: the append comes after a successful apply).
//
// With durability on, successful jobs are appended to the shard's WAL
// before their handlers are released; whether this group fsyncs now or
// rides the wakeup-wide commit depends on the policy — "always" commits
// per group, "batch" defers the jobs onto p.pending for one commit per
// drain, "none" never waits for the disk.
func (s *Server) applyGroup(p *ingestPipe, e *entry, group []*ingestJob, batches []stream.Batch, results []stream.BatchResult, tPop time.Time) {
	// Worker-side trace spans: queue wait ends at the drain timestamp, the
	// apply span covers the fused IngestBatches call. Zero clock reads when
	// no job of the group is traced.
	traced := false
	for _, job := range group {
		if job.tr != nil {
			traced = true
			break
		}
	}
	var tApply time.Time
	if traced {
		tApply = time.Now()
		for _, job := range group {
			if job.tr != nil {
				job.tr.RecordAt("queue_wait", job.parent, job.enq, tPop)
			}
		}
	}
	panicked := func() (p any) {
		defer func() { p = recover() }()
		e.st.IngestBatches(batches, results)
		return nil
	}()
	if panicked != nil {
		s.metrics.panics.Add(1)
		// One Error line per affected request, through each request's own
		// logger, so every worker-side line carries the originating
		// trace_id — a grouped apply fails a whole coalesced group at once.
		stack := string(debug.Stack())
		for _, job := range group {
			job.logger(s.logger).LogAttrs(context.Background(), slog.LevelError, "ingest worker panic",
				slog.String("panic", fmt.Sprint(panicked)),
				slog.String("stack", stack))
			job.tr.Mark(trace.KeepPanic)
			job.err = fmt.Errorf("internal error applying ingest batch")
			job.errCode = http.StatusInternalServerError
			job.done <- struct{}{}
		}
		return
	}
	if traced {
		tApplied := time.Now()
		for _, job := range group {
			if job.tr != nil {
				job.tr.RecordAt("apply", job.parent, tApply, tApplied).
					Int("coalesced", int64(len(group)))
			}
		}
	}
	for gi, job := range group {
		job.res, job.err = results[gi].Res, results[gi].Err
		if job.err != nil {
			if job.created {
				s.dropIfEmpty(job.id, job.e)
			}
		} else {
			if err := s.ensureRegistered(job.id, job.e); err != nil {
				job.err, job.errCode = err, http.StatusConflict
			} else {
				s.metrics.samples.Add(uint64(job.res.Accepted))
				s.metrics.batches.Add(1)
				if job.res.Violation != nil {
					s.metrics.violatingBatches.Add(1)
				}
			}
		}
	}
	if s.wal == nil {
		for _, job := range group {
			job.done <- struct{}{}
		}
		return
	}
	s.walLogGroup(p, e, group, traced)
	switch s.wal.Policy() {
	case wal.PolicyAlways:
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		err := s.walShards[p.idx].Commit()
		if traced {
			t1 := time.Now()
			for _, job := range group {
				if job.tr != nil && job.err == nil {
					job.tr.RecordAt("wal_fsync", job.parent, t0, t1)
				}
			}
		}
		if err != nil {
			s.failPending(group, err)
		}
		for _, job := range group {
			job.done <- struct{}{}
		}
	case wal.PolicyBatch:
		// Failed jobs have nothing awaiting durability; release them now.
		// Successful ones park until the wakeup-wide commit in ingestWorker.
		for _, job := range group {
			if job.err != nil {
				job.done <- struct{}{}
			} else {
				p.pending = append(p.pending, job)
			}
		}
	default: // wal.PolicyNone
		for _, job := range group {
			job.done <- struct{}{}
		}
	}
}

// ingestAsync is handleIngest's enqueue-and-wait tail: everything after
// decode when the pipeline is on. It writes the full response — the same
// bytes the synchronous tail would have produced — and reports true.
// Returns false (nothing written) only when the pipeline could not take the
// job (closed ring — shutdown race): the caller then runs the synchronous
// path. tDecoded closes the decode stage span, as in the sync tail; the
// update span here covers enqueue + queue wait + coalesced apply, which is
// exactly the time the stream update takes from this request's view.
func (s *Server) ingestAsync(w http.ResponseWriter, r *http.Request, sc *ingestScratch, tDecoded time.Time, id string, e *entry, created bool, ts, ds []int64) bool {
	job := jobPool.Get().(*ingestJob)
	job.e, job.id, job.created = e, id, created
	job.ts, job.ds = ts, ds
	job.res, job.err, job.errCode = stream.IngestResult{}, nil, 0
	// Hand the request's observability scope and span context across the
	// hop. The update span opens here and closes when the handler resumes,
	// so it brackets the worker-side queue_wait/apply/WAL children.
	job.scope = obs.FromContext(r.Context())
	tr := obs.TraceFrom(r.Context())
	var upd trace.SpanRef
	if tr != nil {
		upd = tr.StartAt("update", tr.Root(), tDecoded)
		job.tr, job.parent, job.enq = tr, upd, tDecoded
	}

	p := s.pipes[s.shardIndex(id)]
	accepted, ringClosed := s.enqueueIngest(p, job, r)
	if !accepted {
		job.e, job.ts, job.ds = nil, nil, nil
		job.scope, job.tr, job.parent = nil, nil, trace.SpanRef{}
		jobPool.Put(job)
		if ringClosed {
			return false // shutting down: caller ingests synchronously
		}
		upd.EndAt(time.Now())
		if created {
			s.dropIfEmpty(id, e)
		}
		// Hint proportional to the backlog still queued: a ring that is
		// still full after the deadline's worth of retries earns a longer
		// backoff than one that drained while we waited.
		writeBusy(w, "ingest queue full past request deadline",
			retryAfterFloorSeconds+p.ring.Len()/p.ring.Cap())
		return true
	}
	<-job.done // unconditional: the worker reads buffers this handler owns

	res, err, code := job.res, job.err, job.errCode
	job.e, job.ts, job.ds = nil, nil, nil
	job.scope, job.tr, job.parent = nil, nil, trace.SpanRef{}
	jobPool.Put(job)

	tUpdated := time.Now()
	s.stUpdate.Observe(tUpdated.Sub(tDecoded))
	upd.EndAt(tUpdated)
	if err != nil {
		if code == 0 {
			code = http.StatusBadRequest
		}
		writeJSON(w, code, errorResponse{err.Error()})
		return true
	}
	// Metrics were counted by the worker; only rendering remains.
	if res.Violation != nil {
		writeJSON(w, http.StatusOK, ingestResponse{
			Accepted:   res.Accepted,
			Total:      res.Total,
			Violation:  violationFrom(res.Violation),
			Violations: res.Violations,
			Drift:      res.Drift,
		})
		s.observeRender(tr, tUpdated)
		return true
	}
	sc.out = appendIngestResponse(sc.out[:0], res)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(sc.out) //nolint:errcheck // client gone; nothing to do
	s.observeRender(tr, tUpdated)
	return true
}

// observeRender closes the ingest render stage span and, on a traced
// request, records it as a span too.
func (s *Server) observeRender(tr *trace.Active, tUpdated time.Time) {
	end := time.Now()
	s.stRender.Observe(end.Sub(tUpdated))
	if tr != nil {
		tr.RecordAt("render", tr.Root(), tUpdated, end)
	}
}

// asyncDepths samples every shard ring's occupancy at scrape time — the
// per-shard queue-depth gauge. Returns nil when the pipeline is off.
func (s *Server) asyncDepths() []int {
	if s.pipes == nil {
		return nil
	}
	depths := make([]int, len(s.pipes))
	for i, p := range s.pipes {
		depths[i] = p.ring.Len()
	}
	return depths
}
