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

// Every acknowledged ingest goes through one tail. The handler decodes its
// batch into an ingestJob and hands it off; applyGroup applies it and
// appends it to the WAL, and commitUnit — the one WAL commit point — makes
// it durable and releases the handler. How the job reaches the tail
// depends on Config.IngestRing:
//
//   - IngestRing > 0: each registry shard owns an SPSC ring of jobs and one
//     dedicated worker goroutine that drains it, groups the drained jobs by
//     stream, and applies each group through ONE stream.IngestBatches call —
//     one stream-lock acquisition for every request that arrived while the
//     previous drain was being applied (cross-request coalescing). One
//     commit covers the whole drain (group commit).
//   - IngestRing == 0, or a ring that Close has closed: the handler runs the
//     same applyGroup and commitUnit inline on a group of one, one commit
//     per request.
//
// Either way the handler parks on a 1-slot completion channel and then
// renders from the job's result. IngestBatches reproduces sequential Ingest
// semantics batch for batch, so responses — status, counts, violation
// attribution, error text — do not depend on the path (see
// TestAsyncIngestDifferential).
//
// Why the ring can beat handlers applying inline under concurrency: with N
// handlers racing one stream, the mutex hands the stream state's cache
// lines from core to core on every batch, and each handoff pays the wakeup
// + cold-cache toll while later arrivals convoy. Here the stream is touched
// by ONE goroutine; concurrent arrivals meet only at the ring's producer
// mutex, held for two atomics (not the whole curve update). Backpressure is
// explicit: a full ring sheds with 503 at the handler's deadline instead of
// growing an invisible mutex queue.
//
// Shutdown: Server.Close closes every ring (new pushes fail fast onto the
// inline tail) and waits for the workers to drain what was already
// enqueued — a handler that got TryPush to succeed WILL see its job
// completed, so no acknowledged-enqueued batch is ever lost (see
// TestShutdownDrainsInflight).

// DefaultCoalesceBudget caps how many queued jobs one worker wakeup drains
// and fuses. It bounds the latency a coalesced early arrival can absorb
// waiting for its group to apply, and the scratch the worker pins.
const DefaultCoalesceBudget = 64

// ingestJob carries one ingest request through the tail. The ts/ds columns
// alias the handler's pooled decode scratch: the handler always blocks
// until done fires, so the tail's reads cannot race a scratch reuse. Jobs
// cycle through jobPool; done is allocated once per job and reused
// (capacity 1, always drained by the owning handler).
type ingestJob struct {
	e       *entry
	id      string
	created bool
	ts, ds  []int64

	// Request context carried into the tail. scope is the originating
	// request's observability scope — the tail's log lines go through it
	// so they keep the request's trace_id/endpoint attribution. enq is the
	// handler's decode end, where queue_wait starts. tr/parent stitch the
	// tail's spans (queue wait, apply, WAL append/fsync) into the
	// request's trace under the handler's update span; nil/zero when the
	// request is untraced. The handler always parks on done until the tail
	// finishes, so every tail-side use of these fields happens-before the
	// scope and trace are recycled.
	scope  *obs.Request
	tr     *trace.Active
	parent trace.SpanRef
	enq    time.Time

	res     stream.IngestResult
	err     error // stream rejection → 400
	errCode int   // overrides the 400 for err: 409 (registry race), 500 (panic, WAL failure)

	done chan struct{}
}

// logger returns the originating request's logger (trace_id and endpoint
// attached) for the tail's log lines, falling back to the service logger
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

// groupScratch is the tail's reusable scratch for one unit of work (a
// worker drain or an inline request): the unit's jobs in stream-group
// order, and applyGroup's batch, result and WAL-record columns. Each
// ingestPipe owns one for its worker and each pooled ingestScratch one for
// the inline tail, so the steady state allocates nothing.
type groupScratch struct {
	group   []*ingestJob
	batches []stream.Batch
	results []stream.BatchResult
	recs    []wal.IngestRec
}

// ingestPipe is one registry shard's half of the pipeline: the SPSC ring,
// the producer-side mutex that lets any number of handlers act as the
// single producer (held for two atomics — this is the lock-handoff fix:
// contention moved off the stream mutex onto a critical section that does
// no stream work), the 1-slot wake signal, and the worker's scratch.
type ingestPipe struct {
	idx    int // shard index, = position in Server.pipes/shards/walShards
	ring   *ringbuf.SPSC[*ingestJob]
	pushMu sync.Mutex
	wake   chan struct{}
	jobs   []*ingestJob // drain buffer, sized to the coalesce budget
	groupScratch
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
			idx:  i,
			ring: ring,
			wake: make(chan struct{}, 1),
			jobs: make([]*ingestJob, budget),
		}
		s.pipes[i] = p
		s.workers.Add(1)
		go s.ingestWorker(p)
	}
	return nil
}

// Close shuts the server's background machinery down: the async rings stop
// accepting work (handlers run the tail inline) and workers drain and
// complete every job already acknowledged into a ring; then, with
// durability on, the checkpoint loop stops, a final checkpoint snapshots
// every stream, and the WAL closes with its clean-shutdown marker — so a
// restart replays (nearly) nothing. Safe to call multiple times and on
// servers with neither subsystem. The HTTP layer should stop accepting
// requests first (http.Server.Shutdown) — wcmd does — but even without
// that, post-Close ingests stay correct via the inline tail (they answer
// 500 once the WAL is closed, rather than acknowledging non-durable data).
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

// enqueueIngest hands a job to shard idx's worker. queued means the ring
// took it: the caller MUST wait for job.done. busy means the ring stayed
// full past the request deadline (a full ring is retried with a growing
// sleep, mirroring stream.lockWithin's pacing): the caller sheds. Neither
// means there is no ring to take it (IngestRing == 0, or Close closed it):
// the caller runs the tail inline.
func (s *Server) enqueueIngest(idx int, job *ingestJob, r *http.Request) (queued, busy bool) {
	if s.pipes == nil {
		return false, false
	}
	p := s.pipes[idx]
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
			return false, false
		}
		// Ring full: the shard's worker is saturated. Sleep-poll toward the
		// request deadline; with no deadline configured, keep trying (the
		// worker always makes progress — its panics are recovered).
		if dl, ok := r.Context().Deadline(); ok {
			rem := time.Until(dl)
			if rem <= 0 {
				return false, true
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
// then commit and complete the whole drain at once. Exits when the ring is
// closed and drained.
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
		// One timestamp per drain: it ends every job's queue_wait and
		// starts the first group's apply.
		tPop := time.Now()
		for _, job := range jobs {
			s.metrics.closeStage(stageQueueWait, job.tr, job.parent, job.enq, tPop)
		}
		// Stable partition into p.group, one contiguous run per stream:
		// within a stream, arrival order is preserved; across streams,
		// reordering is invisible (different locks anyway).
		p.group = p.group[:0]
		t := tPop
		for i := 0; i < n; i++ {
			if jobs[i] == nil {
				continue
			}
			lead, start := jobs[i], len(p.group)
			for k := i; k < n; k++ {
				if jobs[k] != nil && jobs[k].e == lead.e {
					p.group = append(p.group, jobs[k])
					jobs[k] = nil
				}
			}
			t = s.applyGroup(&p.groupScratch, p.idx, p.group[start:], t)
		}
		s.commitUnit(p.idx, p.group, t)
	}
}

// applyGroup runs one stream's group of jobs through one IngestBatches call
// and settles each job's outcome: registry fixups (dropIfEmpty after a
// rejection, ensureRegistered after a success), metrics, and — with
// durability on — the WAL append. It neither commits nor releases a job;
// the caller's commitUnit does both, once per unit of work. A panic inside
// the stream update is caught here and answered as a 500 on every job of
// the group (nothing is appended for a panicked group: the append comes
// after a successful apply). The apply stage starts at start, the unit's
// previous stage boundary; applyGroup returns the group's last boundary,
// where the next stage starts.
func (s *Server) applyGroup(g *groupScratch, idx int, group []*ingestJob, start time.Time) time.Time {
	e := group[0].e
	g.batches = g.batches[:0]
	for _, job := range group {
		g.batches = append(g.batches, stream.Batch{Ts: job.ts, Demands: job.ds})
	}
	g.results = append(g.results[:0], make([]stream.BatchResult, len(group))...)
	panicked := func() (p any) {
		defer func() { p = recover() }()
		e.st.IngestBatches(g.batches, g.results)
		return nil
	}()
	tApplied := time.Now()
	s.metrics.closeGroupStage(stageApply, group, start, tApplied)
	if panicked != nil {
		s.metrics.panics.Add(1)
		// One Error line per affected request, through each request's own
		// logger, so every line carries the originating trace_id — a
		// grouped apply fails a whole coalesced group at once.
		stack := string(debug.Stack())
		for _, job := range group {
			job.logger(s.logger).LogAttrs(context.Background(), slog.LevelError, "ingest apply panic",
				slog.String("panic", fmt.Sprint(panicked)),
				slog.String("stack", stack))
			job.tr.Mark(trace.KeepPanic)
			job.err = fmt.Errorf("internal error applying ingest batch")
			job.errCode = http.StatusInternalServerError
		}
		return tApplied
	}
	for gi, job := range group {
		job.res, job.err = g.results[gi].Res, g.results[gi].Err
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
	if s.wal != nil {
		return s.walLogGroup(g, idx, e, group, tApplied)
	}
	return tApplied
}

// commitUnit is the tail's one WAL commit point and one release point. A
// unit of work is one worker drain or one inline request: a single Commit
// makes every batch its groups appended durable before ANY of their
// handlers is released, and a commit failure fails every job it would have
// acknowledged (500). Commit is a no-op when nothing was appended and
// under fsync policy "none"; only a commit that fsynced closes the
// wal_fsync stage, which starts at start, the unit's last boundary.
func (s *Server) commitUnit(idx int, jobs []*ingestJob, start time.Time) {
	if s.wal != nil {
		synced, err := s.walShards[idx].CommitSynced()
		if synced {
			s.metrics.closeGroupStage(stageWALFsync, jobs, start, time.Now())
		}
		for _, job := range jobs {
			if job.err != nil {
				continue
			}
			if err != nil {
				job.logger(s.logger).LogAttrs(context.Background(), slog.LevelError,
					"wal commit failed", slog.String("error", err.Error()))
				job.err = fmt.Errorf("wal commit failed: %w", err)
				job.errCode = http.StatusInternalServerError
			}
		}
	}
	for _, job := range jobs {
		job.done <- struct{}{}
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
