package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"wcm/internal/obs"
	"wcm/internal/obs/trace"
	"wcm/internal/stream"
	"wcm/internal/wal"
)

// Durability wiring: how the serving layer drives internal/wal.
//
// Log-after-apply, before-ack: an ingest batch is applied to the in-memory
// stream first (the apply can still reject it — nothing invalid reaches the
// log), then appended to the shard's WAL tagged with the stream version the
// apply produced, then made durable by its request's commit (see
// commitUnit), and only then acknowledged — all in the handler's goroutine.
// A crash loses at most batches that were never acked.
//
// Ordering against DELETE: ingest records are appended under the registry
// shard's read lock after re-checking the entry is not tombstoned deleted;
// the tombstone itself is appended under the shard's write lock. So no
// record for a stream's old incarnation can land after that stream's
// tombstone — the invariant recovery's LSN resolution relies on.
//
// Checkpoints: a background loop (Config.SnapshotInterval) rotates each
// shard's segment chain, snapshots every live stream at the rotation
// boundary, removes snapshots of dead streams, and deletes the covered
// segments. Server.Close runs a final checkpoint so a clean restart
// replays (nearly) nothing.
//
// Recovery runs inside New, before the caller can bind a listener: decode
// and restore each snapshot, replay the surviving WAL batches through the
// same IngestBatches path live traffic uses, and install the entries in
// the registry. Any decode or replay failure fails New loudly — serving
// with silently dropped acknowledged data is worse than not starting.

// recoveryStats counts what boot-time replay restored, for /healthz and
// /metrics. Written once during New; read-only afterwards (atomics only
// because /metrics may be scraped while a test pokes at recovery).
type recoveryStats struct {
	streams atomic.Uint64
	batches atomic.Uint64
	samples atomic.Uint64
}

// attachWAL validates and wires a wal.Manager into the server being built,
// then runs recovery. Called from New.
func (s *Server) attachWAL(m *wal.Manager) error {
	if m.Shards() != len(s.shards) {
		return fmt.Errorf("server: wal has %d shards, server has %d — the data directory was written under a different -shards",
			m.Shards(), len(s.shards))
	}
	s.wal = m
	s.walShards = make([]*wal.ShardLog, len(s.shards))
	for i := range s.walShards {
		s.walShards[i] = m.Shard(i)
	}
	s.recovering.Store(true)
	defer s.recovering.Store(false)
	return s.recoverFromWAL()
}

// recoverFromWAL replays the Open-time scan results into the registry.
func (s *Server) recoverFromWAL() error {
	for i := range s.shards {
		for _, sr := range s.wal.Recovery(i) {
			if int(s.shardIndex(sr.ID)) != i {
				return fmt.Errorf("server: recovered stream %q in wal shard %d, hashes to %d — data directory damaged",
					sr.ID, i, s.shardIndex(sr.ID))
			}
			st, err := s.recoverStream(sr)
			if err != nil {
				return err
			}
			sh := s.shards[i]
			sh.mu.Lock()
			sh.streams[sr.ID] = &entry{st: st}
			sh.mu.Unlock()
			s.recovered.streams.Add(1)
		}
	}
	if n := s.recovered.streams.Load(); n > 0 || !s.wal.CleanStart() {
		s.logger.LogAttrs(context.Background(), slog.LevelInfo, "wal recovery complete",
			slog.Uint64("streams", n),
			slog.Uint64("batches", s.recovered.batches.Load()),
			slog.Uint64("samples", s.recovered.samples.Load()),
			slog.Uint64("torn_tails", s.wal.TornTails()),
			slog.Bool("clean_start", s.wal.CleanStart()))
	}
	return nil
}

// recoverStream rebuilds one stream: restore its snapshot (or start empty)
// and replay the surviving WAL batches through the normal ingest path.
func (s *Server) recoverStream(sr wal.StreamRecovery) (*stream.Stream, error) {
	var st *stream.Stream
	var err error
	if sr.SnapshotState != nil {
		state, derr := stream.DecodeState(sr.SnapshotState)
		if derr != nil {
			return nil, fmt.Errorf("server: stream %q snapshot: %w", sr.ID, derr)
		}
		st, err = stream.Restore(s.cfg.Stream, state)
	} else {
		st, err = stream.New(s.cfg.Stream)
	}
	if err != nil {
		return nil, fmt.Errorf("server: stream %q: %w", sr.ID, err)
	}
	if len(sr.Batches) == 0 {
		return st, nil
	}
	batches := make([]stream.Batch, len(sr.Batches))
	results := make([]stream.BatchResult, len(sr.Batches))
	for j, b := range sr.Batches {
		batches[j] = stream.Batch{Ts: b.Ts, Demands: b.Demands, Version: b.Version}
	}
	st.IngestBatches(batches, results)
	for j := range results {
		if results[j].Err != nil {
			// Every logged batch was once accepted by a stream in this exact
			// state; a rejection here means the directory is inconsistent.
			return nil, fmt.Errorf("server: stream %q replay batch v%d: %w",
				sr.ID, sr.Batches[j].Version, results[j].Err)
		}
		s.recovered.samples.Add(uint64(results[j].Res.Accepted))
	}
	s.recovered.batches.Add(uint64(len(sr.Batches)))
	return st, nil
}

// walLog makes one applied batch durable before its ack: it appends the
// batch to its shard's WAL under the shard's read lock, re-checking the
// DELETE tombstone there (see the file comment), and then commits. A batch
// that lost that race is not logged — the stream it mutated is already
// unreachable. An append or commit failure is logged through the request's
// logger and returned: an applied-but-undurable batch must not be
// acknowledged. The wal_append stage runs from start (the apply's end) to
// the append's return, where commitUnit's wal_fsync starts.
func (s *Server) walLog(ctx context.Context, id string, e *entry, version int64, ts, ds []int64, tr *trace.Active, parent trace.SpanRef, start time.Time) error {
	idx := s.shardIndex(id)
	sh := s.shards[idx]
	sh.mu.RLock()
	if e.deleted.Load() {
		sh.mu.RUnlock()
		return nil
	}
	err := s.walShards[idx].AppendIngestGroup([]wal.IngestRec{{ID: id, Version: version, Ts: ts, Ds: ds}})
	end := time.Now()
	sh.mu.RUnlock()
	s.metrics.closeStage(stageWALAppend, tr, parent, start, end)
	if err != nil {
		err = fmt.Errorf("wal append failed: %w", err)
	} else if err = s.commitUnit(idx, tr, parent, end); err != nil {
		err = fmt.Errorf("wal commit failed: %w", err)
	}
	if err != nil {
		obs.LoggerFrom(ctx).LogAttrs(ctx, slog.LevelError, "wal write failed",
			slog.String("error", err.Error()))
	}
	return err
}

// commitUnit is the one WAL commit point: an ingest and a DELETE each call
// it once, after their append and before their answer. The commit is a
// no-op under fsync policy "none" and when a concurrent commit already
// synced this shard's appends; only a commit that fsynced closes the
// wal_fsync stage, which starts at start, the append's end.
func (s *Server) commitUnit(idx uint32, tr *trace.Active, parent trace.SpanRef, start time.Time) error {
	synced, err := s.walShards[idx].CommitSynced()
	if synced {
		s.metrics.closeStage(stageWALFsync, tr, parent, start, time.Now())
	}
	return err
}

// errServerClosed answers a durable ingest that arrives after Close.
var errServerClosed = errors.New("server closed: ingest not accepted")

// Close stops the auditor and shuts durability down. It waits for every
// in-flight ingest tail and turns later ones away with 500, so the final
// checkpoint never captures a batch whose ack is still undecided; then it
// stops the checkpoint loop, checkpoints every stream, and closes the WAL
// with its clean-shutdown marker, so a restart replays (nearly) nothing.
// A server without a WAL only stops its auditor. Safe to call more than
// once. The HTTP layer should stop accepting requests first
// (http.Server.Shutdown); wcmd does.
func (s *Server) Close() {
	s.stopAuditor()
	if s.wal == nil {
		return
	}
	s.closeGate.Lock()
	already := s.closed
	s.closed = true
	s.closeGate.Unlock()
	if already {
		return
	}
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

// ---- checkpoints ------------------------------------------------------------

// checkpointShard snapshots every live stream of shard i at a fresh
// rotation boundary and truncates the covered WAL segments. Correctness
// invariant: every record in a segment below the rotation index was
// appended — hence applied — before the rotation, so its version is ≤ the
// version ExportState captures afterwards; deleting those segments loses
// nothing a snapshot doesn't carry. A DELETE racing this lands its
// tombstone at or after the rotation segment, which invalidates the
// just-written snapshot at recovery (see wal's snapshot rules).
func (s *Server) checkpointShard(i int) error {
	l := s.walShards[i]
	newSeg, err := l.Rotate()
	if err != nil {
		return err
	}
	sh := s.shards[i]
	type item struct {
		id string
		e  *entry
	}
	sh.mu.RLock()
	items := make([]item, 0, len(sh.streams))
	for id, e := range sh.streams {
		items = append(items, item{id, e})
	}
	sh.mu.RUnlock()

	live := make(map[string]bool, len(items))
	for _, it := range items {
		if it.e.deleted.Load() {
			continue
		}
		st := it.e.st.ExportState()
		if st.Version == 0 {
			continue // never mutated; nothing worth a snapshot
		}
		blob := st.AppendBinary(nil)
		if err := l.WriteSnapshot(it.id, newSeg, st.Version, blob); err != nil {
			return err
		}
		live[it.id] = true
	}
	if err := l.CleanSnapshots(func(id string) bool { return live[id] }); err != nil {
		return err
	}
	return l.RemoveSegmentsBefore(newSeg)
}

// checkpointAll checkpoints every shard, logging failures rather than
// stopping: a full disk must not take the serving path down, only stall
// WAL truncation.
func (s *Server) checkpointAll() {
	for i := range s.shards {
		if err := s.checkpointShard(i); err != nil {
			s.logger.LogAttrs(context.Background(), slog.LevelError, "checkpoint failed",
				slog.Int("shard", i), slog.String("error", err.Error()))
		}
	}
}

// checkpointLoop runs periodic checkpoints until Close stops it.
func (s *Server) checkpointLoop(interval time.Duration) {
	defer close(s.ckDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.checkpointAll()
		case <-s.ckStop:
			return
		}
	}
}

// durabilityJSON is /healthz's durability object.
type durabilityJSON struct {
	Enabled          bool   `json:"enabled"`
	Fsync            string `json:"fsync,omitempty"`
	CleanStart       bool   `json:"clean_start"`
	RecoveredStreams uint64 `json:"recovered_streams"`
	ReplayedBatches  uint64 `json:"replayed_batches"`
	TornTails        uint64 `json:"torn_tails"`
}

func (s *Server) durabilityStatus() *durabilityJSON {
	if s.wal == nil {
		return nil
	}
	return &durabilityJSON{
		Enabled:          true,
		Fsync:            s.wal.Policy().String(),
		CleanStart:       s.wal.CleanStart(),
		RecoveredStreams: s.recovered.streams.Load(),
		ReplayedBatches:  s.recovered.batches.Load(),
		TornTails:        s.wal.TornTails(),
	}
}

// Recovering reports whether boot-time WAL replay is still in progress.
// /healthz answers 503 while it is, so an orchestrator's readiness probe
// holds traffic until every acknowledged batch is back.
func (s *Server) Recovering() bool { return s.recovering.Load() }
