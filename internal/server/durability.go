package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"wcm/internal/stream"
	"wcm/internal/wal"
)

// Durability wiring: how the serving layer drives internal/wal.
//
// Log-after-apply, before-ack: an ingest batch is applied to the in-memory
// stream first (the apply can still reject it — nothing invalid reaches the
// log), then appended to the shard's WAL tagged with the stream version the
// apply produced, then made durable by the one commit of its unit of work
// (see commitUnit), and only then acknowledged. A crash loses at most
// batches that were never acked.
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
		batches[j] = stream.Batch{Ts: b.Ts, Demands: b.Demands}
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

// walLogGroup appends one stream group's successful batches to shard idx's
// WAL, all under a single shard-read-lock acquisition and — via
// AppendIngestGroup — a single encode-and-write. The append re-checks the
// DELETE tombstone under that lock (see the file comment); a group that
// lost that race is simply not logged — the stream it mutated is already
// unreachable. An append failure marks every still-successful job of the
// group failed (500): the write is all-or-nothing from the group's
// perspective (a partial write is a torn tail recovery refuses to trust),
// and an applied-but-unlogged batch must not be acknowledged. Failures are
// logged per job through the originating request's logger (trace_id
// attached). The wal_append stage runs from start (the apply's end) to the
// append's return; walLogGroup returns that boundary, or start when
// nothing was appended.
func (s *Server) walLogGroup(g *groupScratch, idx int, e *entry, group []*ingestJob, start time.Time) time.Time {
	l := s.walShards[idx]
	sh := s.shards[idx]
	end := start
	g.recs = g.recs[:0]
	sh.mu.RLock()
	if e.state.Load() != entryDeleted {
		for _, job := range group {
			if job.err == nil {
				g.recs = append(g.recs, wal.IngestRec{
					ID: job.id, Version: job.res.Version, Ts: job.ts, Ds: job.ds})
			}
		}
		if len(g.recs) > 0 {
			err := l.AppendIngestGroup(g.recs)
			end = time.Now()
			s.metrics.closeGroupStage(stageWALAppend, group, start, end)
			if err != nil {
				for _, job := range group {
					if job.err == nil {
						job.logger(s.logger).LogAttrs(context.Background(), slog.LevelError,
							"wal append failed", slog.String("error", err.Error()))
						job.err = fmt.Errorf("wal append failed: %w", err)
						job.errCode = http.StatusInternalServerError
					}
				}
			}
		}
	}
	sh.mu.RUnlock()
	// Drop the aliased job buffers: recs is scratch that outlives the
	// unit, the ts/ds columns belong to handler pools.
	clear(g.recs)
	return end
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
		if it.e.state.Load() != entryLive {
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
