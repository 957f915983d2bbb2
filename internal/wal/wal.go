// Package wal is wcmd's durability subsystem: a per-shard, segmented,
// CRC-framed write-ahead log of ingest batches, periodic per-stream
// snapshots that truncate it, and replay-on-boot recovery. It turns the
// in-memory stream registry of internal/server into state that survives a
// kill -9.
//
// # Shape
//
// One Manager owns a data directory with one subdirectory per registry
// shard. Each shard holds a chain of segment files (wal-00000001.log, …)
// that records every acknowledged ingest batch — in the SAME columnar
// encoding the binary ingest wire format uses (internal/wirefmt), so a WAL
// is also a replayable ingest trace — plus tombstone records for DELETEd
// streams and one snapshot file per live stream.
//
// # Group commit
//
// The serving layer appends a record for each applied batch and then calls
// Commit once, in the same request, before acknowledging it; Commit's fsync
// behavior is the configured Policy. The dirty bit groups commits only by
// chance: a Commit that finds its shard's appends already synced by a
// concurrent one returns without an fsync of its own.
//
// # Checkpoints
//
// A checkpoint rotates the segment chain, snapshots every live stream
// (stream.State, versioned and CRC'd, written atomically), and then
// deletes every pre-rotation segment: each deleted record is either
// covered by a snapshot (its version ≤ the snapshot's) or belongs to a
// dead stream. Recovery trusts a snapshot only when no tombstone lives at
// or after its rotation segment, which makes DELETE-vs-checkpoint races
// safe in both orders.
//
// # Recovery
//
// Open scans every shard: snapshots are loaded (corrupt ones deleted),
// segments are walked record by record, and a torn final record — the
// signature of a crash mid-append — stops the scan cleanly at the last
// intact byte, where the file is truncated so new appends start from a
// valid tail. Per stream, surviving records are the ones after the last
// tombstone and newer than the snapshot's version, sorted by version
// (concurrent appenders may land slightly out of order); the
// serving layer replays them through the normal ingest path. The result
// is exposed via Recovery.
package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"wcm/internal/stream"
)

// DefaultSegmentBytes is the rotation threshold for zero-valued
// Options.SegmentBytes.
const DefaultSegmentBytes = 64 << 20

// segMagic heads every segment file.
const segMagic = "WCMWAL1\n"

// Policy selects whether Commit fsyncs. Under either policy the serving
// layer acknowledges a batch only after the Commit that covers it; the
// policy decides whether that Commit waits for the disk.
type Policy int

const (
	// PolicyBatch fsyncs once per Commit that finds unsynced appends —
	// at most once per ingest request — before any batch the commit
	// covers is acknowledged. The default.
	PolicyBatch Policy = iota
	// PolicyNone never fsyncs on the ingest path; the OS flushes when it
	// pleases. Acknowledged data survives process death (the page cache
	// persists) but not machine death. Close still flushes.
	PolicyNone
)

func (p Policy) String() string {
	switch p {
	case PolicyBatch:
		return "batch"
	case PolicyNone:
		return "none"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy maps the -fsync flag values to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "batch":
		return PolicyBatch, nil
	case "none":
		return PolicyNone, nil
	}
	return 0, fmt.Errorf(`wal: fsync policy %q (want "batch" or "none")`, s)
}

// Options parameterizes Open.
type Options struct {
	// Dir is the data directory. Created if absent.
	Dir string
	// Shards must equal the serving layer's registry shard count: records
	// are partitioned the same way streams are. Persisted in meta.json and
	// validated on reopen — recovering a 16-shard log into a 32-shard
	// registry would split streams from their records.
	Shards int
	// SegmentBytes is the size past which a segment rotates. 0 picks
	// DefaultSegmentBytes.
	SegmentBytes int64
	// Policy is the fsync policy. Zero value is PolicyBatch.
	Policy Policy
	// Stream is the serving layer's stream config; its resolved form is
	// persisted in meta.json and validated on reopen, because snapshots
	// and replay are only meaningful under the window geometry they were
	// recorded with.
	Stream stream.Config
}

// walMeta is the meta.json schema. Directories written by earlier builds
// also record "reextract_every", a retired stream setting; decoding
// ignores it.
type walMeta struct {
	Format int `json:"format"`
	Shards int `json:"shards"`
	Window int `json:"window"`
	MaxK   int `json:"max_k"`
}

const metaFormat = 1

// Manager owns one data directory: the shard logs, the recovery results of
// the Open-time scan until Recovery hands them off, and the cumulative
// counters the serving layer exports.
type Manager struct {
	opts       Options
	shards     []*ShardLog
	recovery   [][]StreamRecovery
	cleanStart bool

	bytes   atomic.Uint64
	appends atomic.Uint64
	fsyncs  atomic.Uint64
	torn    atomic.Uint64

	closed atomic.Bool
}

// ShardLog is one shard's segment chain. Appends serialize on its mutex.
// Snapshot files take no lock and never block appends: only the caller's
// checkpoint of this shard writes and removes them, one checkpoint at a
// time.
type ShardLog struct {
	mgr *Manager
	dir string

	mu    sync.Mutex
	f     *os.File
	seg   uint64
	off   int64
	buf   []byte
	dirty bool
}

// Open loads (or initializes) a data directory: validates meta against the
// options, consumes the CLEAN marker, scans every shard's segments and
// snapshots into recovery state, truncates torn tails, and leaves each
// shard positioned for appending. The caller drains Recovery per shard,
// replays it, and only then serves traffic.
func Open(opts Options) (*Manager, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: empty data directory")
	}
	if opts.Shards < 1 {
		return nil, fmt.Errorf("wal: shards=%d", opts.Shards)
	}
	if opts.SegmentBytes == 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SegmentBytes < 4096 {
		return nil, fmt.Errorf("wal: segment bytes=%d (need ≥ 4096)", opts.SegmentBytes)
	}
	if opts.Policy < PolicyBatch || opts.Policy > PolicyNone {
		return nil, fmt.Errorf("wal: invalid policy %d", int(opts.Policy))
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	rs := opts.Stream.Resolved()
	want := walMeta{Format: metaFormat, Shards: opts.Shards, Window: rs.Window, MaxK: rs.MaxK}
	if err := checkOrWriteMeta(opts.Dir, want); err != nil {
		return nil, err
	}

	m := &Manager{opts: opts}
	cleanPath := filepath.Join(opts.Dir, "CLEAN")
	if _, err := os.Stat(cleanPath); err == nil {
		m.cleanStart = true
		if err := os.Remove(cleanPath); err != nil {
			return nil, err
		}
	}

	m.shards = make([]*ShardLog, opts.Shards)
	m.recovery = make([][]StreamRecovery, opts.Shards)
	for i := range m.shards {
		dir := filepath.Join(opts.Dir, fmt.Sprintf("shard-%03d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		l := &ShardLog{mgr: m, dir: dir}
		rec, err := l.openAndScan()
		if err != nil {
			m.closeFiles()
			return nil, fmt.Errorf("wal: shard %d: %w", i, err)
		}
		m.shards[i] = l
		m.recovery[i] = rec
	}
	return m, nil
}

func checkOrWriteMeta(dir string, want walMeta) error {
	path := filepath.Join(dir, "meta.json")
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		var have walMeta
		if err := json.Unmarshal(data, &have); err != nil {
			return fmt.Errorf("wal: corrupt meta.json: %w", err)
		}
		if have != want {
			return fmt.Errorf("wal: data dir recorded %+v, process configured %+v — "+
				"shard count and stream geometry must match the directory they wrote", have, want)
		}
		return nil
	case os.IsNotExist(err):
		data, err := json.Marshal(want)
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		return syncDir(dir)
	default:
		return err
	}
}

// CleanStart reports whether the previous process shut down cleanly (its
// Close wrote the CLEAN marker). Informational: recovery replays the WAL
// tail either way.
func (m *Manager) CleanStart() bool { return m.cleanStart }

// Shards returns the shard count the directory was opened with.
func (m *Manager) Shards() int { return len(m.shards) }

// Shard returns shard i's log.
func (m *Manager) Shard(i int) *ShardLog { return m.shards[i] }

// Policy returns the fsync policy.
func (m *Manager) Policy() Policy { return m.opts.Policy }

// Recovery hands off shard i's recovered streams, sorted by id: the
// decoded snapshot state (nil when the stream has none) plus the surviving
// WAL batches in replay order. The slice is the Open-time scan result,
// replayed once at boot; the Manager drops its reference as it hands it
// over, so the decoded columns live only as long as the caller's replay
// and a second call returns nil.
func (m *Manager) Recovery(i int) []StreamRecovery {
	rec := m.recovery[i]
	m.recovery[i] = nil
	return rec
}

// BytesAppended, Appends, Fsyncs and TornTails are the cumulative counters
// behind wcmd_wal_*_total.
func (m *Manager) BytesAppended() uint64 { return m.bytes.Load() }
func (m *Manager) Appends() uint64       { return m.appends.Load() }
func (m *Manager) Fsyncs() uint64        { return m.fsyncs.Load() }
func (m *Manager) TornTails() uint64     { return m.torn.Load() }

// Close flushes and closes every shard log, then writes the CLEAN marker.
// Regardless of policy, a clean shutdown leaves everything durable. Safe
// to call once; the serving layer checkpoints first so reopening replays
// (almost) nothing.
func (m *Manager) Close() error {
	if !m.closed.CompareAndSwap(false, true) {
		return nil
	}
	var first error
	for _, l := range m.shards {
		l.mu.Lock()
		if l.f != nil {
			if err := l.f.Sync(); err != nil && first == nil {
				first = err
			}
			if err := l.f.Close(); err != nil && first == nil {
				first = err
			}
			l.f = nil
		}
		l.mu.Unlock()
	}
	if first != nil {
		return first
	}
	if err := os.WriteFile(filepath.Join(m.opts.Dir, "CLEAN"), []byte("clean\n"), 0o644); err != nil {
		return err
	}
	return syncDir(m.opts.Dir)
}

func (m *Manager) closeFiles() {
	for _, l := range m.shards {
		if l != nil && l.f != nil {
			l.f.Close()
		}
	}
}

func segName(seg uint64) string { return fmt.Sprintf("wal-%08d.log", seg) }

// ---- append path -----------------------------------------------------------

// IngestRec is one applied batch of an AppendIngestGroup call.
type IngestRec struct {
	ID      string
	Version int64
	Ts, Ds  []int64
}

// AppendIngestGroup logs a group of applied batches — the serving layer's
// ingest tail passes one batch per request — with ONE write
// syscall and no user-space buffering, so an acknowledged record is in the
// page cache even if the process dies before any fsync. It does not sync;
// pair with Commit before acknowledging. The serving layer calls this under
// its shard lock so no record for a stream can land after that stream's
// tombstone. Each record is framed on its own — replay cannot tell how
// records were grouped — but the group shares a single encode buffer fill,
// lock acquisition and kernel crossing. The appends counter advances once
// per RECORD, not per write.
func (l *ShardLog) AppendIngestGroup(recs []IngestRec) error {
	if len(recs) == 0 {
		return nil
	}
	for i := range recs {
		if len(recs[i].ID) > maxIDLen {
			return fmt.Errorf("wal: stream id %d bytes exceeds %d", len(recs[i].ID), maxIDLen)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.readyLocked(); err != nil {
		return err
	}
	l.buf = l.buf[:0]
	for i := range recs {
		l.buf = appendRecord(l.buf, recIngest, recs[i].ID, recs[i].Version, recs[i].Ts, recs[i].Ds)
	}
	return l.writeLocked(len(recs))
}

// AppendTombstone logs a DELETE. Same contract as AppendIngestGroup.
func (l *ShardLog) AppendTombstone(id string) error {
	if len(id) > maxIDLen {
		return fmt.Errorf("wal: stream id %d bytes exceeds %d", len(id), maxIDLen)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.readyLocked(); err != nil {
		return err
	}
	l.buf = appendRecord(l.buf[:0], recTombstone, id, 0, nil, nil)
	return l.writeLocked(1)
}

// readyLocked checks the log is open and rotates a full segment, so the
// next write lands in a segment with room.
func (l *ShardLog) readyLocked() error {
	if l.f == nil {
		return errors.New("wal: shard log closed")
	}
	if l.off >= l.mgr.opts.SegmentBytes {
		return l.rotateLocked()
	}
	return nil
}

// maxKeptBuf is the largest encode buffer a shard log keeps between
// appends. A bigger one — a single 1 MiB binary ingest encodes ~1 MiB —
// is dropped after its write rather than pinned for the life of the
// process in every shard that ever saw such a batch.
const maxKeptBuf = 16 << 10

// writeLocked writes the encoded buffer holding `records` records in one
// syscall and marks the log dirty for the next Commit.
func (l *ShardLog) writeLocked(records int) error {
	n, err := l.f.Write(l.buf)
	if cap(l.buf) > maxKeptBuf {
		l.buf = nil
	}
	l.off += int64(n)
	l.mgr.bytes.Add(uint64(n))
	l.mgr.appends.Add(uint64(records))
	if err != nil {
		return err
	}
	l.dirty = true
	return nil
}

// Commit makes every record appended so far durable under the configured
// policy: fsync when dirty (PolicyBatch), no-op under PolicyNone. The
// serving layer calls it once per unit of work, before acknowledging the
// batches the pending records carry.
func (l *ShardLog) Commit() error {
	_, err := l.CommitSynced()
	return err
}

// CommitSynced is Commit, also reporting whether it ran an fsync: false
// under PolicyNone and when nothing was appended since the last sync. The
// serving layer times its commits with it, so a no-op commit never counts
// as an fsync.
func (l *ShardLog) CommitSynced() (synced bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.dirty || l.mgr.opts.Policy == PolicyNone || l.f == nil {
		return false, nil
	}
	if err := l.syncLocked(); err != nil {
		return true, err
	}
	l.dirty = false
	return true, nil
}

func (l *ShardLog) syncLocked() error {
	err := l.f.Sync()
	l.mgr.fsyncs.Add(1)
	return err
}

// Rotate closes the current segment and starts the next one, returning the
// new segment's index. The checkpointer calls it so every record appended
// before the call lives strictly below the returned index.
func (l *ShardLog) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, errors.New("wal: shard log closed")
	}
	if err := l.rotateLocked(); err != nil {
		return 0, err
	}
	return l.seg, nil
}

func (l *ShardLog) rotateLocked() error {
	if l.f != nil {
		// The old segment's records may be awaiting a group commit; flush
		// them so rotation never weakens the policy's guarantee. (Under
		// PolicyNone nothing was promised, so nothing is forced.)
		if l.dirty && l.mgr.opts.Policy != PolicyNone {
			if err := l.syncLocked(); err != nil {
				return err
			}
			l.dirty = false
		}
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f = nil
	}
	return l.startSegmentLocked(l.seg + 1)
}

// startSegmentLocked creates segment seg with its header and makes it the
// append target.
func (l *ShardLog) startSegmentLocked(seg uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(seg)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return err
	}
	if l.mgr.opts.Policy != PolicyNone {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := syncDir(l.dir); err != nil {
			f.Close()
			return err
		}
	}
	l.f, l.seg, l.off, l.dirty = f, seg, int64(len(segMagic)), false
	return nil
}

// ---- checkpoint file operations -------------------------------------------

// WriteSnapshot atomically persists one stream's state, tagged with the
// checkpoint's rotation segment and the stream version inside the blob.
func (l *ShardLog) WriteSnapshot(id string, snapSeg uint64, version int64, state []byte) error {
	return writeSnapshotFile(l.dir, id, snapSeg, version, state)
}

// CleanSnapshots removes every snapshot file whose stream id the keep
// function rejects — checkpoint hygiene for streams that died since the
// last pass.
func (l *ShardLog) CleanSnapshots(keep func(id string) bool) error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || len(name) < 10 || name[:5] != "snap-" || name[len(name)-5:] != ".snap" {
			continue
		}
		path := filepath.Join(l.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		sf, err := parseSnapshot(data)
		if err == nil && keep(sf.id) {
			continue
		}
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// RemoveSegmentsBefore deletes every segment file with index < seg. The
// checkpointer calls it last: the snapshots covering those records are
// already durable.
func (l *ShardLog) RemoveSegmentsBefore(seg uint64) error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		idx, ok := segIndex(ent.Name())
		if !ok || idx >= seg {
			continue
		}
		if err := os.Remove(filepath.Join(l.dir, ent.Name())); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return syncDir(l.dir)
}

// segIndex parses a segment file name, reporting whether it is one.
func segIndex(name string) (uint64, bool) {
	var idx uint64
	if n, err := fmt.Sscanf(name, "wal-%08d.log", &idx); n != 1 || err != nil {
		return 0, false
	}
	// Reject names Sscanf is lenient about (suffix garbage).
	if name != segName(idx) {
		return 0, false
	}
	return idx, true
}
