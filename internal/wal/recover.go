package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Recovery scan: executed once per shard inside Open, before any append.
// The scan reads every snapshot and walks every segment record by record,
// then resolves three orderings into the state the serving layer replays:
//
//   - tombstone vs record: a record survives only if it was appended after
//     the last tombstone for its stream (equivalently: tombstones drop
//     everything accumulated so far — the scan is in LSN order).
//   - tombstone vs snapshot: a snapshot is trusted only when no tombstone
//     for its id lives at or after its rotation segment (snapSeg). A
//     DELETE racing a checkpoint lands its tombstone in a segment ≥
//     snapSeg, so the tombstone wins in either interleaving.
//   - snapshot vs record: surviving records with version ≤ the snapshot's
//     are already inside it and are dropped; the rest replay on top,
//     sorted by version (two concurrent appenders holding the shard read
//     lock may reach the log mutex in either order, so raw file order is
//     not version order).
//
// A torn tail — short header, short payload, CRC mismatch — stops the scan
// at the last intact record: that segment is truncated to its valid end
// (or removed outright when even the header is torn) and every later
// segment is deleted, because records appended after an ignored region
// would be unreachable to any future scan. A payload that passes its CRC
// but fails structural decoding is NOT torn — it means an incompatible
// writer, and Open fails loudly rather than silently dropping data.

// RecoveredBatch is one WAL ingest record to replay: the batch columns and
// the stream version the batch originally landed at.
type RecoveredBatch struct {
	Version int64
	Ts      []int64
	Demands []int64
}

// StreamRecovery is everything recovery knows about one stream:
// the snapshot blob to restore from (nil when the stream has none; decode
// with stream.DecodeState) and the batches to replay on top, in order.
type StreamRecovery struct {
	ID              string
	SnapshotState   []byte
	SnapshotVersion int64 // 0 when SnapshotState is nil
	Batches         []RecoveredBatch
}

// openAndScan recovers one shard directory and leaves the log positioned
// for appending. Called from Open before the manager is shared, so no
// locking is needed.
func (l *ShardLog) openAndScan() ([]StreamRecovery, error) {
	snaps, badSnaps, err := readSnapshots(l.dir)
	if err != nil {
		return nil, err
	}
	// Corrupt snapshots count toward the torn tally: artifacts dropped at
	// recovery because a crash (or the disk) sheared them.
	if badSnaps > 0 {
		l.mgr.torn.Add(uint64(badSnaps))
	}

	segs, err := listSegments(l.dir)
	if err != nil {
		return nil, err
	}

	batches := make(map[string][]RecoveredBatch)
	tombs := make(map[string]lsn)
	var (
		tailSeg  uint64 // last intact segment
		tailEnd  int64  // its valid length
		haveTail bool
	)
	for si, seg := range segs {
		path := filepath.Join(l.dir, segName(seg))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		validEnd, torn := int64(0), false
		if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
			torn = true
		} else {
			off := int64(len(segMagic))
			for off < int64(len(data)) {
				payload, consumed, ferr := parseFrame(data[off:])
				if errors.Is(ferr, errTorn) {
					torn = true
					break
				}
				rec, perr := parsePayload(payload)
				if perr != nil {
					return nil, fmt.Errorf("%s offset %d: %w", segName(seg), off, perr)
				}
				switch rec.kind {
				case recTombstone:
					tombs[rec.id] = lsn{seg: seg, off: off}
					delete(batches, rec.id) // everything before the tombstone is dead
				case recIngest:
					batches[rec.id] = append(batches[rec.id],
						RecoveredBatch{Version: rec.version, Ts: rec.ts, Demands: rec.ds})
				}
				off += int64(consumed)
			}
			validEnd = off
		}
		if !torn {
			tailSeg, tailEnd, haveTail = seg, int64(len(data)), true
			continue
		}
		l.mgr.torn.Add(1)
		if validEnd < int64(len(segMagic)) {
			// Even the header is torn: the segment holds nothing.
			if err := os.Remove(path); err != nil {
				return nil, err
			}
		} else {
			if err := os.Truncate(path, validEnd); err != nil {
				return nil, err
			}
			tailSeg, tailEnd, haveTail = seg, validEnd, true
		}
		// Nothing after a torn region is trustworthy, and appending to a
		// later segment would strand these bytes forever — drop them.
		for _, later := range segs[si+1:] {
			if err := os.Remove(filepath.Join(l.dir, segName(later))); err != nil {
				return nil, err
			}
		}
		break
	}

	if haveTail {
		f, err := os.OpenFile(filepath.Join(l.dir, segName(tailSeg)), os.O_WRONLY, 0o644)
		if err != nil {
			return nil, err
		}
		if _, err := f.Seek(tailEnd, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		l.f, l.seg, l.off = f, tailSeg, tailEnd
	} else {
		// No usable segment. Never reuse an index that existed (or that a
		// snapshot's snapSeg references): tombstone-vs-snapshot resolution
		// compares segment indices, so a fresh segment below an existing
		// snapSeg could let a future DELETE land "before" a snapshot it
		// should kill.
		next := uint64(1)
		if n := len(segs); n > 0 && segs[n-1] >= next {
			next = segs[n-1] + 1
		}
		for _, sf := range snaps {
			if sf.seg >= next {
				next = sf.seg + 1
			}
		}
		if err := l.startSegmentLocked(next); err != nil {
			return nil, err
		}
	}

	// Resolve snapshots against tombstones, then assemble per-stream
	// recovery entries.
	ids := make(map[string]struct{}, len(snaps)+len(batches))
	for id, sf := range snaps {
		if tomb, ok := tombs[id]; ok && tomb.seg >= sf.seg {
			// The stream was deleted after this snapshot was cut; the file
			// is garbage that a clean checkpoint would have removed.
			if err := os.Remove(filepath.Join(l.dir, snapFileName(id))); err != nil && !os.IsNotExist(err) {
				return nil, err
			}
			delete(snaps, id)
			continue
		}
		ids[id] = struct{}{}
	}
	for id := range batches {
		ids[id] = struct{}{}
	}

	out := make([]StreamRecovery, 0, len(ids))
	for id := range ids {
		sr := StreamRecovery{ID: id}
		if sf, ok := snaps[id]; ok {
			sr.SnapshotState = sf.state
			sr.SnapshotVersion = sf.version
		}
		bs := batches[id]
		sort.Slice(bs, func(i, j int) bool { return bs[i].Version < bs[j].Version })
		for _, b := range bs {
			if b.Version <= sr.SnapshotVersion && sr.SnapshotState != nil {
				continue // already inside the snapshot
			}
			sr.Batches = append(sr.Batches, b)
		}
		if sr.SnapshotState == nil && len(sr.Batches) == 0 {
			continue
		}
		out = append(out, sr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// listSegments returns the shard's segment indices, ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, ent := range entries {
		if idx, ok := segIndex(ent.Name()); ok {
			segs = append(segs, idx)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}
