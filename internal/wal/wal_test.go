package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wcm/internal/stream"
)

func testOpts(dir string) Options {
	return Options{
		Dir:          dir,
		Shards:       2,
		SegmentBytes: 4096,
		Policy:       PolicyBatch,
		Stream:       stream.Config{Window: 64, MaxK: 16},
	}
}

func mustOpen(t *testing.T, opts Options) *Manager {
	t.Helper()
	m, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return m
}

func ing(t *testing.T, l *ShardLog, id string, ver int64, ts, ds []int64) {
	t.Helper()
	if err := l.AppendIngestGroup([]IngestRec{{ID: id, Version: ver, Ts: ts, Ds: ds}}); err != nil {
		t.Fatalf("AppendIngestGroup(%s, v%d): %v", id, ver, err)
	}
}

func TestAppendRecoverCycle(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	m := mustOpen(t, opts)
	if m.CleanStart() {
		t.Error("fresh directory reported a clean start")
	}
	l := m.Shard(0)
	ing(t, l, "a", 1, []int64{10, 20}, []int64{3, 4})
	ing(t, l, "a", 2, []int64{30}, []int64{5})
	ing(t, l, "b", 1, []int64{5}, []int64{7})
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if synced, err := l.CommitSynced(); err != nil || synced {
		t.Errorf("CommitSynced on a clean log = %v, %v; want a no-op", synced, err)
	}
	if m.Appends() != 3 || m.Fsyncs() != 1 {
		t.Errorf("appends=%d fsyncs=%d, want 3 and 1", m.Appends(), m.Fsyncs())
	}
	if m.BytesAppended() == 0 {
		t.Error("BytesAppended is zero after three appends")
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	m2 := mustOpen(t, opts)
	defer m2.Close()
	if !m2.CleanStart() {
		t.Error("reopen after Close did not report a clean start")
	}
	rec := m2.Recovery(0)
	if len(rec) != 2 || rec[0].ID != "a" || rec[1].ID != "b" {
		t.Fatalf("recovery: %+v", rec)
	}
	a := rec[0]
	if a.SnapshotState != nil || len(a.Batches) != 2 {
		t.Fatalf("stream a: %+v", a)
	}
	if a.Batches[0].Version != 1 || !reflect.DeepEqual(a.Batches[0].Ts, []int64{10, 20}) ||
		!reflect.DeepEqual(a.Batches[0].Demands, []int64{3, 4}) {
		t.Errorf("a batch 0: %+v", a.Batches[0])
	}
	if a.Batches[1].Version != 2 || !reflect.DeepEqual(a.Batches[1].Demands, []int64{5}) {
		t.Errorf("a batch 1: %+v", a.Batches[1])
	}
	if len(rec[1].Batches) != 1 || rec[1].Batches[0].Version != 1 {
		t.Errorf("stream b: %+v", rec[1])
	}
	if got := m2.Recovery(1); len(got) != 0 {
		t.Errorf("shard 1 recovered %+v, want nothing", got)
	}
	if again := m2.Recovery(0); again != nil {
		t.Errorf("Recovery(0) after the hand-off = %+v, want nil: the Manager still pins the scan", again)
	}
}

func TestPolicyNoneSurvivesCleanClose(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	opts.Policy = PolicyNone
	m := mustOpen(t, opts)
	ing(t, m.Shard(0), "a", 1, []int64{1}, []int64{2})
	if synced, err := m.Shard(0).CommitSynced(); err != nil || synced {
		t.Fatalf("CommitSynced = %v, %v; PolicyNone must not sync", synced, err)
	}
	if m.Fsyncs() != 0 {
		t.Errorf("PolicyNone fsynced %d times on Commit", m.Fsyncs())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2 := mustOpen(t, opts)
	defer m2.Close()
	if rec := m2.Recovery(0); len(rec) != 1 || len(rec[0].Batches) != 1 {
		t.Fatalf("recovery: %+v", rec)
	}
}

func TestTombstoneDropsPriorRecords(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	m := mustOpen(t, opts)
	l := m.Shard(0)
	ing(t, l, "a", 1, []int64{1, 2}, []int64{1, 1})
	ing(t, l, "a", 2, []int64{3}, []int64{1})
	if err := l.AppendTombstone("a"); err != nil {
		t.Fatal(err)
	}
	// The stream is re-created after the DELETE: versions restart.
	ing(t, l, "a", 1, []int64{100}, []int64{9})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := mustOpen(t, opts)
	defer m2.Close()
	rec := m2.Recovery(0)
	if len(rec) != 1 || len(rec[0].Batches) != 1 {
		t.Fatalf("recovery: %+v", rec)
	}
	if b := rec[0].Batches[0]; b.Version != 1 || b.Ts[0] != 100 {
		t.Errorf("post-tombstone batch: %+v", b)
	}
}

func TestTombstoneWithoutRecreateKillsStream(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	m := mustOpen(t, opts)
	l := m.Shard(1)
	ing(t, l, "gone", 1, []int64{1}, []int64{1})
	if err := l.AppendTombstone("gone"); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2 := mustOpen(t, opts)
	defer m2.Close()
	if rec := m2.Recovery(1); len(rec) != 0 {
		t.Fatalf("deleted stream resurrected: %+v", rec)
	}
}

// TestCheckpointCoversAndTruncates walks the full checkpoint protocol the
// serving layer runs: rotate, snapshot at the rotation segment, drop old
// segments — then proves recovery uses the snapshot plus only the
// post-snapshot records.
func TestCheckpointCoversAndTruncates(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	m := mustOpen(t, opts)
	l := m.Shard(0)
	ing(t, l, "a", 1, []int64{1}, []int64{1})
	ing(t, l, "a", 2, []int64{2}, []int64{2})

	newSeg, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte("opaque-state-v2")
	if err := l.WriteSnapshot("a", newSeg, 2, blob); err != nil {
		t.Fatal(err)
	}
	if err := l.RemoveSegmentsBefore(newSeg); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint traffic.
	ing(t, l, "a", 3, []int64{3}, []int64{3})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// The pre-rotation segment is physically gone.
	if _, err := os.Stat(filepath.Join(dir, "shard-000", segName(1))); !os.IsNotExist(err) {
		t.Errorf("segment 1 still present after RemoveSegmentsBefore: %v", err)
	}

	m2 := mustOpen(t, opts)
	defer m2.Close()
	rec := m2.Recovery(0)
	if len(rec) != 1 {
		t.Fatalf("recovery: %+v", rec)
	}
	a := rec[0]
	if string(a.SnapshotState) != string(blob) || a.SnapshotVersion != 2 {
		t.Errorf("snapshot: version=%d state=%q", a.SnapshotVersion, a.SnapshotState)
	}
	if len(a.Batches) != 1 || a.Batches[0].Version != 3 {
		t.Errorf("replay batches: %+v", a.Batches)
	}
}

// TestSnapshotKilledByLaterTombstone is the DELETE-racing-checkpoint
// ordering: the tombstone lands at/after the snapshot's rotation segment,
// so the snapshot must be discarded (and its file removed).
func TestSnapshotKilledByLaterTombstone(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	m := mustOpen(t, opts)
	l := m.Shard(0)
	ing(t, l, "a", 1, []int64{1}, []int64{1})
	newSeg, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot("a", newSeg, 1, []byte("covered")); err != nil {
		t.Fatal(err)
	}
	// DELETE after the checkpoint: the tombstone lands in a segment ≥ newSeg.
	if err := l.AppendTombstone("a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := mustOpen(t, opts)
	defer m2.Close()
	if rec := m2.Recovery(0); len(rec) != 0 {
		t.Fatalf("tombstoned snapshot resurrected: %+v", rec)
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-000", snapFileName("a"))); !os.IsNotExist(err) {
		t.Errorf("stale snapshot file survived recovery: %v", err)
	}
}

// TestSnapshotSurvivesEarlierTombstone is the delete-then-recreate-then-
// checkpoint ordering: the tombstone precedes the snapshot's segment, so
// the snapshot (of the new incarnation) is trusted.
func TestSnapshotSurvivesEarlierTombstone(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	m := mustOpen(t, opts)
	l := m.Shard(0)
	ing(t, l, "a", 1, []int64{1}, []int64{1})
	if err := l.AppendTombstone("a"); err != nil {
		t.Fatal(err)
	}
	ing(t, l, "a", 1, []int64{50}, []int64{5}) // recreated
	newSeg, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot("a", newSeg, 1, []byte("incarnation-2")); err != nil {
		t.Fatal(err)
	}
	if err := l.RemoveSegmentsBefore(newSeg); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := mustOpen(t, opts)
	defer m2.Close()
	rec := m2.Recovery(0)
	if len(rec) != 1 || string(rec[0].SnapshotState) != "incarnation-2" || len(rec[0].Batches) != 0 {
		t.Fatalf("recovery: %+v", rec)
	}
}

func TestTornTailTruncatedThenAppendable(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	m := mustOpen(t, opts)
	l := m.Shard(0)
	ing(t, l, "a", 1, []int64{1}, []int64{1})
	ing(t, l, "a", 2, []int64{2}, []int64{2})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Shear the tail: a partial frame header, as a crash mid-write leaves.
	seg := filepath.Join(dir, "shard-000", segName(1))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xAB, 0xCD, 0xEF}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(seg)

	m2 := mustOpen(t, opts)
	if m2.TornTails() != 1 {
		t.Errorf("TornTails=%d, want 1", m2.TornTails())
	}
	rec := m2.Recovery(0)
	if len(rec) != 1 || len(rec[0].Batches) != 2 {
		t.Fatalf("recovery after torn tail: %+v", rec)
	}
	after, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size()-3 {
		t.Errorf("segment not truncated: before=%d after=%d", before.Size(), after.Size())
	}
	// The truncated segment accepts new appends, and a further recovery
	// sees old and new records both.
	ing(t, m2.Shard(0), "a", 3, []int64{3}, []int64{3})
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	m3 := mustOpen(t, opts)
	defer m3.Close()
	if rec := m3.Recovery(0); len(rec) != 1 || len(rec[0].Batches) != 3 {
		t.Fatalf("recovery after post-torn append: %+v", rec)
	}
	if m3.TornTails() != 0 {
		t.Errorf("clean reopen reported %d torn tails", m3.TornTails())
	}
}

func TestCorruptMidRecordDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	m := mustOpen(t, opts)
	l := m.Shard(0)
	ing(t, l, "a", 1, []int64{1}, []int64{1})
	ing(t, l, "a", 2, []int64{2}, []int64{2})
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	ing(t, l, "a", 3, []int64{3}, []int64{3})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside segment 1's second record: the scan stops there,
	// and segment 2 — with records "after" the corruption — must be dropped
	// so future appends can't strand them.
	seg1 := filepath.Join(dir, "shard-000", segName(1))
	data, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(seg1, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := mustOpen(t, opts)
	defer m2.Close()
	rec := m2.Recovery(0)
	if len(rec) != 1 || len(rec[0].Batches) != 1 || rec[0].Batches[0].Version != 1 {
		t.Fatalf("recovery: %+v", rec)
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-000", segName(2))); !os.IsNotExist(err) {
		t.Errorf("segment after corruption survived: %v", err)
	}
}

func TestSegmentRotationBySize(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir) // 4096-byte segments
	m := mustOpen(t, opts)
	l := m.Shard(0)
	ts := make([]int64, 64)
	ds := make([]int64, 64)
	for i := range ts {
		ts[i] = int64(i)
		ds[i] = 1
	}
	const n = 16 // 16 × ~1KiB records: several rotations
	for v := int64(1); v <= n; v++ {
		ing(t, l, "big", v, ts, ds)
	}
	segs, err := listSegments(filepath.Join(dir, "shard-000"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("no rotation after %d large appends: segments %v", n, segs)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2 := mustOpen(t, opts)
	defer m2.Close()
	rec := m2.Recovery(0)
	if len(rec) != 1 || len(rec[0].Batches) != n {
		t.Fatalf("recovered %d batches across segments, want %d", len(rec[0].Batches), n)
	}
	for i, b := range rec[0].Batches {
		if b.Version != int64(i+1) {
			t.Fatalf("batch %d has version %d", i, b.Version)
		}
	}
}

func TestMetaMismatchRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	m := mustOpen(t, opts)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	bad := opts
	bad.Shards = 4
	if _, err := Open(bad); err == nil || !strings.Contains(err.Error(), "must match") {
		t.Errorf("shard-count mismatch: err=%v", err)
	}
	bad = opts
	bad.Stream = stream.Config{Window: 128, MaxK: 16}
	if _, err := Open(bad); err == nil || !strings.Contains(err.Error(), "must match") {
		t.Errorf("stream-config mismatch: err=%v", err)
	}
	// The original options still open fine.
	m2 := mustOpen(t, opts)
	m2.Close()
}

func TestCleanMarkerLifecycle(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	m := mustOpen(t, opts)
	if m.CleanStart() {
		t.Error("first open clean")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2 := mustOpen(t, opts)
	if !m2.CleanStart() {
		t.Error("open after Close not clean")
	}
	// Abandon m2 without Close — a crash. The marker was consumed at open,
	// so the next open must report an unclean start.
	m3 := mustOpen(t, opts)
	defer m3.Close()
	if m3.CleanStart() {
		t.Error("open after crash reported clean start")
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"batch": PolicyBatch, "none": PolicyNone} {
		p, err := ParsePolicy(s)
		if err != nil || p != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, p, err)
		}
		if p.String() != s {
			t.Errorf("Policy.String() = %q, want %q", p.String(), s)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Error("ParsePolicy accepted garbage")
	}
	// "always" was folded into "batch": both fsynced before the ack.
	_, err := ParsePolicy("always")
	if err == nil || !strings.Contains(err.Error(), `want "batch" or "none"`) {
		t.Errorf(`ParsePolicy("always") error = %v, want one listing the valid values`, err)
	}
}

func TestOpenValidation(t *testing.T) {
	cases := []Options{
		{},                                       // no dir
		{Dir: "x", Shards: 0},                    // no shards
		{Dir: "x", Shards: 1, SegmentBytes: 100}, // absurdly small segments
		{Dir: "x", Shards: 1, Policy: Policy(7)}, // unknown policy
	}
	for i, opts := range cases {
		if opts.Dir != "" {
			opts.Dir = filepath.Join(t.TempDir(), "d")
		}
		if _, err := Open(opts); err == nil {
			t.Errorf("case %d: Open accepted %+v", i, cases[i])
		}
	}
}

func TestStructuralCorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	m := mustOpen(t, opts)
	ing(t, m.Shard(0), "a", 1, []int64{1}, []int64{1})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Hand-craft a record whose CRC is valid but whose kind is unknown:
	// that is writer incompatibility, and Open must refuse, not skip.
	seg := filepath.Join(dir, "shard-000", segName(1))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	frame := appendRecord(nil, 0x7F, "x", 0, nil, nil)
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(opts); err == nil || !strings.Contains(err.Error(), "unknown record kind") {
		t.Errorf("structurally corrupt record: err=%v", err)
	}
}

func TestOversizedIDRejected(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, testOpts(dir))
	defer m.Close()
	huge := strings.Repeat("x", maxIDLen+1)
	if err := m.Shard(0).AppendIngestGroup([]IngestRec{{ID: huge, Version: 1, Ts: []int64{1}, Ds: []int64{1}}}); err == nil {
		t.Error("oversized id accepted by AppendIngestGroup")
	}
	if err := m.Shard(0).AppendTombstone(huge); err == nil {
		t.Error("oversized id accepted by AppendTombstone")
	}
}

func TestLSNOrdering(t *testing.T) {
	a := lsn{seg: 2, off: 10}
	for _, b := range []lsn{{seg: 1, off: 999}, {seg: 2, off: 9}} {
		if !a.after(b) || b.after(a) {
			t.Errorf("lsn ordering broken for %+v vs %+v", a, b)
		}
	}
	if a.after(a) {
		t.Error("lsn after itself")
	}
}

func TestErrTornSentinel(t *testing.T) {
	// Every torn shape maps to errTorn, never a panic or a misparse.
	cases := [][]byte{
		nil,
		{1, 2, 3},                            // short header
		{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}, // absurd length
		{10, 0, 0, 0, 0, 0, 0, 0, 1, 2},      // length past buffer
	}
	valid := appendRecord(nil, recIngest, "s", 1, []int64{1}, []int64{2})
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-1] ^= 1 // CRC mismatch
	cases = append(cases, corrupt, valid[:len(valid)-1])
	for i, b := range cases {
		if _, _, err := parseFrame(b); !errors.Is(err, errTorn) {
			t.Errorf("case %d: err=%v, want errTorn", i, err)
		}
	}
	// And the valid frame round-trips.
	payload, consumed, err := parseFrame(valid)
	if err != nil || consumed != len(valid) {
		t.Fatalf("valid frame: consumed=%d err=%v", consumed, err)
	}
	rec, err := parsePayload(payload)
	if err != nil || rec.id != "s" || rec.version != 1 || rec.ts[0] != 1 || rec.ds[0] != 2 {
		t.Errorf("round-trip: %+v err=%v", rec, err)
	}
}

// TestAppendIngestGroup: a group append must recover identically to the same
// records appended one at a time, and the appends counter must advance per
// record, not per write call.
func TestAppendIngestGroup(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	m := mustOpen(t, opts)
	l := m.Shard(0)
	if err := l.AppendIngestGroup(nil); err != nil {
		t.Fatalf("empty group: %v", err)
	}
	group := []IngestRec{
		{ID: "a", Version: 1, Ts: []int64{10, 20}, Ds: []int64{3, 4}},
		{ID: "b", Version: 1, Ts: []int64{5}, Ds: []int64{7}},
		{ID: "a", Version: 2, Ts: []int64{30}, Ds: []int64{5}},
	}
	if err := l.AppendIngestGroup(group); err != nil {
		t.Fatalf("AppendIngestGroup: %v", err)
	}
	ing(t, l, "b", 2, []int64{9}, []int64{11})
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if m.Appends() != 4 {
		t.Errorf("appends=%d, want 4 (counter counts records, not writes)", m.Appends())
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	m2 := mustOpen(t, opts)
	defer m2.Close()
	rec := m2.Recovery(0)
	if len(rec) != 2 || rec[0].ID != "a" || rec[1].ID != "b" {
		t.Fatalf("recovery: %+v", rec)
	}
	a, b := rec[0], rec[1]
	if len(a.Batches) != 2 || len(b.Batches) != 2 {
		t.Fatalf("batch counts: a=%d b=%d, want 2 and 2", len(a.Batches), len(b.Batches))
	}
	if a.Batches[0].Version != 1 || !reflect.DeepEqual(a.Batches[0].Ts, []int64{10, 20}) ||
		!reflect.DeepEqual(a.Batches[0].Demands, []int64{3, 4}) {
		t.Errorf("a batch 0: %+v", a.Batches[0])
	}
	if a.Batches[1].Version != 2 || !reflect.DeepEqual(a.Batches[1].Demands, []int64{5}) {
		t.Errorf("a batch 1: %+v", a.Batches[1])
	}
	if b.Batches[0].Version != 1 || !reflect.DeepEqual(b.Batches[0].Demands, []int64{7}) {
		t.Errorf("b batch 0: %+v", b.Batches[0])
	}
	if b.Batches[1].Version != 2 || !reflect.DeepEqual(b.Batches[1].Demands, []int64{11}) {
		t.Errorf("b batch 1: %+v", b.Batches[1])
	}

	// An over-long ID anywhere in the group rejects the whole group before
	// any bytes are written.
	before := m2.BytesAppended()
	bad := []IngestRec{
		{ID: "ok", Version: 3, Ts: []int64{1}, Ds: []int64{1}},
		{ID: string(make([]byte, 1<<16)), Version: 3, Ts: []int64{1}, Ds: []int64{1}},
	}
	if err := m2.Shard(0).AppendIngestGroup(bad); err == nil {
		t.Fatal("group with over-long ID accepted")
	}
	if m2.BytesAppended() != before {
		t.Error("rejected group still wrote bytes")
	}
}

// TestAppendBufferFootprint checks that a shard log does not pin the encode
// buffer of its largest append: after a 64k-sample batch — about what a
// 1 MiB binary ingest body carries — the buffer it keeps is at most
// maxKeptBuf, small appends still reuse theirs, and the big record replays.
func TestAppendBufferFootprint(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	m := mustOpen(t, opts)
	l := m.Shard(0)
	const n = 1 << 16
	ts, ds := make([]int64, n), make([]int64, n)
	for i := range ts {
		ts[i], ds[i] = int64(i), int64(i%97)
	}
	ing(t, l, "small", 1, []int64{1}, []int64{2})
	if cap(l.buf) == 0 {
		t.Fatal("a small append dropped its encode buffer")
	}
	ing(t, l, "big", 1, ts, ds)
	if cap(l.buf) > maxKeptBuf {
		t.Fatalf("after a %d-sample append the shard log keeps a %d-byte buffer, want ≤ %d", n, cap(l.buf), maxKeptBuf)
	}
	if err := l.AppendTombstone("small"); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := mustOpen(t, opts)
	defer m2.Close()
	rec := m2.Recovery(0)
	if len(rec) != 1 || rec[0].ID != "big" || len(rec[0].Batches) != 1 {
		t.Fatalf("recovery: %d streams, want the one big batch", len(rec))
	}
	b := rec[0].Batches[0]
	if b.Version != 1 || !reflect.DeepEqual(b.Ts, ts) || !reflect.DeepEqual(b.Demands, ds) {
		t.Fatalf("big batch replayed as version %d with %d samples, want version 1 with %d equal samples",
			b.Version, len(b.Ts), n)
	}
}
