package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wcm/internal/stream"
	"wcm/internal/wal"
)

// The v1 on-disk format, frozen: testdata/datadir-v1 is a data directory
// written by the generator below (meta.json format 1, WCMSNAP1 snapshots,
// WCMSTRM1 stream states, v1 segment framing), and answers.json holds the
// exact /curves, /check, /minfreq and /verdict responses it must recover
// to. A change to any of the four formats must keep reading this
// directory; a new layout adds a fixture of its own rather than
// regenerating this one.
//
// Regenerate (only when the answers themselves are meant to change):
//
//	go test ./internal/server -run TestGenerateDataDirV1 -update

var update = flag.Bool("update", false, "rewrite testdata/datadir-v1 from the current code")

const datadirV1 = "testdata/datadir-v1"

// datadirV1Config is the configuration the fixture was written under; the
// shard count and stream geometry are recorded in its meta.json.
func datadirV1Config() Config {
	return Config{Shards: 2, Stream: stream.Config{Window: 32, MaxK: 8}}
}

// fixtureAnswer is one request against the recovered server and the exact
// response it must get.
type fixtureAnswer struct {
	Method string `json:"method"`
	Path   string `json:"path"`
	Body   string `json:"body,omitempty"`
	Status int    `json:"status"`
	Resp   string `json:"resp"`
}

// datadirV1Queries are the reads the fixture's answers pin, per stream.
func datadirV1Queries() []fixtureAnswer {
	var qs []fixtureAnswer
	for _, id := range []string{"full", "reborn", "snap", "torn", "gone"} {
		p := "/v1/streams/" + id
		qs = append(qs,
			fixtureAnswer{Method: "GET", Path: p + "/curves"},
			fixtureAnswer{Method: "POST", Path: p + "/check", Body: `{"freq_hz":250000,"latency_ns":0,"buffer":2}`},
			fixtureAnswer{Method: "POST", Path: p + "/check", Body: `{"freq_hz":400000,"latency_ns":1000,"buffer":1}`},
			fixtureAnswer{Method: "GET", Path: p + "/minfreq?b=2"},
			fixtureAnswer{Method: "GET", Path: p + "/verdict"},
		)
	}
	return qs
}

// serve runs one request through h in process and returns status and the
// exact body bytes.
func serve(h http.Handler, method, path, body string) (int, string) {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// fixtureBatch is a deterministic batch: n samples starting at sample
// index from, 1 µs apart with a small jitter, demands in [200, 700).
func fixtureBatch(from, n int) string {
	ts := make([]int64, n)
	ds := make([]int64, n)
	for i := range ts {
		k := int64(from + i)
		ts[i] = k*1000 + (k*37)%200
		ds[i] = 200 + (k*k*53+k*11)%500
	}
	return fmt.Sprintf(`{"t":%s,"demand":%s}`, jsonInts(ts), jsonInts(ds))
}

// TestGenerateDataDirV1 writes the fixture with the current code. It runs
// only with -update. The directory holds, over two shards:
//   - full: 48 samples in three batches, more than the 32-sample window,
//     all in the WAL;
//   - snap: covered by a snapshot, with WAL records after it;
//   - reborn: snapshotted with snap, deleted (a tombstone after the
//     snapshot), then created again;
//   - torn: its last batch is cut short, a torn tail the reopen truncates,
//     so the stream recovers without that batch;
//   - gone: created and deleted, so it must not come back.
//
// The process then "crashes": nothing is closed or checkpointed.
func TestGenerateDataDirV1(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite " + datadirV1)
	}
	if err := os.RemoveAll(datadirV1); err != nil {
		t.Fatal(err)
	}
	cfg := datadirV1Config()
	m, err := wal.Open(wal.Options{Dir: datadirV1, Shards: cfg.Shards, Policy: wal.PolicyBatch, Stream: cfg.Stream})
	if err != nil {
		t.Fatal(err)
	}
	cfg.WAL = m
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	must := func(method, path, body string) {
		t.Helper()
		if code, resp := serve(h, method, path, body); code != http.StatusOK && code != http.StatusNoContent {
			t.Fatalf("%s %s: %d %s", method, path, code, resp)
		}
	}
	ingest := func(id string, from, n int) {
		t.Helper()
		must("POST", "/v1/streams/"+id+"/ingest", fixtureBatch(from, n))
	}

	ingest("full", 0, 16)
	ingest("reborn", 0, 10)
	ingest("gone", 0, 5)
	ingest("snap", 0, 12)
	ingest("full", 16, 16)
	ingest("torn", 0, 8)
	if err := srv.checkpointShard(int(srv.shardIndex("snap"))); err != nil {
		t.Fatal(err)
	}
	ingest("snap", 12, 4)
	must("DELETE", "/v1/streams/reborn", "")
	ingest("reborn", 100, 6)
	ingest("full", 32, 16)
	must("DELETE", "/v1/streams/gone", "")
	ingest("snap", 16, 4)
	ingest("torn", 8, 4)

	// Tear the last record on torn's shard: it was the last append there.
	shard := srv.shardIndex("torn")
	if srv.shardIndex("snap") == shard || srv.shardIndex("reborn") != srv.shardIndex("snap") {
		t.Fatal("torn and snap must hash to different shards, reborn to snap's")
	}
	segs, err := filepath.Glob(filepath.Join(datadirV1, fmt.Sprintf("shard-%03d", shard), "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment on shard %d: %v", shard, err)
	}
	tail := segs[len(segs)-1]
	fi, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tail, fi.Size()-9); err != nil {
		t.Fatal(err)
	}

	// Record the answers a fresh process recovers to, from a copy (the
	// reopen truncates the torn tail, which must stay in the fixture).
	answers := recoverFixture(t)
	out, err := json.MarshalIndent(answers, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(datadirV1, "answers.json"), append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// recoverFixture copies the fixture to a temp dir, recovers a server from
// it and answers every datadirV1Queries request.
func recoverFixture(t *testing.T) []fixtureAnswer {
	t.Helper()
	dir := t.TempDir()
	if err := copyTree(datadirV1, dir); err != nil {
		t.Fatal(err)
	}
	cfg := datadirV1Config()
	cfg.WAL = openTestWAL(t, dir, cfg, wal.PolicyBatch)
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("recovering the v1 data dir: %v", err)
	}
	defer srv.Close()
	if got := srv.wal.TornTails(); got != 1 {
		t.Errorf("torn tails = %d, want 1", got)
	}
	for i := 0; i < cfg.Shards; i++ {
		if rec := srv.wal.Recovery(i); rec != nil {
			t.Errorf("shard %d: the WAL still holds %d replayed streams' recovery scan", i, len(rec))
		}
	}
	answers := datadirV1Queries()
	for i := range answers {
		a := &answers[i]
		a.Status, a.Resp = serve(srv.Handler(), a.Method, a.Path, a.Body)
	}
	return answers
}

// TestDataDirV1Recovers opens a copy of the committed v1 data directory
// and compares every pinned answer byte for byte.
func TestDataDirV1Recovers(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(datadirV1, "answers.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []fixtureAnswer
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := recoverFixture(t)
	if len(got) != len(want) {
		t.Fatalf("%d answers, fixture pins %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Method != g.Method || w.Path != g.Path || w.Body != g.Body {
			t.Fatalf("answer %d is for %s %s %s, query is %s %s %s", i, w.Method, w.Path, w.Body, g.Method, g.Path, g.Body)
		}
		if g.Status != w.Status || !bytes.Equal([]byte(g.Resp), []byte(w.Resp)) {
			t.Errorf("%s %s %s:\n got %d %s\nwant %d %s", w.Method, w.Path, w.Body, g.Status, g.Resp, w.Status, w.Resp)
		}
	}
}

// copyTree copies the regular files under src into dst, keeping layout.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
