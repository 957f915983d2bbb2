package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wcm/internal/stream"
	"wcm/internal/wal"
)

// openTestWAL opens a wal.Manager over dir with a config matching cfg.
func openTestWAL(t *testing.T, dir string, cfg Config, pol wal.Policy) *wal.Manager {
	t.Helper()
	m, err := wal.Open(wal.Options{
		Dir:          dir,
		Shards:       cfg.Shards,
		SegmentBytes: 8192, // small, so crash tests cross segment boundaries
		Policy:       pol,
		Stream:       cfg.Stream,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// ackedBatch is one batch a durable server acknowledged; the differential
// reference replays exactly these.
type ackedBatch struct {
	id     string
	ts, ds []int64
}

// TestCrashRecoveryDifferential is the durability contract end to end:
// drive a durable server with a randomized concurrent ingest-only workload
// (one goroutine per stream, so each stream's batch order is well defined),
// checkpoint part-way, then CRASH — abandon the server without Close, the
// process-death simulation (every acked record reached the segment file via
// the direct write; only Close-time flushes are lost, and there are none).
// A fresh manager over the same directory must recover a server whose
// /v1/curves, /v1/check and /v1/minfreq answers are byte-identical to a
// never-crashed in-memory server fed the same acked batches.
func TestCrashRecoveryDifferential(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  wal.Policy
		ring int
	}{
		{"sync-batch", wal.PolicyBatch, 0},
		{"async-batch", wal.PolicyBatch, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{
				Shards:     4,
				Stream:     stream.Config{Window: 64, MaxK: 16, ReextractEvery: 13},
				IngestRing: tc.ring,
			}
			cfg.WAL = openTestWAL(t, dir, cfg, tc.pol)
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())

			ids := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
			acked := make([][]ackedBatch, len(ids))
			var wg sync.WaitGroup
			for w, id := range ids {
				wg.Add(1)
				go func(w int, id string) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w) + 11))
					var lastT int64
					for i := 0; i < 60; i++ {
						n := 1 + rng.Intn(5)
						bts := make([]int64, n)
						bds := make([]int64, n)
						for j := range bts {
							lastT += 1 + int64(rng.Intn(7))
							bts[j] = lastT
							bds[j] = int64(rng.Intn(9))
						}
						body := fmt.Sprintf(`{"t":%s,"demand":%s}`, jsonInts(bts), jsonInts(bds))
						st, raw := rawReq(t, "POST", ts.URL+"/v1/streams/"+id+"/ingest", "", []byte(body))
						if st != http.StatusOK {
							t.Errorf("%s batch %d: status %d body %s", id, i, st, raw)
							return
						}
						acked[w] = append(acked[w], ackedBatch{id, bts, bds})
						if w == 0 && i == 30 {
							// Mid-run checkpoint: recovery must compose a
							// snapshot with the WAL tail written after it.
							if err := srv.checkpointShard(int(srv.shardIndex(id))); err != nil {
								t.Errorf("checkpoint: %v", err)
							}
						}
					}
				}(w, id)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			// CRASH: no srv.Close(), no wal Close — just stop talking to it.
			ts.Close()

			recM, err := wal.Open(wal.Options{
				Dir: dir, Shards: cfg.Shards, SegmentBytes: 8192, Policy: tc.pol, Stream: cfg.Stream,
			})
			if err != nil {
				t.Fatalf("reopen wal: %v", err)
			}
			if recM.CleanStart() {
				t.Fatal("crash recovery reported a clean start")
			}
			recCfg := cfg
			recCfg.WAL = recM
			rec, err := New(recCfg)
			if err != nil {
				t.Fatalf("recover server: %v", err)
			}
			defer rec.Close()
			recTS := httptest.NewServer(rec.Handler())
			defer recTS.Close()

			// Reference: plain in-memory server fed the same acked batches,
			// per stream in ack order.
			refTS := newTestServer(t, Config{Shards: 4, Stream: cfg.Stream})
			for _, perStream := range acked {
				for _, b := range perStream {
					body := fmt.Sprintf(`{"t":%s,"demand":%s}`, jsonInts(b.ts), jsonInts(b.ds))
					if st, raw := rawReq(t, "POST", refTS.URL+"/v1/streams/"+b.id+"/ingest", "", []byte(body)); st != http.StatusOK {
						t.Fatalf("reference ingest: status %d body %s", st, raw)
					}
				}
			}

			for _, id := range ids {
				for _, q := range []struct{ method, path, body string }{
					{"GET", "/v1/streams/" + id + "/curves", ""},
					{"GET", "/v1/streams/" + id + "/minfreq", ""},
					{"POST", "/v1/streams/" + id + "/check", `{"freq_hz":2e9,"latency_ns":500}`},
				} {
					var b []byte
					if q.body != "" {
						b = []byte(q.body)
					}
					ws, wb := rawReq(t, q.method, refTS.URL+q.path, "", b)
					gs, gb := rawReq(t, q.method, recTS.URL+q.path, "", b)
					if ws != gs || string(wb) != string(gb) {
						t.Fatalf("%s %s diverges after recovery:\n want %d %s\n  got %d %s",
							q.method, q.path, ws, wb, gs, gb)
					}
				}
			}
		})
	}
}

// TestDeleteCrashRecover proves tombstone durability: a deleted stream must
// not resurrect after a crash, and a recreated stream of the same name must
// come back with only its post-recreate batches.
func TestDeleteCrashRecover(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 2, Stream: stream.Config{Window: 32, MaxK: 8}}
	cfg.WAL = openTestWAL(t, dir, cfg, wal.PolicyBatch)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	ing := func(id string, tsv, d int64) {
		t.Helper()
		body := fmt.Sprintf(`{"t":[%d],"demand":[%d]}`, tsv, d)
		if st, raw := rawReq(t, "POST", ts.URL+"/v1/streams/"+id+"/ingest", "", []byte(body)); st != http.StatusOK {
			t.Fatalf("ingest %s: %d %s", id, st, raw)
		}
	}
	ing("doomed", 10, 5)
	ing("doomed", 20, 7)
	ing("keeper", 10, 3)
	// Snapshot both, so the tombstone must also kill a snapshot.
	for i := 0; i < cfg.Shards; i++ {
		if err := srv.checkpointShard(i); err != nil {
			t.Fatal(err)
		}
	}
	ing("doomed", 30, 9)
	if st, raw := rawReq(t, "DELETE", ts.URL+"/v1/streams/doomed", "", nil); st != http.StatusNoContent {
		t.Fatalf("delete: %d %s", st, raw)
	}
	// Recreate under the same name: only this incarnation may survive.
	ing("doomed", 100, 1)
	ts.Close() // crash: no Close

	recM := openTestWAL(t, dir, cfg, wal.PolicyBatch)
	recCfg := cfg
	recCfg.WAL = recM
	rec, err := New(recCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	recTS := httptest.NewServer(rec.Handler())
	defer recTS.Close()

	_, raw := rawReq(t, "GET", recTS.URL+"/v1/streams/doomed/curves", "", nil)
	if strings.Contains(string(raw), `"total":4`) || !strings.Contains(string(raw), `"total":1`) {
		t.Fatalf("deleted stream resurrected old samples: %s", raw)
	}
	if st, raw := rawReq(t, "GET", recTS.URL+"/v1/streams/keeper/curves", "", nil); st != http.StatusOK || !strings.Contains(string(raw), `"total":1`) {
		t.Fatalf("keeper lost after recovery: %d %s", st, raw)
	}
}

// TestCleanShutdownRestart exercises the graceful path: Close checkpoints
// and writes the clean marker; the restart reports clean_start and replays
// from snapshots alone.
func TestCleanShutdownRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 2, Stream: stream.Config{Window: 32, MaxK: 8}}
	cfg.WAL = openTestWAL(t, dir, cfg, wal.PolicyBatch)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	if st, _ := rawReq(t, "POST", ts.URL+"/v1/streams/s/ingest", "", []byte(`{"t":[5,6],"demand":[2,3]}`)); st != http.StatusOK {
		t.Fatal("ingest failed")
	}
	ts.Close()
	srv.Close()

	recM := openTestWAL(t, dir, cfg, wal.PolicyBatch)
	if !recM.CleanStart() {
		t.Fatal("restart after Close did not see the clean marker")
	}
	recCfg := cfg
	recCfg.WAL = recM
	rec, err := New(recCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	recTS := httptest.NewServer(rec.Handler())
	defer recTS.Close()
	if st, raw := rawReq(t, "GET", recTS.URL+"/v1/streams/s/curves", "", nil); st != http.StatusOK || !strings.Contains(string(raw), `"total":2`) {
		t.Fatalf("clean restart lost data: %d %s", st, raw)
	}
	// The final checkpoint covered everything: nothing replayed from the log.
	if got := rec.recovered.batches.Load(); got != 0 {
		t.Fatalf("clean restart replayed %d batches from the WAL, want 0 (snapshots cover all)", got)
	}
	if rec.recovered.streams.Load() != 1 {
		t.Fatalf("recovered %d streams, want 1", rec.recovered.streams.Load())
	}
}

// TestHealthzDurability covers the /healthz durability object and the 503
// answered while recovery is in progress.
func TestHealthzDurability(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 2, Stream: stream.Config{Window: 32, MaxK: 8}}
	cfg.WAL = openTestWAL(t, dir, cfg, wal.PolicyBatch)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	req := httptest.NewRequest("GET", "/healthz", nil)
	recdr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(recdr, req)
	body := recdr.Body.String()
	if recdr.Code != http.StatusOK {
		t.Fatalf("healthz: %d %s", recdr.Code, body)
	}
	for _, want := range []string{`"durability"`, `"enabled":true`, `"fsync":"batch"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("healthz missing %s: %s", want, body)
		}
	}

	srv.recovering.Store(true)
	recdr = httptest.NewRecorder()
	srv.Handler().ServeHTTP(recdr, httptest.NewRequest("GET", "/healthz", nil))
	if recdr.Code != http.StatusServiceUnavailable || !strings.Contains(recdr.Body.String(), "recovering") {
		t.Fatalf("recovering healthz: %d %s, want 503 recovering", recdr.Code, recdr.Body.String())
	}
	srv.recovering.Store(false)
}

// TestWALMetricsExposed asserts the durability metric families appear in
// /metrics, with the fsync counter live under policy "batch".
func TestWALMetricsExposed(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 2, Stream: stream.Config{Window: 32, MaxK: 8}}
	cfg.WAL = openTestWAL(t, dir, cfg, wal.PolicyBatch)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if st, _ := rawReq(t, "POST", ts.URL+"/v1/streams/m/ingest", "", []byte(`{"t":[1],"demand":[2]}`)); st != http.StatusOK {
		t.Fatal("ingest failed")
	}
	_, raw := rawReq(t, "GET", ts.URL+"/metrics", "", nil)
	body := string(raw)
	for _, want := range []string{
		"wcmd_wal_bytes_total", "wcmd_wal_appends_total 1", "wcmd_wal_fsyncs_total",
		"wcmd_wal_torn_tails_total 0", "wcmd_recovery_replayed_batches 0",
		"wcmd_recovery_streams 0", "wcmd_wal_clean_start 0",
		`wcmd_stage_latency_seconds_count{stage="wal_append"} 1`,
		`wcmd_stage_latency_seconds_count{stage="wal_fsync"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
	if strings.Contains(body, "wcmd_wal_fsyncs_total 0\n") {
		t.Fatal("policy batch performed no fsync")
	}

	// A WAL-less server must emit none of the durability families.
	plain := newTestServer(t, Config{Shards: 2, Stream: cfg.Stream})
	_, raw = rawReq(t, "GET", plain.URL+"/metrics", "", nil)
	if strings.Contains(string(raw), "wcmd_wal_") {
		t.Fatal("in-memory server exposes wal metrics")
	}
}

// TestOneCommitPerUnit pins the ingest tail's commit contract: one WAL
// Commit per unit of work — a worker drain on the ring, a request on the
// inline tail — so fsyncs never exceed the units, and a batch the stream
// rejects adds no fsync of its own. One shard, so every stream shares one
// log and one worker.
func TestOneCommitPerUnit(t *testing.T) {
	for _, ring := range []int{16, 0} {
		t.Run(fmt.Sprintf("ring-%d", ring), func(t *testing.T) {
			cfg := Config{Shards: 1, Stream: stream.Config{Window: 32, MaxK: 8},
				IngestRing: ring, CoalesceBudget: 8}
			m := openTestWAL(t, t.TempDir(), cfg, wal.PolicyBatch)
			cfg.WAL = m
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			ingest := func(id string, tsv int64) int {
				code, _ := rawReq(t, "POST", ts.URL+"/v1/streams/"+id+"/ingest", "",
					[]byte(fmt.Sprintf(`{"t":[%d],"demand":[3]}`, tsv)))
				return code
			}
			if code := ingest("s0", 0); code != http.StatusOK {
				t.Fatalf("seed ingest: %d", code)
			}

			// Stall the tail on s0's lock, so concurrent ingests into three
			// more streams pile up behind it — on the ring, one drain of
			// three stream groups that a per-group commit would fsync
			// three times.
			e0 := srv.get("s0")
			held := make(chan struct{})
			go func() {
				defer close(held)
				e0.st.HoldLock(300 * time.Millisecond)
			}()
			for {
				if _, err := e0.st.SnapshotWithin(0); err != nil {
					break
				}
				time.Sleep(time.Millisecond)
			}
			// waitFor polls cond for as long as the hold could last; on the
			// ring it orders the sends so the worker drains s0 alone first.
			waitFor := func(cond func() bool) {
				for deadline := time.Now().Add(time.Second); ring > 0 && !cond() && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
			}
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if code := ingest(fmt.Sprintf("s%d", i), 100); code != http.StatusOK {
						t.Errorf("ingest s%d: %d", i, code)
					}
				}(i)
				if i == 0 {
					waitFor(func() bool { return srv.metrics.coalesce.Count() == 2 })
				}
			}
			waitFor(func() bool { return srv.pipes[0].ring.Len() == 3 })
			wg.Wait()
			<-held

			fsyncs := m.Fsyncs()
			units := srv.metrics.batches.Load()
			if ring > 0 {
				units = srv.metrics.coalesce.Count()
			}
			if fsyncs == 0 || fsyncs > units {
				t.Fatalf("fsyncs = %d, want 1..%d (one commit per unit)", fsyncs, units)
			}

			// A rejected batch (its timestamp precedes the stream's) appends
			// nothing, so its unit's commit has nothing to fsync.
			if code := ingest("s0", 50); code != http.StatusBadRequest {
				t.Fatalf("out-of-order ingest: %d, want 400", code)
			}
			if got := m.Fsyncs(); got != fsyncs {
				t.Fatalf("rejected batch fsynced: %d → %d", fsyncs, got)
			}
			// The wal_fsync stage counts exactly the commits that synced:
			// the rejected batch's no-op commit is not one.
			if got := srv.metrics.stages[stageWALFsync].Count(); got != fsyncs {
				t.Fatalf("wal_fsync stage count = %d, fsyncs = %d", got, fsyncs)
			}
		})
	}
}

// TestWALShardMismatchRefused: a data directory written under a different
// -shards must be refused, not silently rehashed.
func TestWALShardMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 4, Stream: stream.Config{Window: 32, MaxK: 8}}
	m := openTestWAL(t, dir, cfg, wal.PolicyBatch)
	bad := Config{Shards: 2, Stream: cfg.Stream, WAL: m}
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("New accepted a wal with mismatched shard count: %v", err)
	}
	m.Close()
}
