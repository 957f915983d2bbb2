package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wcm/internal/qos"
	"wcm/internal/server"
	"wcm/internal/stream"
	"wcm/internal/wal"
)

func TestParseFlags(t *testing.T) {
	cfg, opts, err := parseFlags([]string{
		"-addr", "127.0.0.1:9999", "-shards", "4", "-window", "64",
		"-maxk", "8", "-max-body", "4096", "-pprof",
	})
	if err != nil {
		t.Fatal(err)
	}
	if opts.addr != "127.0.0.1:9999" || cfg.Shards != 4 || cfg.MaxBodyBytes != 4096 {
		t.Fatalf("cfg = %+v, opts = %+v", cfg, opts)
	}
	if cfg.Stream.Window != 64 || cfg.Stream.MaxK != 8 || cfg.Stream.ReextractEvery != 0 {
		t.Fatalf("stream cfg = %+v", cfg.Stream)
	}
	if !cfg.EnablePprof {
		t.Fatal("-pprof did not set EnablePprof")
	}
	cfg, opts, err = parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.EnablePprof {
		t.Fatal("pprof enabled by default")
	}
	if cfg.Logger == nil {
		t.Fatal("no default logger")
	}
	if cfg.SelfCurves {
		t.Fatal("self curves on by default")
	}
	if cfg.SlowRequest != server.DefaultSlowRequest {
		t.Fatalf("slow request default = %v", cfg.SlowRequest)
	}
	if opts.readTimeout != defaultReadTimeout || opts.writeTimeout != defaultWriteTimeout ||
		opts.idleTimeout != defaultIdleTimeout {
		t.Fatalf("transport timeout defaults = %+v", opts)
	}
	if cfg.RequestTimeout != defaultRequestTimeout {
		t.Fatalf("request timeout default = %v", cfg.RequestTimeout)
	}
	if cfg.MaxInflightIngest != server.DefaultMaxInflightIngest ||
		cfg.MaxInflightRead != server.DefaultMaxInflightRead {
		t.Fatalf("in-flight defaults = %d/%d", cfg.MaxInflightIngest, cfg.MaxInflightRead)
	}
	if cfg.DisableQueryCache {
		t.Fatal("query cache off by default")
	}
	if cfg.Faults != nil {
		t.Fatalf("faults configured by default: %v", cfg.Faults)
	}
	if _, _, err := parseFlags([]string{"-window", "notanumber"}); err == nil {
		t.Fatal("bad flag value accepted")
	}
	for _, gone := range [][]string{
		{"-coalesce", "7"}, {"-no-query-cache"},
		{"-ingest-ring", "0"}, {"-wal-segment", "65536"}, {"-trace-store", "65536"},
		{"-reextract", "-1"},
		{"-read-timeout", "5s"}, {"-write-timeout", "6s"}, {"-idle-timeout", "7s"},
		{"-snapshot-interval", "30s"},
	} {
		if _, _, err := parseFlags(gone); err == nil {
			t.Fatalf("removed flag %s accepted", gone[0])
		}
	}
}

func TestParseFlagsResilience(t *testing.T) {
	cfg, _, err := parseFlags([]string{
		"-request-timeout", "250ms", "-max-inflight-ingest", "2", "-max-inflight-read", "-1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.RequestTimeout != 250*time.Millisecond {
		t.Fatalf("RequestTimeout = %v", cfg.RequestTimeout)
	}
	if cfg.MaxInflightIngest != 2 || cfg.MaxInflightRead != -1 {
		t.Fatalf("in-flight caps = %d/%d", cfg.MaxInflightIngest, cfg.MaxInflightRead)
	}
}

func TestParseFlagsObservability(t *testing.T) {
	cfg, _, err := parseFlags([]string{
		"-log-format", "json", "-log-level", "debug",
		"-slow-request", "50ms", "-self-curves",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Logger == nil || !cfg.SelfCurves || cfg.SlowRequest != 50*time.Millisecond {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.TraceSample != server.DefaultTraceSample || cfg.TraceStoreBytes != 0 {
		t.Fatalf("trace defaults = %d/%d", cfg.TraceSample, cfg.TraceStoreBytes)
	}
	if !cfg.Logger.Enabled(context.Background(), slog.LevelDebug) {
		t.Fatal("-log-level debug not applied")
	}
	if cfg, _, err = parseFlags([]string{"-trace-sample", "1"}); err != nil || cfg.TraceSample != 1 {
		t.Fatalf("-trace-sample 1: %v, %d", err, cfg.TraceSample)
	}
	if cfg, _, err = parseFlags([]string{"-trace-sample", "0"}); err != nil || cfg.TraceSample != 0 {
		t.Fatalf("-trace-sample 0: %v, %d", err, cfg.TraceSample)
	}
	if _, _, err := parseFlags([]string{"-log-format", "yaml"}); err == nil {
		t.Fatal("bad log format accepted")
	}
	if _, _, err := parseFlags([]string{"-log-level", "loud"}); err == nil {
		t.Fatal("bad log level accepted")
	}
}

// startRun boots run() on an ephemeral port and returns the base URL, the
// bound address and a cancel-and-wait shutdown func.
func startRun(t *testing.T, cfg server.Config, opts serveOpts) (string, net.Addr, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	opts.addr = "127.0.0.1:0"
	go func() { done <- run(ctx, cfg, opts, ready) }()
	select {
	case a := <-ready:
		return "http://" + a.String(), a, func() error {
			cancel()
			select {
			case err := <-done:
				return err
			case <-time.After(5 * time.Second):
				return fmt.Errorf("shutdown hung")
			}
		}
	case err := <-done:
		cancel()
		t.Fatalf("server exited early: %v", err)
	case <-time.After(5 * time.Second):
		cancel()
		t.Fatal("server never became ready")
	}
	panic("unreachable")
}

// TestRunServesAndShutsDown boots the real server on an ephemeral port,
// exercises a healthz → ingest → minfreq round trip over TCP, and verifies
// the graceful-shutdown path.
func TestRunServesAndShutsDown(t *testing.T) {
	cfg := server.Config{Stream: stream.Config{Window: 64, MaxK: 16}}
	base, _, shutdown := startRun(t, cfg, serveOpts{})

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	body := `{"t":[0,100,200,300],"demand":[5,7,6,9]}`
	resp, err = http.Post(base+"/v1/streams/cam/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/v1/streams/cam/minfreq?b=1")
	if err != nil {
		t.Fatal(err)
	}
	var mf struct {
		GammaHz float64 `json:"gamma_hz"`
		WCETHz  float64 `json:"wcet_hz"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&mf); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || mf.GammaHz <= 0 || mf.GammaHz > mf.WCETHz {
		t.Fatalf("minfreq: status %d, %+v", resp.StatusCode, mf)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("run returned %v", err)
	}
}

// TestSlowClientDisconnected is the regression test for the slow-loris
// hole: before ReadTimeout was set on the http.Server, a client that sent
// its headers promptly and then dribbled the body could hold a connection
// (and its handler goroutine) forever — ReadHeaderTimeout alone never
// fires once the headers are in. With a read timeout the server must cut
// the connection.
func TestSlowClientDisconnected(t *testing.T) {
	cfg := server.Config{Stream: stream.Config{Window: 64, MaxK: 16}}
	base, addr, shutdown := startRun(t, cfg, serveOpts{readTimeout: 300 * time.Millisecond})

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Headers complete, body promised but never delivered.
	_, err = fmt.Fprintf(conn, "POST /v1/streams/sl/ingest HTTP/1.1\r\n"+
		"Host: wcmd\r\nContent-Type: application/json\r\nContent-Length: 1000\r\n\r\n{")
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	buf := make([]byte, 4096)
	for {
		if _, err := conn.Read(buf); err != nil {
			break // server cut the connection (or sent 408 and closed)
		}
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("slow-loris connection survived %v, want cut around the 300ms read timeout", waited)
	}

	// The stalled connection consumed nothing durable: normal service.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after slow client: %d", resp.StatusCode)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("run returned %v", err)
	}
}

// TestShutdownDrainsPipeline is the SIGTERM-with-in-flight-batches
// regression test: a shutdown that lands in the middle of heavy ingest
// traffic must not hang. Clients keep posting throughout shutdown; every
// response must be a 200 or a clean transport/refusal error, and run()
// must return promptly.
func TestShutdownDrainsPipeline(t *testing.T) {
	cfg := server.Config{Stream: stream.Config{Window: 64, MaxK: 8}}
	base, _, shutdown := startRun(t, cfg, serveOpts{})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("sig%d", g)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				base3 := int64(i * 3)
				body := fmt.Sprintf(`{"t":[%d,%d],"demand":[1,2]}`, base3+1, base3+2)
				resp, err := http.Post(base+"/v1/streams/"+id+"/ingest", "application/json", strings.NewReader(body))
				if err != nil {
					return // connection refused/reset: HTTP layer is down
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("stream %s batch %d: status %d during shutdown", id, i, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond) // let traffic build before the signal
	err := shutdown()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("run returned %v", err)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	err := run(context.Background(), server.Config{Shards: -1}, serveOpts{addr: "127.0.0.1:0"}, nil)
	if err == nil {
		t.Fatal("bad config accepted")
	}
	if !strings.Contains(fmt.Sprint(err), "shards") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestParseFlagsDurability(t *testing.T) {
	cfg, opts, err := parseFlags([]string{
		"-data-dir", "/tmp/wcmd-data", "-fsync", "none",
	})
	if err != nil {
		t.Fatal(err)
	}
	if opts.dataDir != "/tmp/wcmd-data" || opts.fsync != wal.PolicyNone {
		t.Fatalf("durability opts = %+v", opts)
	}
	if _, _, err := parseFlags([]string{"-fsync", "sometimes"}); err == nil {
		t.Fatal("bad -fsync accepted")
	}
	// "always" was folded into the default "batch".
	if _, _, err := parseFlags([]string{"-fsync", "always"}); err == nil ||
		!strings.Contains(err.Error(), `want "batch" or "none"`) {
		t.Fatalf(`-fsync always: err = %v, want one listing the valid values`, err)
	}
	cfg, opts, err = parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if opts.dataDir != "" || opts.fsync != wal.PolicyBatch {
		t.Fatalf("durability defaults = %+v", opts)
	}
	if cfg.SnapshotInterval != time.Minute {
		t.Fatalf("snapshot interval default = %v", cfg.SnapshotInterval)
	}
}

func TestParseFlagsTenants(t *testing.T) {
	cfg, _, err := parseFlags([]string{
		"-tenant", "acme:interactive:100:20:500",
		"-tenant", "bg:besteffort",
		"-default-slo", "batch",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Tenants) != 2 || cfg.DefaultSLO != "batch" {
		t.Fatalf("tenant cfg = %+v", cfg)
	}
	if cfg.Tenants[0] != (qos.TenantConfig{Name: "acme", SLO: "interactive", RatePerSec: 100, Burst: 20, MaxStreams: 500}) {
		t.Fatalf("tenant[0] = %+v", cfg.Tenants[0])
	}
	if _, _, err := parseFlags([]string{"-tenant", "bad name:batch"}); err == nil {
		t.Fatal("bad -tenant accepted")
	}

	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(`{"tenants":[{"name":"filed","slo":"batch","rate":5,"max_streams":3}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	cfg, _, err = parseFlags([]string{"-tenant-config", path, "-tenant", "extra:besteffort"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Tenants) != 2 || cfg.Tenants[0].Name != "filed" || cfg.Tenants[1].Name != "extra" {
		t.Fatalf("merged tenants = %+v", cfg.Tenants)
	}
	if _, _, err := parseFlags([]string{"-tenant-config", filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Fatal("missing -tenant-config accepted")
	}
	if cfg, _, err = parseFlags(nil); err != nil || len(cfg.Tenants) != 0 || cfg.DefaultSLO != "" {
		t.Fatalf("tenant defaults: %+v, %v", cfg.Tenants, err)
	}
}

// TestDurableRestart is the process-level durability round trip: run with
// -data-dir, ingest, shut down on the signal path, then boot a second run
// over the same directory and require the stream back — with the clean
// marker honored (clean_start true, nothing replayed from the log).
func TestDurableRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{Shards: 4, Stream: stream.Config{Window: 64, MaxK: 16}}
	opts := serveOpts{dataDir: dir, fsync: wal.PolicyBatch}
	base, _, shutdown := startRun(t, cfg, opts)

	body := `{"t":[0,100,200,300],"demand":[5,7,6,9]}`
	resp, err := http.Post(base+"/v1/streams/cam/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d", resp.StatusCode)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("first run returned %v", err)
	}

	base, _, shutdown = startRun(t, cfg, opts)
	defer shutdown() //nolint:errcheck
	resp, err = http.Get(base + "/v1/streams/cam/curves")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"total":4`) {
		t.Fatalf("restart lost the stream: %d %s", resp.StatusCode, raw)
	}
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	hz := string(raw)
	if !strings.Contains(hz, `"clean_start":true`) || !strings.Contains(hz, `"replayed_batches":0`) {
		t.Fatalf("healthz after clean restart: %s", hz)
	}
}
