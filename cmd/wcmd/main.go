// Command wcmd serves the streaming workload-characterization API: ingest
// demand samples per stream, query sliding-window γᵘ/γˡ and span tables, run
// the eq. (8) service check and eq. (9)/(10) minimum-frequency analyses, and
// monitor admission contracts online. See internal/server for the routes.
//
// Usage:
//
//	wcmd -addr :8080 -window 1024 -maxk 256 -log-format json -self-curves
//
// Structured logs go to stderr (-log-format json|text, -log-level); every
// request carries a trace ID (X-Request-Id in and out) and requests slower
// than -slow-request are logged at Warn. With -self-curves the server feeds
// its own per-request cost into a built-in curve stream and serves its own
// workload characterization at /debug/self.
//
// Every request is traced end to end: a span tree (decode → update → apply
// → WAL append/fsync → render) recorded under the request's X-Request-Id
// and W3C traceparent (accepted from the caller when well formed, echoed on
// every response). Retention is tail-based — slow, errored, shed, degraded
// and panicking requests are always kept, ordinary ones 1-in-N per
// -trace-sample — into a 4 MiB store served at /debug/traces and
// /debug/traces/{id}.
//
// The serving path is hardened against hostile traffic: connection-level
// timeouts (30 s to read a request, 30 s to write a response, 2 min idle)
// cut slow-loris clients, -request-timeout bounds each handler (contended reads past it
// serve the last cached snapshot marked "degraded":true), and per-class
// in-flight caps (-max-inflight-ingest, -max-inflight-read) shed overload
// with 429 + Retry-After instead of collapsing. Handler panics answer 500
// and are counted in wcmd_panics_total. Builds with the faultinject tag
// additionally expose -inject-fault for resilience smoke tests.
//
// Multi-tenant QoS: requests name their tenant via the X-Wcm-Tenant header
// or ?tenant= query parameter (unknown and untagged requests share the
// "default" tenant). Each -tenant flag (repeatable) or -tenant-config JSON
// file declares one tenant's policy — SLO class (interactive|batch|
// besteffort, shed in reverse order under load), token-bucket request rate
// and burst, and a stream-count quota. Throttled reads are still served
// from the cached degraded path when possible; per-tenant counters are at
// /v1/tenants and wcmd_tenant_* in /metrics.
//
// With -data-dir set, wcmd is durable: every ingest request applies its
// batch, appends it to a per-shard write-ahead log and commits it (fsynced
// per -fsync) in its own handler before its 200 goes out; streams are
// snapshotted every minute, and a restart over the same
// directory replays snapshots + WAL tail before the listener binds —
// kill -9 loses only unacknowledged batches. SIGTERM
// additionally checkpoints and writes a clean-shutdown marker so the next
// boot replays (nearly) nothing.
//
// The process drains in-flight requests and exits cleanly on SIGINT/SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wcm/internal/obs"
	"wcm/internal/qos"
	"wcm/internal/server"
	"wcm/internal/stream"
	"wcm/internal/wal"
)

// tenantFlagList collects repeated -tenant flags, each parsed eagerly so a
// typo fails at flag-parse time with the offending value named.
type tenantFlagList []qos.TenantConfig

func (l *tenantFlagList) String() string { return fmt.Sprintf("%d tenants", len(*l)) }

func (l *tenantFlagList) Set(v string) error {
	tc, err := qos.ParseTenantFlag(v)
	if err != nil {
		return err
	}
	*l = append(*l, tc)
	return nil
}

// Transport-level settings. ReadTimeout covers the whole request read
// including the body — the slow-loris bound — while the shorter header
// timeout cuts clients that never even finish their request line. The
// read, write and idle timeouts and the checkpoint cadence are fixed: no
// deployment set them to anything else, and tests set serveOpts and
// server.Config directly.
const (
	defaultReadHeaderTimeout = 10 * time.Second
	defaultReadTimeout       = 30 * time.Second
	defaultWriteTimeout      = 30 * time.Second
	defaultIdleTimeout       = 2 * time.Minute
	defaultRequestTimeout    = 10 * time.Second
	defaultSnapshotInterval  = time.Minute
)

// serveOpts carries the transport-level settings that belong to the
// http.Server rather than the handler (which server.Config parameterizes).
type serveOpts struct {
	addr         string
	readTimeout  time.Duration
	writeTimeout time.Duration
	idleTimeout  time.Duration

	// Durability settings; run opens the WAL itself (before the server,
	// before the listener) so parseFlags stays side-effect free.
	dataDir string
	fsync   wal.Policy
}

func main() {
	cfg, opts, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, opts, nil); err != nil {
		log.Fatal(err)
	}
}

func parseFlags(args []string) (server.Config, serveOpts, error) {
	fs := flag.NewFlagSet("wcmd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	shards := fs.Int("shards", server.DefaultShards, "stream registry shards")
	window := fs.Int("window", stream.DefaultWindow, "sliding window length in samples")
	maxK := fs.Int("maxk", stream.DefaultMaxK, "largest curve argument k maintained")
	maxBody := fs.Int64("max-body", server.DefaultMaxBodyBytes, "request body size limit in bytes")
	pprof := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default)")
	logFormat := fs.String("log-format", "text", `structured log format: "json" or "text"`)
	logLevel := fs.String("log-level", "info", "log level: debug|info|warn|error")
	slowReq := fs.Duration("slow-request", server.DefaultSlowRequest,
		"log requests slower than this at Warn (negative disables)")
	selfCurves := fs.Bool("self-curves", false,
		"characterize the server's own request costs and serve them at /debug/self")
	requestTimeout := fs.Duration("request-timeout", defaultRequestTimeout,
		"per-request handler deadline; contended reads past it serve a degraded cached answer (0 disables)")
	maxInflightIngest := fs.Int("max-inflight-ingest", server.DefaultMaxInflightIngest,
		"max concurrently executing mutating requests before shedding with 429 (negative disables)")
	maxInflightRead := fs.Int("max-inflight-read", server.DefaultMaxInflightRead,
		"max concurrently executing read requests before degrading/shedding (negative disables)")
	traceSample := fs.Int("trace-sample", server.DefaultTraceSample,
		"keep 1 in N ordinary request traces (anomalous ones are always kept) in the /debug/traces store; 0 disables tracing")
	dataDir := fs.String("data-dir", "",
		"directory for the write-ahead log and snapshots; empty = in-memory only (no durability)")
	fsyncMode := fs.String("fsync", "batch",
		`WAL durability policy: "batch" (fsync before each ingest's ack; concurrent ingests into one shard may share it) or "none" (never fsync on ingest)`)
	var tenantFlags tenantFlagList
	fs.Var(&tenantFlags, "tenant",
		`tenant QoS policy "name:slo[:rate[:burst[:maxstreams]]]" (repeatable); slo is interactive|batch|besteffort`)
	tenantConfig := fs.String("tenant-config", "",
		`JSON file declaring tenant QoS policies ({"tenants":[{"name":...,"slo":...,"rate":...,"burst":...,"max_streams":...}]})`)
	defaultSLO := fs.String("default-slo", "",
		"SLO class for untagged requests and tenants that declare none (default interactive)")
	getFaults := addFaultFlag(fs)
	if err := fs.Parse(args); err != nil {
		return server.Config{}, serveOpts{}, err
	}
	tenants := []qos.TenantConfig(tenantFlags)
	if *tenantConfig != "" {
		raw, err := os.ReadFile(*tenantConfig)
		if err != nil {
			return server.Config{}, serveOpts{}, fmt.Errorf("-tenant-config: %w", err)
		}
		fromFile, err := qos.ParseTenantsJSON(raw)
		if err != nil {
			return server.Config{}, serveOpts{}, fmt.Errorf("-tenant-config %s: %w", *tenantConfig, err)
		}
		// File entries first; -tenant flags append (duplicates are rejected
		// by the server's registry construction, not silently merged).
		tenants = append(fromFile, tenants...)
	}
	fsync, err := wal.ParsePolicy(*fsyncMode)
	if err != nil {
		return server.Config{}, serveOpts{}, err
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return server.Config{}, serveOpts{}, err
	}
	logger, err := obs.NewLogger(*logFormat, level, os.Stderr)
	if err != nil {
		return server.Config{}, serveOpts{}, err
	}
	faults, err := getFaults()
	if err != nil {
		return server.Config{}, serveOpts{}, err
	}
	cfg := server.Config{
		Shards:            *shards,
		MaxBodyBytes:      *maxBody,
		EnablePprof:       *pprof,
		Stream:            stream.Config{Window: *window, MaxK: *maxK},
		Logger:            logger,
		SlowRequest:       *slowReq,
		SelfCurves:        *selfCurves,
		RequestTimeout:    *requestTimeout,
		MaxInflightIngest: *maxInflightIngest,
		MaxInflightRead:   *maxInflightRead,
		TraceSample:       *traceSample,
		SnapshotInterval:  defaultSnapshotInterval,
		Faults:            faults,
		Tenants:           tenants,
		DefaultSLO:        *defaultSLO,
	}
	opts := serveOpts{
		addr:         *addr,
		readTimeout:  defaultReadTimeout,
		writeTimeout: defaultWriteTimeout,
		idleTimeout:  defaultIdleTimeout,
		dataDir:      *dataDir,
		fsync:        fsync,
	}
	return cfg, opts, nil
}

// run binds opts.addr, serves until ctx is cancelled, then shuts down
// gracefully. If ready is non-nil it receives the bound address once the
// listener is up (so tests can use ":0").
func run(ctx context.Context, cfg server.Config, opts serveOpts, ready chan<- net.Addr) error {
	logger := cfg.Logger
	if logger == nil {
		logger = obs.Discard()
	}
	if opts.dataDir != "" {
		shards := cfg.Shards
		if shards == 0 {
			shards = server.DefaultShards // mirror server.New's defaulting
		}
		m, err := wal.Open(wal.Options{
			Dir:    opts.dataDir,
			Shards: shards,
			Policy: opts.fsync,
			Stream: cfg.Stream,
		})
		if err != nil {
			return err
		}
		cfg.WAL = m
		logger.Info("wcmd durability on",
			slog.String("data_dir", opts.dataDir),
			slog.String("fsync", opts.fsync.String()),
			slog.Bool("clean_start", m.CleanStart()))
	}
	// server.New runs WAL recovery; the listener binds only after it
	// returns, so no request can observe a half-replayed registry.
	srv, err := server.New(cfg)
	if err != nil {
		if cfg.WAL != nil {
			cfg.WAL.Close() //nolint:errcheck // already failing; keep the first error
		}
		return err
	}
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		srv.Close()
		return err
	}
	logger.Info("wcmd listening",
		slog.String("addr", ln.Addr().String()),
		slog.Int("shards", cfg.Shards),
		slog.Int("window", cfg.Stream.Window),
		slog.Int("maxk", cfg.Stream.MaxK),
		slog.Bool("self_curves", cfg.SelfCurves),
		obs.DurationSeconds(opts.readTimeout))
	if ready != nil {
		ready <- ln.Addr()
	}

	// Full transport timeouts, not just the header bound: without
	// ReadTimeout a client that dribbles its body one byte a minute holds
	// a connection and its goroutine forever.
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: defaultReadHeaderTimeout,
		ReadTimeout:       opts.readTimeout,
		WriteTimeout:      opts.writeTimeout,
		IdleTimeout:       opts.idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	// After the HTTP layer has drained, close durability: a final
	// checkpoint and the WAL's clean-shutdown marker, so the next boot
	// replays (nearly) nothing. Every 200 already sent was committed.
	srv.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("wcmd stopped")
	return nil
}
