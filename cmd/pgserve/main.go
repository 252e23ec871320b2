// Command pgserve runs the ROM-serving HTTP daemon: a long-lived process
// that reduces power-grid benchmarks once and serves transfer-function
// evaluations, AC sweeps, and transient runs against the cached
// block-diagonal ROMs to any number of concurrent clients.
//
// With -store-dir, every reduction is persisted to a content-addressed ROM
// store and read back on the next start: a warm restart registers its models
// from disk in milliseconds instead of re-reducing them.
//
// The stored models double as a parametric ROM library: POST /interp — or
// benchmark+scale on /eval and /sweep — serves an unstored Scale by
// interpolating the modal forms of the two stored anchors bracketing it,
// falling back to a real reduction when the self-checked error exceeds 0.05.
//
// POST /session opens a long-lived streaming transient session: integrator
// state is held server-side (a few complex numbers per mode), advances
// stream NDJSON rows as they are computed, and the drive waveform can change
// mid-session without restarting from t=0. At most 64 sessions live at once;
// each is evicted 15 minutes after creation or 2 minutes after its last use.
// The HTTP server drops clients that take over 10s to send their request
// headers and closes keep-alive connections idle for 2 minutes (WriteTimeout
// stays unset so streams live as long as their clients; dead clients cancel
// via request context within one chunk), and request bodies are capped at
// 1 MiB. The repository holds at most 64 models.
//
// Observability: GET /metrics serves Prometheus text-format counters and
// latency histograms for every subsystem; GET /healthz answers 503 while the
// store preload runs and once a SIGTERM drain begins, so a health-aware
// router pulls the replica; every request carries an X-Request-Id
// (propagated from the client or generated) echoed on the response, in error
// bodies, and on each structured log line (-log-format, -log-level; requests
// slower than 1s log at Warn); and -debug-addr starts a separate ops
// listener exposing net/http/pprof.
//
//	pgserve -addr :8080 -store-dir /var/lib/pgserve -preload ckt1@0.25,ckt2@0.1 \
//	  -log-format json -debug-addr localhost:6060
//
//	curl -X POST localhost:8080/reduce -d '{"benchmark":"ckt1","scale":0.25}'
//	curl -X POST localhost:8080/sweep \
//	  -d '{"model":"ckt1-0.25-l6-s01e09","row":0,"col":0,"wmin":1e5,"wmax":1e15,"points":200}'
//	curl localhost:8080/metrics
//	go tool pprof http://localhost:6060/debug/pprof/profile
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "evaluation worker pool size (0 = NumCPU)")
	storeDir := flag.String("store-dir", "", "persistent ROM store directory (empty = in-memory only; reductions are written through and warm restarts skip reducing)")
	preload := flag.String("preload", "", "comma-separated models to reduce at startup, each name@scale (e.g. ckt1@0.25)")
	snapshotEvery := flag.Int("session-snapshot-every", 0, "persist each session's integrator state to the store every N completed advances so another replica can resume it (0 = disabled; 1 = snapshot after every advance, exact failover; requires -store-dir)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	debugAddr := flag.String("debug-addr", "", "ops listener address exposing /debug/pprof (empty = disabled; bind to localhost)")
	flag.Parse()

	logger, err := obs.NewLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgserve: %v\n", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	cfg := serve.Config{Workers: *workers, Logger: logger, SnapshotEvery: *snapshotEvery}
	if *snapshotEvery > 0 && *storeDir == "" {
		fatal("-session-snapshot-every requires -store-dir")
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fatal("opening store", "dir", *storeDir, "err", err)
		}
		cfg.Store = st
	}
	srv := serve.New(cfg)
	defer srv.Close()

	if *debugAddr != "" {
		go serveDebug(logger, *debugAddr)
	}

	// WriteTimeout is deliberately unset: /sweep and /transient NDJSON
	// responses and /session/{id}/advance streams are legitimately long-lived
	// (a session may stream for minutes), and a server-wide write deadline
	// would sever them mid-stream. Dead clients are handled per request
	// instead — every handler threads r.Context(), so a disconnect cancels
	// the evaluation within one chunk. ReadHeaderTimeout bounds slowloris
	// header dribbling and IdleTimeout reclaims idle keep-alive connections.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Listen immediately but answer /healthz with 503 until the preloads
	// finish: a router probing the replica sees "starting", not connection
	// refused, and knows not to route real traffic yet.
	srv.SetNotReady("store preload in progress")
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Info("pgserve listening", "addr", *addr, "workers", *workers,
		"store", *storeDir)

	go func() {
		if cfg.Store != nil {
			t0 := time.Now()
			n, err := srv.PreloadStore()
			if err != nil {
				fatal("preloading store", "dir", *storeDir, "err", err)
			}
			st := cfg.Store.Stats()
			logger.Info("store preloaded", "dir", *storeDir, "models", n,
				"duration", time.Since(t0).Round(time.Millisecond).String(),
				"entries", st.Entries, "quarantined", st.Quarantined)
		}
		for _, spec := range strings.Split(*preload, ",") {
			spec = strings.TrimSpace(spec)
			if spec == "" {
				continue
			}
			key, err := parsePreload(spec)
			if err != nil {
				fatal("bad -preload spec", "spec", spec, "err", err)
			}
			t0 := time.Now()
			m, outcome, err := srv.Repo().Get(key)
			if err != nil {
				fatal("preloading model", "spec", spec, "err", err)
			}
			logger.Info("model preloaded", "model", m.ID, "source", outcome.String(),
				"nodes", m.Nodes, "order", m.Order, "blocks", m.Blocks,
				"duration", time.Since(t0).Round(time.Millisecond).String())
		}
		srv.SetReady()
		logger.Info("pgserve ready")
	}()

	select {
	case err := <-errc:
		fatal("listen", "err", err)
	case <-ctx.Done():
	}
	// Drain: flip /healthz to 503 first so the router stops sending work,
	// then shut the listener down gracefully, then persist every live
	// session's integrator state so a surviving replica can resume them.
	srv.SetNotReadyFor("draining: shutdown in progress", serve.RetryAfterDrain)
	logger.Info("pgserve shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		logger.Warn("shutdown", "err", err)
	}
	if cfg.Store != nil {
		if n := srv.SnapshotSessions(); n > 0 {
			logger.Info("drained session snapshots", "sessions", n)
		}
	}
}

// serveDebug runs the ops listener: pprof only, on its own mux and port, so
// profiling endpoints are never exposed on the serving address.
func serveDebug(logger *slog.Logger, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ds := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	logger.Info("debug listener (pprof)", "addr", addr)
	if err := ds.ListenAndServe(); err != nil {
		logger.Error("debug listener", "err", err)
	}
}

// parsePreload parses "name@scale" (scale optional, default 0.25).
func parsePreload(spec string) (serve.ModelKey, error) {
	key := serve.ModelKey{Scale: 0.25}
	name, scaleStr, found := strings.Cut(spec, "@")
	key.Benchmark = name
	if found {
		s, err := strconv.ParseFloat(scaleStr, 64)
		if err != nil {
			return key, fmt.Errorf("bad scale %q: %w", scaleStr, err)
		}
		key.Scale = s
	}
	return key, nil
}
