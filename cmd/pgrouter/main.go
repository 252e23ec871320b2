// Command pgrouter runs the fault-tolerant router tier in front of a fleet of
// pgserve replicas sharing one store directory.
//
// Every model routes to a primary replica by consistent hashing on its id
// (128 virtual nodes per replica), so each replica's ROM repository stays
// hot for its share of the fleet's models. An active prober watches each
// replica's /healthz (every -probe-interval) and feeds a per-replica
// circuit breaker that trips after 3 consecutive failures, stays open 2s
// (doubling per re-trip, up to 30s) and closes after 2 half-open successes.
// Only a request actually sent takes a half-open trial; scrapes, /healthz
// and canceled attempts change no breaker state. Requests that fail on a
// transport error, a 502/503/504, a 429, or a truncated body retry on the
// next replica in the ring with exponential backoff from 25ms, capped at
// 500ms, with jitter (a 429 does not count against the breaker). When every
// replica fails, the client gets the last replica's own answer. Each
// upstream attempt gets 1s to connect and 30s to start answering. Responses
// are buffered (up to 256 MiB) and relayed complete-or-not-at-all: a client
// never sees a partial body from a replica that died mid-stream.
//
// Idempotent reads (/eval, /sweep, /interp) can additionally hedge (-hedge):
// when the first attempt is still running after the fleet's observed p95
// read latency, clamped to [20ms, 2s], one second copy of the request races
// on the next replica, the first complete answer wins, and the canceled
// loser does not count against its replica. /reduce is
// single-flighted at the router: a thundering herd asking for the same cold
// model triggers exactly one upstream reduction fleet-wide, with every
// caller sharing the one answer.
//
// Streaming transient sessions are sticky: the router remembers which replica
// owns each session and, when that replica dies, resumes the session on
// another replica from its persisted snapshot — pinned to exactly the step
// the client last observed (run replicas with -session-snapshot-every 1) —
// and replays the lost advance so clients never see the failure. When no
// healthy replica can take a request, the router sheds it with 429 and a
// 2s Retry-After header instead of queueing.
//
// Request bodies are capped at 1 MiB (413 beyond). The listener drops
// clients that take over 10s to send their request headers and closes
// keep-alive connections idle for 2 minutes.
//
// GET /metrics serves the router's own pgrouter_* metrics; GET /healthz
// answers 200 while at least one replica is usable and 503 (with per-replica
// detail) when none is.
//
//	pgrouter -addr :8000 \
//	  -replicas http://10.0.0.1:8080,http://10.0.0.2:8080,http://10.0.0.3:8080 \
//	  -hedge -log-format json
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/router"
)

func main() {
	addr := flag.String("addr", ":8000", "listen address")
	replicas := flag.String("replicas", "", "comma-separated pgserve base URLs, e.g. http://host1:8080,http://host2:8080 (required)")
	probeInterval := flag.Duration("probe-interval", 0, fmt.Sprintf("active /healthz probe cadence per replica (0 = default %v, negative = disable probing)", router.DefaultProbeInterval))
	hedge := flag.Bool("hedge", false, "race a second copy of slow idempotent reads (/eval, /sweep, /interp) on the next replica after the observed p95 read latency")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	flag.Parse()

	logger, err := obs.NewLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgrouter: %v\n", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	var reps []string
	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			reps = append(reps, r)
		}
	}
	if len(reps) == 0 {
		fatal("-replicas is required: a comma-separated list of pgserve base URLs")
	}

	rt, err := router.New(router.Config{
		Replicas:      reps,
		ProbeInterval: *probeInterval,
		Hedge:         *hedge,
		Logger:        logger,
	})
	if err != nil {
		fatal("building router", "err", err)
	}
	defer rt.Close()

	// WriteTimeout stays unset for the same reason as pgserve: relayed
	// /session advance streams and NDJSON sweeps are legitimately long-lived.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Info("pgrouter listening", "addr", *addr, "replicas", len(reps),
		"hedge", *hedge)

	select {
	case err := <-errc:
		fatal("listen", "err", err)
	case <-ctx.Done():
	}
	logger.Info("pgrouter shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		logger.Warn("shutdown", "err", err)
	}
}
