// Command pgrouter runs the fault-tolerant router tier in front of a fleet of
// pgserve replicas sharing one store directory.
//
// Every model routes to a primary replica by consistent hashing on its id, so
// each replica's ROM repository stays hot for its share of the fleet's
// models. An active prober watches each replica's
// /healthz and feeds a per-replica circuit breaker; requests that fail on a
// transport error, a 502/503/504, or a truncated body retry on the next
// replica in the ring with capped exponential backoff and jitter. Responses
// are buffered and relayed complete-or-not-at-all: a client never sees a
// partial body from a replica that died mid-stream.
//
// Idempotent reads (/eval, /sweep, /interp) can additionally hedge (-hedge):
// when the primary has not answered within the fleet's observed p95 read
// latency, a second copy of the request races on the next replica and the
// first complete answer wins. /reduce is single-flighted at the router: a
// thundering herd asking for the same cold model triggers exactly one
// upstream reduction fleet-wide, with every caller sharing the one answer.
//
// Streaming transient sessions are sticky: the router remembers which replica
// owns each session and, when that replica dies, resumes the session on
// another replica from its persisted snapshot — pinned to exactly the step
// the client last observed (run replicas with -session-snapshot-every 1) —
// and replays the lost advance so clients never see the failure. When no
// healthy replica can take a request, the router sheds it with 429 and a
// Retry-After header instead of queueing.
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

	"repro/internal/router"
)

func main() {
	addr := flag.String("addr", ":8000", "listen address")
	replicas := flag.String("replicas", "", "comma-separated pgserve base URLs, e.g. http://host1:8080,http://host2:8080 (required)")
	vnodes := flag.Int("vnodes", 0, fmt.Sprintf("virtual nodes per replica on the consistent-hash ring (0 = default %d)", router.DefaultVNodes))
	probeInterval := flag.Duration("probe-interval", 0, fmt.Sprintf("active /healthz probe cadence per replica (0 = default %v, negative = disable probing)", router.DefaultProbeInterval))
	probeTimeout := flag.Duration("probe-timeout", 0, fmt.Sprintf("per-probe timeout (0 = default %v)", router.DefaultProbeTimeout))
	retryBackoff := flag.Duration("retry-backoff", 0, fmt.Sprintf("base backoff before retrying on the next replica; grows exponentially with full jitter (0 = default %v)", router.DefaultRetryBackoff))
	retryBackoffMax := flag.Duration("retry-backoff-max", 0, fmt.Sprintf("backoff growth cap (0 = default %v)", router.DefaultRetryBackoffMax))
	hedge := flag.Bool("hedge", false, "race a second copy of slow idempotent reads (/eval, /sweep, /interp) on the next replica after the observed p95 read latency")
	hedgeMin := flag.Duration("hedge-min", 0, fmt.Sprintf("floor on the hedge delay so cold-start latency noise does not double traffic (0 = default %v)", router.DefaultHedgeMinDelay))
	hedgeMax := flag.Duration("hedge-max", 0, fmt.Sprintf("ceiling on the hedge delay (0 = default %v)", router.DefaultHedgeMaxDelay))
	failThreshold := flag.Int("breaker-failures", 0, fmt.Sprintf("consecutive failures that trip a replica's circuit breaker (0 = default %d)", router.DefaultFailThreshold))
	openFor := flag.Duration("breaker-open", 0, fmt.Sprintf("initial open interval before a trial request; doubles per re-trip (0 = default %v)", router.DefaultOpenFor))
	openForMax := flag.Duration("breaker-open-max", 0, fmt.Sprintf("open interval growth cap (0 = default %v)", router.DefaultOpenForMax))
	probation := flag.Int("breaker-probation", 0, fmt.Sprintf("consecutive half-open successes that close the breaker (0 = default %d)", router.DefaultProbation))
	shedRetryAfter := flag.Duration("shed-retry-after", 0, fmt.Sprintf("Retry-After hint on shed (429) responses (0 = default %v)", router.DefaultShedRetryAfter))
	maxBodyBytes := flag.Int64("max-body-bytes", 0, "request body size cap in bytes; oversized bodies get 413 (0 = default 1 MiB)")
	dialTimeout := flag.Duration("dial-timeout", 0, fmt.Sprintf("upstream connect timeout (0 = default %v)", router.DefaultDialTimeout))
	headerTimeout := flag.Duration("response-header-timeout", 0, fmt.Sprintf("time an upstream gets to start answering before the attempt fails over (0 = default %v)", router.DefaultHeaderTimeout))
	readHeaderTimeout := flag.Duration("read-header-timeout", 10*time.Second, "time a client gets to send its request headers before the connection is dropped (slowloris guard)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "keep-alive idle connection timeout")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logFormat)
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
		Replicas: reps,
		VNodes:   *vnodes,
		Breaker: router.BreakerConfig{
			FailThreshold: *failThreshold,
			OpenFor:       *openFor,
			OpenForMax:    *openForMax,
			Probation:     *probation,
		},
		ProbeInterval:         *probeInterval,
		ProbeTimeout:          *probeTimeout,
		RetryBackoff:          *retryBackoff,
		RetryBackoffMax:       *retryBackoffMax,
		Hedge:                 *hedge,
		HedgeMinDelay:         *hedgeMin,
		HedgeMaxDelay:         *hedgeMax,
		ShedRetryAfter:        *shedRetryAfter,
		MaxBodyBytes:          *maxBodyBytes,
		DialTimeout:           *dialTimeout,
		ResponseHeaderTimeout: *headerTimeout,
		Logger:                logger,
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
		ReadHeaderTimeout: *readHeaderTimeout,
		IdleTimeout:       *idleTimeout,
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

// buildLogger assembles the process logger from the -log-level and
// -log-format flags.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
}
