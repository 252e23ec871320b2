package serve

import (
	"runtime"
	"strconv"
	"time"

	"repro/internal/obs"
)

// This file wires the serving stack into the obs metrics registry. Two
// mechanisms, chosen by cost:
//
//   - Everything the subsystems already count with atomics (RepoStats,
//     CacheStats, SessionStats, evaluator counters) is exported through
//     func-backed metrics read at scrape time — zero hot-path changes, zero
//     double counting.
//   - Latency distributions (HTTP requests, engine task wait/run, model
//     builds, reduction phases, session advances) are live lock-free
//     histograms, attached via the components' Instrument hooks. Components
//     without instruments attached record nothing and skip the time.Now
//     calls entirely, so library users and benchmarks that construct an
//     Engine or Repository directly are unaffected.
//
// The modal per-mode inner loops are deliberately not instrumented: the hard
// constraint is that the warm modal sweep path stays 0 allocs/op with
// metrics enabled, so recording happens at task and request granularity
// only.

// serverMetrics holds the live-recorded instruments of one Server.
type serverMetrics struct {
	reqTotal   *obs.CounterVec // route, status
	reqDur     *obs.HistogramVec
	inFlight   *obs.Gauge
	reqBytes   *obs.Counter
	respBytes  *obs.Counter
	advanceDur *obs.Histogram
}

// request records one finished HTTP request.
func (m *serverMetrics) request(route string, status int, d time.Duration, reqBytes, respBytes int64) {
	m.reqTotal.With(route, strconv.Itoa(status)).Inc()
	m.reqDur.With(route).Observe(d.Seconds())
	if reqBytes > 0 {
		m.reqBytes.Add(reqBytes)
	}
	if respBytes > 0 {
		m.respBytes.Add(respBytes)
	}
}

func (m *serverMetrics) requestStart() {
	m.inFlight.Inc()
}

func (m *serverMetrics) requestEnd() {
	m.inFlight.Dec()
}

// advance records one completed (or aborted) session advance.
func (m *serverMetrics) advance(t0 time.Time) {
	m.advanceDur.ObserveSince(t0)
}

// Histogram bucket layouts, in seconds.
var (
	// httpBuckets spans 100µs (cached modal sweeps) to ~25s (cold reduces).
	httpBuckets = obs.ExpBuckets(1e-4, 4, 10)
	// taskBuckets spans 1µs (instant queue handoff) to ~16s.
	taskBuckets = obs.ExpBuckets(1e-6, 4, 12)
	// buildBuckets spans 1ms to ~250s — grid builds and BDSM reductions.
	buildBuckets = obs.ExpBuckets(1e-3, 4, 10)
	// sizeBuckets cover batch populations: 1, 2, 4, … 256.
	sizeBuckets = obs.ExpBuckets(1, 2, 9)
)

// newServerMetrics registers every pgserve metric on reg and attaches the
// live histograms to the server's components. Called once from New, before
// the server handles any request.
func newServerMetrics(reg *obs.Registry, s *Server) *serverMetrics {
	m := &serverMetrics{
		reqTotal: reg.CounterVec("pgserve_http_requests_total",
			"HTTP requests served, by route pattern and status code.", "route", "status"),
		reqDur: reg.HistogramVec("pgserve_http_request_seconds",
			"HTTP request duration from first byte to handler return.", httpBuckets, "route"),
		inFlight: reg.Gauge("pgserve_http_in_flight",
			"HTTP requests currently being handled."),
		reqBytes: reg.Counter("pgserve_http_request_bytes_total",
			"Request body bytes received (Content-Length sum)."),
		respBytes: reg.Counter("pgserve_http_response_bytes_total",
			"Response body bytes written."),
		advanceDur: reg.Histogram("pgserve_session_advance_seconds",
			"Session advance duration, including streaming.", httpBuckets),
	}

	// Engine: queue visibility plus task wait/run distributions.
	eng := s.eng
	reg.GaugeFunc("pgserve_engine_workers", "Evaluation worker pool size.",
		func() float64 { return float64(eng.Workers()) })
	reg.GaugeFunc("pgserve_engine_queue_depth", "Tasks submitted but not yet started.",
		func() float64 { return float64(eng.QueueDepth()) })
	reg.CounterFunc("pgserve_engine_tasks_completed_total", "Tasks run to completion.",
		func() int64 { c, _ := eng.TaskCounts(); return c })
	reg.CounterFunc("pgserve_engine_tasks_skipped_total",
		"Tasks skipped by context cancellation before running.",
		func() int64 { _, sk := eng.TaskCounts(); return sk })
	eng.Instrument(
		reg.Histogram("pgserve_engine_task_wait_seconds",
			"Time a task spends queued before a worker picks it up.", taskBuckets),
		reg.Histogram("pgserve_engine_task_run_seconds",
			"Time a task spends executing on a worker.", taskBuckets))

	// Repository: func-backed counters over RepoStats atomics, plus live
	// build and per-phase reduction histograms.
	repo := s.repo
	reg.GaugeFunc("pgserve_repo_models", "Reduced models resident in memory.",
		func() float64 { return float64(repo.Stats().Models) })
	reg.GaugeFunc("pgserve_repo_interp_models", "Interpolated models resident in the LRU.",
		func() float64 { return float64(repo.Stats().InterpModels) })
	reg.CounterFunc("pgserve_repo_builds_total", "Full grid build + BDSM reductions.",
		repo.builds.Load)
	reg.CounterFunc("pgserve_repo_mem_hits_total", "Model requests served from memory.",
		repo.memHits.Load)
	reg.CounterFunc("pgserve_repo_disk_hits_total", "Models loaded from the persistent store.",
		repo.diskHits.Load)
	reg.CounterFunc("pgserve_repo_disk_misses_total", "Store read-throughs that missed.",
		repo.diskMisses.Load)
	reg.CounterFunc("pgserve_repo_store_errors_total", "Persistent store write/encode failures.",
		repo.storeErrors.Load)
	reg.CounterFunc("pgserve_interp_served_total", "Requests served via Δ-scale interpolation.",
		repo.interpServed.Load)
	reg.CounterFunc("pgserve_interp_fallbacks_total",
		"Δ-scale requests that fell back to a real reduction.",
		repo.interpFallbacks.Load)
	reg.CounterFunc("pgserve_ward_eliminated_states_total",
		"Static states eliminated exactly by Ward pre-reduction across builds.",
		repo.wardEliminated.Load)
	repo.Instrument(
		reg.Histogram("pgserve_repo_build_seconds",
			"End-to-end model build duration (grid + reduction + modalize).", buildBuckets),
		reg.HistogramVec("pgserve_reduce_phase_seconds",
			"Per-phase reduction timing: grid_build, partition, schur, factor, krylov, modalize.",
			buildBuckets, "phase"))

	// Evaluator counters.
	ev := s.ev
	reg.CounterFunc("pgserve_evals_modal_total",
		"Point evaluations served through the modal form.", ev.ModalEvals)
	reg.CounterFunc("pgserve_evals_canceled_total",
		"Evaluations aborted by client disconnect.", ev.CanceledEvals)
	reg.CounterFunc("pgserve_batch_kernel_calls_total",
		"Multi-entry sweeps served by the packed batched kernel.",
		ev.BatchKernelCalls)
	ev.InstrumentBatch(
		reg.Histogram("pgserve_batch_kernel_entries",
			"Transfer-matrix entries per batched kernel call.", sizeBuckets))

	// Request coalescing: sweep batches.
	reg.CounterFunc("pgserve_sweep_coalesced_batches_total",
		"Sweep batches that merged more than one request.",
		s.sweeps.sharedBatches.Load)
	reg.CounterFunc("pgserve_sweep_coalesced_requests_total",
		"Sweep requests served by a shared batch.",
		s.sweeps.sharedRequests.Load)
	s.sweeps.Instrument(
		reg.Histogram("pgserve_sweep_batch_size",
			"Requests per executed sweep batch.", sizeBuckets))

	// Sessions.
	sm := s.sessions
	reg.GaugeFunc("pgserve_sessions_active", "Live transient sessions.",
		func() float64 { return float64(sm.Stats().Active) })
	reg.CounterFunc("pgserve_sessions_created_total", "Sessions created.", sm.created.Load)
	reg.CounterFunc("pgserve_sessions_expired_total", "Sessions evicted by TTL or idle timeout.",
		sm.expired.Load)
	reg.CounterFunc("pgserve_sessions_deleted_total", "Sessions deleted by clients.",
		sm.deleted.Load)
	reg.CounterFunc("pgserve_sessions_denied_total", "Session creations rejected at the bound.",
		sm.denied.Load)
	reg.CounterFunc("pgserve_session_canceled_advances_total",
		"Advances cut short by client disconnect.", sm.canceledAdvances.Load)
	reg.CounterFunc("pgserve_session_steps_total",
		"Integration steps served across all sessions.", sm.stepsTotal.Load)
	reg.CounterFunc("pgserve_sessions_resumed_total",
		"Sessions re-created from a persisted snapshot.", sm.resumed.Load)
	reg.CounterFunc("pgserve_session_snapshots_total",
		"Session state snapshots persisted to the store.", sm.snapSaved.Load)
	reg.CounterFunc("pgserve_session_snapshot_errors_total",
		"Session snapshot persistence failures.", sm.snapErrors.Load)

	// Process.
	reg.GaugeFunc("pgserve_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("pgserve_goroutines", "Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })

	return m
}
