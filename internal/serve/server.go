// Package serve is the ROM-serving subsystem: a long-running service layer
// that amortizes BDSM reduction and block diagonalization across many
// concurrent requests.
//
// The paper's central advantage over input-dependent schemes (EKS/TBS) is
// that the block-diagonal ROM is reusable — reduce once, evaluate under any
// excitation. This package operationalizes that: a Repository builds each
// (benchmark, scale, options) model exactly once and hands out immutable
// handles, each carrying its blocks diagonalized once into a modal
// (pole–residue) form; an Evaluator serves every sweep, eval, transient and
// session through that form, so evaluation needs no pencil factorization
// except for the rare block that failed to diagonalize; and an Engine fans
// batched AC sweeps and transfer-matrix evaluations across a fixed worker
// pool. Server exposes the whole thing over HTTP with JSON/NDJSON responses.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
)

// The standard sweep grid: the logarithmic frequency range every sweep
// defaults to when a request leaves wmin/wmax/points unset.
const (
	DefaultWMin        = 1e5
	DefaultWMax        = 1e15
	DefaultSweepPoints = 60
)

// maxSweepPoints caps the frequencies of one sweep or eval request and the
// steps of one transient or session advance.
const maxSweepPoints = 10000

// Config sizes a Server. Everything else a server does is fixed: at most
// 64 resident models and 64 live sessions (15m lifetime, 2m idle window),
// 1 MiB request bodies, 1<<22 complex entries per /eval or batched /sweep
// response, Δ-scale interpolation under a 0.05 error budget, and request
// log lines raised to Warn past 1s.
type Config struct {
	// Workers is the evaluation pool size; 0 means runtime.NumCPU().
	Workers int
	// Store, when non-nil, is the persistent ROM store the repository reads
	// through on miss and writes through on build, enabling warm restarts.
	Store *store.Store
	// Logger receives structured per-request and error logs; nil discards
	// them (tests and library embedders stay quiet by default).
	Logger *slog.Logger
	// SnapshotEvery persists each session's integrator state through Store
	// every N completed advances (and on SnapshotSessions, the drain hook),
	// so a session can resume on any replica sharing the store directory.
	// 1 makes failover exact — the snapshot always matches the last advance
	// the client saw complete. 0 disables periodic snapshots.
	SnapshotEvery int
}

// Retry-After policies: every 429/503 the server emits carries a hint of
// when the condition will plausibly clear, so routers and clients back off
// for an informed interval instead of guessing.
const (
	// RetryAfterPreload: the store preload runs in milliseconds-to-seconds;
	// probe again almost immediately.
	RetryAfterPreload = 1 * time.Second
	// RetryAfterDrain: a draining replica is going away — stay away long
	// enough for the fleet to converge on the survivors.
	RetryAfterDrain = 10 * time.Second
	// RetryAfterSessionLimit: sessions churn on the idle window; a slot
	// likely frees within a couple of seconds.
	RetryAfterSessionLimit = 2 * time.Second
	// RetryAfterRepoFull: the model bound clears only by operator action or
	// restart; don't hammer.
	RetryAfterRepoFull = 10 * time.Second
)

// MaxBodyBytes caps the request body every endpoint reads; larger bodies
// get 413. The largest legitimate request (a PWL waveform with thousands of
// breakpoints) fits comfortably in 1 MiB.
const MaxBodyBytes int64 = 1 << 20

// maxEvalEntries caps the complex entries (frequencies × p × m) one /eval
// request, or the values (entries × points) one batched /sweep, may return,
// bounding response memory for many-port models (~128 MB of complex128).
const maxEvalEntries = 1 << 22

// slowRequest raises per-request log lines that exceed it from Info to Warn.
const slowRequest = time.Second

// Server wires the repository and evaluation engine behind an
// http.Handler.
type Server struct {
	repo     *Repository
	eng      *Engine
	ev       *Evaluator
	sweeps   *SweepCoalescer
	sessions *SessionManager
	cfg      Config
	start    time.Time

	log     *slog.Logger
	reg     *obs.Registry
	metrics *serverMetrics
	// notReady holds the reason the server is not ready to serve (store
	// preload in progress, draining for shutdown); nil means ready. /healthz
	// reports 503 with the reason — and a Retry-After hint — so a router can
	// pull the replica and knows when to re-probe.
	notReady atomic.Pointer[notReadyState]
}

// notReadyState is the reason the server answers 503 plus how long callers
// should wait before retrying.
type notReadyState struct {
	reason     string
	retryAfter time.Duration
}

// New assembles a Server. Call Close to stop its worker pool.
func New(cfg Config) *Server {
	s := &Server{
		repo:     NewRepositoryWithStore(cfg.Store),
		eng:      NewEngine(cfg.Workers),
		sessions: NewSessionManager(maxSessions, sessionTTL, sessionIdle),
		cfg:      cfg,
		start:    time.Now(),
	}
	s.log = cfg.Logger
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	s.ev = &Evaluator{eng: s.eng}
	s.sweeps = NewSweepCoalescer(s.ev)
	s.reg = obs.NewRegistry()
	s.metrics = newServerMetrics(s.reg, s)
	return s
}

// Close stops the session janitor and the evaluation pool after draining
// in-flight tasks.
func (s *Server) Close() {
	s.sessions.Close()
	s.eng.Close()
}

// Repo exposes the model repository (used by preloading and tests).
func (s *Server) Repo() *Repository { return s.repo }

// Metrics exposes the server's metrics registry.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// SetNotReady marks the server unready: /healthz returns 503 with the
// reason until SetReady, hinting callers to retry after RetryAfterPreload.
// Use SetNotReadyFor when the condition has a different horizon (drains).
func (s *Server) SetNotReady(reason string) { s.SetNotReadyFor(reason, RetryAfterPreload) }

// SetNotReadyFor marks the server unready with an explicit Retry-After hint.
func (s *Server) SetNotReadyFor(reason string, retryAfter time.Duration) {
	s.notReady.Store(&notReadyState{reason: reason, retryAfter: retryAfter})
}

// SetReady marks the server ready to serve.
func (s *Server) SetReady() { s.notReady.Store(nil) }

// PreloadStore registers every valid ROM from the persistent store without
// reducing — the warm-restart path for a starting daemon. The anchor library
// is merged from the same store scan, so Δ-scale interpolation sees every
// stored Scale point immediately. Returns the number of models registered.
func (s *Server) PreloadStore() (int, error) { return s.repo.Preload() }

// CacheStats is the /healthz "cache" object: the persistent store's
// read-through hits and misses plus the evaluator's counters.
type CacheStats struct {
	DiskHits   int64 `json:"disk_hits"`
	DiskMisses int64 `json:"disk_misses"`
	// ModalEvals counts point evaluations served through the modal form.
	ModalEvals int64 `json:"modal_evals"`
	// CanceledEvals counts requests aborted mid-evaluation because their
	// context was canceled (client disconnect, deadline) — pool time handed
	// back instead of burned.
	CanceledEvals int64 `json:"canceled_evals"`
}

// CacheStats merges the repository's persistent-store counters with the
// evaluator's counters.
func (s *Server) CacheStats() CacheStats {
	rs := s.repo.Stats()
	return CacheStats{
		DiskHits:      rs.DiskHits,
		DiskMisses:    rs.DiskMisses,
		ModalEvals:    s.ev.ModalEvals(),
		CanceledEvals: s.ev.CanceledEvals(),
	}
}

// Handler returns the HTTP API:
//
//	POST   /reduce               build (or fetch) a model           → model info JSON
//	POST   /interp               Δ-scale model via interpolation    → model info JSON
//	POST   /eval                 batch-evaluate H(jω) at points     → JSON
//	POST   /sweep                AC sweep of one entry              → JSON or NDJSON
//	POST   /transient            fixed-step transient run           → JSON or NDJSON
//	POST   /session              open a streaming transient session → session info JSON
//	POST   /session/{id}/advance advance + stream rows              → NDJSON
//	GET    /session/{id}         session state/metrics              → JSON
//	DELETE /session/{id}         close a session                    → JSON
//	GET    /models               list built models                  → JSON
//	GET    /healthz              liveness + cache/pool stats        → JSON
//
// /eval, /sweep, and /session accept benchmark+scale in place of a model
// id: an unstored Scale is then resolved through the Δ-scale interpolation
// path (or a real reduction when interpolation falls back).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /reduce", s.handleReduce)
	mux.HandleFunc("POST /interp", s.handleInterp)
	mux.HandleFunc("POST /eval", s.handleEval)
	mux.HandleFunc("POST /sweep", s.handleSweep)
	mux.HandleFunc("POST /transient", s.handleTransient)
	mux.HandleFunc("POST /session", s.handleSessionCreate)
	mux.HandleFunc("POST /session/{id}/advance", s.handleSessionAdvance)
	mux.HandleFunc("GET /session/{id}", s.handleSessionGet)
	mux.HandleFunc("DELETE /session/{id}", s.handleSessionDelete)
	mux.HandleFunc("GET /models", s.handleModels)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.reg.Handler())
	return s.withObs(mux)
}

// withObs is the outermost middleware: it establishes the request's trace
// (generating or propagating the X-Request-Id), echoes the ID on the
// response, records per-route metrics, and emits one structured log line
// per request. It wraps the mux rather than each handler so even unmatched
// routes are traced and counted.
func (s *Server) withObs(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace(r.Header.Get("X-Request-Id"))
		w.Header().Set("X-Request-Id", tr.ID)
		r = r.WithContext(obs.ContextWithTrace(r.Context(), tr))
		route := obs.Route(mux, r)
		t0 := time.Now()
		s.metrics.requestStart()
		sw := &obs.StatusWriter{ResponseWriter: w}
		mux.ServeHTTP(sw, r)
		s.metrics.requestEnd()
		d := time.Since(t0)
		status := sw.Code()
		s.metrics.request(route, status, d, r.ContentLength, sw.Bytes)
		lvl := slog.LevelInfo
		if d > slowRequest {
			lvl = slog.LevelWarn
		}
		attrs := []any{
			"request_id", tr.ID,
			"route", route,
			"method", r.Method,
			"path", r.URL.Path,
			"status", status,
			"duration_ms", float64(d) / 1e6,
			"bytes", sw.Bytes,
		}
		if tr.Model != "" {
			attrs = append(attrs, "model", tr.Model)
		}
		s.log.Log(r.Context(), lvl, "request", attrs...)
	})
}

// noteModel annotates the request's trace with the model it resolved, so
// the request log line is greppable by model ID.
func noteModel(r *http.Request, m *Model) {
	if m != nil {
		obs.TraceFrom(r.Context()).SetModel(m.ID)
	}
}

// httpError carries a status code through handler plumbing. retryAfter, when
// positive, emits a Retry-After header: every 429/503 tells its caller when
// the condition will plausibly clear, so router and client backoff are
// informed rather than blind.
type httpError struct {
	code       int
	err        error
	retryAfter time.Duration
}

func (e *httpError) Error() string { return e.err.Error() }

func badRequest(format string, args ...any) *httpError {
	return &httpError{code: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

// overloaded builds a 429 with a Retry-After hint.
func overloaded(retryAfter time.Duration, err error) *httpError {
	return &httpError{code: http.StatusTooManyRequests, err: err, retryAfter: retryAfter}
}

// SetRetryAfter sets a Retry-After header of d in whole seconds when d > 0,
// rounding up so "1ms" never becomes the header value 0 ("retry now").
func SetRetryAfter(h http.Header, d time.Duration) {
	if d <= 0 {
		return
	}
	h.Set("Retry-After", strconv.FormatInt(int64((d+time.Second-1)/time.Second), 10))
}

// writeErr renders err as an error response: an *httpError's code and
// Retry-After hint, else a 500.
func writeErr(w http.ResponseWriter, r *http.Request, err error) {
	code, retryAfter := http.StatusInternalServerError, time.Duration(0)
	var he *httpError
	if errors.As(err, &he) {
		code, retryAfter = he.code, he.retryAfter
	}
	WriteError(w, r, code, retryAfter, err)
}

// WriteError writes the JSON error response pgserve and pgrouter share:
// status code, an optional Retry-After hint, and a body carrying the error
// text and the request's ID, so a failure a client reports is greppable in
// the server's logs.
func WriteError(w http.ResponseWriter, r *http.Request, code int, retryAfter time.Duration, err error) {
	SetRetryAfter(w.Header(), retryAfter)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	body := map[string]string{"error": err.Error()}
	if id := obs.RequestID(r.Context()); id != "" {
		body["request_id"] = id
	}
	json.NewEncoder(w).Encode(body)
}

// writeJSON writes v as a 200 JSON response.
func writeJSON(w http.ResponseWriter, r *http.Request, v any) {
	writeJSONStatus(w, r, http.StatusOK, v)
}

// writeJSONStatus writes v as a JSON response with the given status. v is
// marshaled before anything is written, so a value encoding/json rejects
// answers 500 rather than an empty success.
func writeJSONStatus(w http.ResponseWriter, r *http.Request, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeErr(w, r, fmt.Errorf("serve: encoding response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

// writeNumeric writes the buffered numeric response that body appends (see
// encode.go) from a pooled buffer. A value the appenders reject — NaN or
// ±Inf — answers 500 naming the model; nothing has been written by then.
func writeNumeric(w http.ResponseWriter, r *http.Request, m *Model, body func(b []byte) ([]byte, error)) {
	bp := getBuf()
	defer putBuf(bp)
	b, err := body((*bp)[:0])
	*bp = b
	if err != nil {
		writeErr(w, r, fmt.Errorf("serve: encoding response for model %s: %w", m.ID, err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	*bp = append(b, '\n')
	w.Write(*bp)
}

// decodeBody reads one JSON document from a size-capped request body.
// Oversized bodies surface as 413 (http.MaxBytesReader also closes the
// connection so the client stops uploading); trailing bytes after the
// document — concatenated JSON, smuggled garbage — are rejected as 400
// instead of silently ignored.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &httpError{code: http.StatusRequestEntityTooLarge,
				err: fmt.Errorf("request body exceeds %d bytes", mbe.Limit)}
		}
		return badRequest("bad request body: %v", err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return badRequest("trailing data after JSON request body")
	}
	return nil
}

// lookupModel resolves the "model" field of a request, mapping repository
// misses to 404.
func (s *Server) lookupModel(id string) (*Model, error) {
	if id == "" {
		return nil, badRequest("missing model id")
	}
	m, err := s.repo.Lookup(id)
	if err != nil {
		return nil, &httpError{code: http.StatusNotFound, err: err}
	}
	return m, nil
}

// reduceResponse is the model info returned by /reduce and /models.
type reduceResponse struct {
	*Model
	ReduceMS float64 `json:"reduce_ms"`
	// Cached reports whether this request skipped the reduction (the model
	// was resident in memory or loaded from the persistent store).
	Cached bool `json:"cached"`
	// Source reports where the model came from: "memory", "disk", or
	// "built".
	Source string `json:"source"`
}

func modelInfo(m *Model, outcome Outcome) reduceResponse {
	return reduceResponse{
		Model:    m,
		ReduceMS: float64(m.ReduceTime) / 1e6,
		Cached:   outcome != OutcomeBuilt,
		Source:   outcome.String(),
	}
}

func (s *Server) handleReduce(w http.ResponseWriter, r *http.Request) {
	var key ModelKey
	if err := s.decodeBody(w, r, &key); err != nil {
		writeErr(w, r, err)
		return
	}
	// Reject malformed keys (unknown benchmark, bad scale, degenerate
	// moments/s0) as client errors before committing to a build.
	if _, err := grid.Benchmark(key.Benchmark, key.Scale); err != nil {
		writeErr(w, r, badRequest("%v", err))
		return
	}
	if err := key.Validate(); err != nil {
		writeErr(w, r, badRequest("%v", err))
		return
	}
	m, outcome, err := s.repo.Get(key)
	switch {
	case errors.Is(err, ErrRepositoryFull):
		writeErr(w, r, overloaded(RetryAfterRepoFull, err))
		return
	case err != nil:
		writeErr(w, r, err) // build/reduction failure: server-side, 500
		return
	}
	noteModel(r, m)
	writeJSON(w, r, modelInfo(m, outcome))
}

// interpRequest asks for a model at an arbitrary Scale, interpolated from
// the stored anchor library when possible.
type interpRequest struct {
	ModelKey
	// Tol overrides the server's error budget for this request (0 = server
	// default).
	Tol float64 `json:"tol,omitempty"`
}

func (s *Server) handleInterp(w http.ResponseWriter, r *http.Request) {
	var req interpRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeErr(w, r, err)
		return
	}
	if req.Tol < 0 {
		writeErr(w, r, badRequest("tol must be ≥ 0, got %g", req.Tol))
		return
	}
	m, outcome, err := s.resolveModel("", req.ModelKey, req.Tol)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	noteModel(r, m)
	writeJSON(w, r, modelInfo(m, outcome))
}

// resolveModel turns a request's model reference — an explicit id, or a
// benchmark+scale pair — into a servable model. The id wins when both are
// given; a benchmark+scale at an unstored Scale goes through Δ-scale
// interpolation (under the given error budget; 0 = server default).
func (s *Server) resolveModel(id string, key ModelKey, tol float64) (*Model, Outcome, error) {
	if id != "" {
		m, err := s.lookupModel(id)
		return m, OutcomeMemHit, err
	}
	if key.Benchmark == "" {
		return nil, OutcomeMemHit, badRequest("missing model id (or benchmark+scale)")
	}
	if _, err := grid.Benchmark(key.Benchmark, key.Scale); err != nil {
		return nil, OutcomeMemHit, badRequest("%v", err)
	}
	if err := key.Validate(); err != nil {
		return nil, OutcomeMemHit, badRequest("%v", err)
	}
	m, outcome, err := s.repo.GetInterpolated(key, tol)
	switch {
	case errors.Is(err, ErrRepositoryFull):
		return nil, outcome, overloaded(RetryAfterRepoFull, err)
	case err != nil:
		return nil, outcome, err
	}
	return m, outcome, nil
}

type evalRequest struct {
	Model string `json:"model"`
	// ModelKey resolves the model when Model is empty — including Δ-scale
	// interpolation at unstored Scales.
	ModelKey
	Omegas []float64 `json:"omegas"`
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	var req evalRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeErr(w, r, err)
		return
	}
	m, _, err := s.resolveModel(req.Model, req.ModelKey, 0)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	noteModel(r, m)
	if len(req.Omegas) == 0 || len(req.Omegas) > maxSweepPoints {
		writeErr(w, r, badRequest("omegas must have 1..%d entries, got %d", maxSweepPoints, len(req.Omegas)))
		return
	}
	// Budget the response by total entries, not frequency count: each
	// frequency returns a full p×m matrix, which for many-port models
	// dominates the request size.
	if total := len(req.Omegas) * m.Outputs * m.Ports; total > maxEvalEntries {
		writeErr(w, r, badRequest("%d omegas × %d×%d matrix = %d entries exceeds limit %d; request fewer frequencies",
			len(req.Omegas), m.Outputs, m.Ports, total, maxEvalEntries))
		return
	}
	for _, omega := range req.Omegas {
		if omega <= 0 {
			writeErr(w, r, badRequest("omegas must be positive, got %g", omega))
			return
		}
	}
	mats, err := s.ev.EvalBatch(r.Context(), m, req.Omegas)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	writeNumeric(w, r, m, func(b []byte) ([]byte, error) { return appendEval(b, m, req.Omegas, mats) })
}

type sweepRequest struct {
	Model string `json:"model"`
	// ModelKey resolves the model when Model is empty — including Δ-scale
	// interpolation at unstored Scales.
	ModelKey
	Row int `json:"row"`
	Col int `json:"col"`
	// Entries, when non-empty, requests a batched multi-entry sweep: every
	// listed H[row][col] entry is evaluated from one pass over the grid
	// (Row/Col are then ignored). All entries share the frequency grid.
	Entries []Entry `json:"entries,omitempty"`
	WMin    float64 `json:"wmin"`
	WMax    float64 `json:"wmax"`
	Points  int     `json:"points"`
	// Format selects "json" (default, one array) or "ndjson" (streamed —
	// one SweepPoint object per line for single-entry sweeps, one
	// EntrySweep object per line for batched sweeps).
	Format string `json:"format,omitempty"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeErr(w, r, err)
		return
	}
	m, _, err := s.resolveModel(req.Model, req.ModelKey, 0)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	noteModel(r, m)
	// Zero range/points select the standard grid.
	if req.WMin == 0 {
		req.WMin = DefaultWMin
	}
	if req.WMax == 0 {
		req.WMax = DefaultWMax
	}
	if req.Points == 0 {
		req.Points = DefaultSweepPoints
	}
	if req.Points > maxSweepPoints {
		writeErr(w, r, badRequest("points %d exceeds limit %d", req.Points, maxSweepPoints))
		return
	}
	if len(req.Entries) > 0 {
		// Batched multi-entry sweep: budget by total returned values, like
		// /eval, since entries × points is what sizes the response.
		if total := len(req.Entries) * req.Points; total > maxEvalEntries {
			writeErr(w, r, badRequest("%d entries × %d points = %d values exceeds limit %d",
				len(req.Entries), req.Points, total, maxEvalEntries))
			return
		}
		sweeps, err := s.sweeps.SweepEntries(r.Context(), m, req.Entries, req.WMin, req.WMax, req.Points)
		if err != nil {
			writeErr(w, r, err)
			return
		}
		switch strings.ToLower(req.Format) {
		case "", "json":
			writeNumeric(w, r, m, func(b []byte) ([]byte, error) { return appendSweepEntries(b, m, sweeps) })
		case "ndjson":
			streamNDJSON(w, len(sweeps), func(b []byte, i int) ([]byte, error) { return appendEntrySweep(b, sweeps[i]) })
		default:
			writeErr(w, r, badRequest("unknown format %q (want json or ndjson)", req.Format))
		}
		return
	}
	// Sweep distinguishes validation errors (400) from evaluation
	// failures, which surface as 500. Single-entry sweeps also go through
	// the coalescer: concurrent clients hitting the same model and grid
	// merge into one batched kernel call.
	sweeps, err := s.sweeps.SweepEntries(r.Context(), m, []Entry{{Row: req.Row, Col: req.Col}}, req.WMin, req.WMax, req.Points)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	pts := sweeps[0].Points
	switch strings.ToLower(req.Format) {
	case "", "json":
		writeNumeric(w, r, m, func(b []byte) ([]byte, error) { return appendSweep(b, m, pts) })
	case "ndjson":
		streamNDJSON(w, len(pts), func(b []byte, i int) ([]byte, error) { return appendSweepPoint(b, pts[i]) })
	default:
		writeErr(w, r, badRequest("unknown format %q (want json or ndjson)", req.Format))
	}
}

// streamWriteTimeout is the rolling write deadline of every NDJSON stream
// (/sweep, /transient, session advances): generous enough for any live
// reader, finite so a stalled client (open connection, zero receive window)
// cannot pin a handler goroutine forever. Needed because the server's
// WriteTimeout is deliberately unset for streaming responses.
const streamWriteTimeout = 30 * time.Second

// armStreamDeadline pushes the connection's write deadline streamWriteTimeout
// into the future; clearStreamDeadline removes it. Every stream must clear on
// exit: with WriteTimeout unset, net/http never resets the deadline between
// requests, and a stale one would poison the next request on the same
// keep-alive connection.
func armStreamDeadline(rc *http.ResponseController) {
	rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
}
func clearStreamDeadline(rc *http.ResponseController) { rc.SetWriteDeadline(time.Time{}) }

// streamRows is how many rows an NDJSON stream appends per Write and flush.
const streamRows = 64

// streamNDJSON writes n JSON lines appended by row, one Write and flush per
// streamRows rows so clients see rows as they are produced, under the rolling
// stream write deadline. A row that fails to encode ends the stream after the
// rows before it with the {"error": …} truncation marker; a failed write
// means the client is gone and ends it quietly.
func streamNDJSON(w http.ResponseWriter, n int, row func(b []byte, i int) ([]byte, error)) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	fl, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	defer clearStreamDeadline(rc)
	bp := getBuf()
	defer putBuf(bp)
	for lo := 0; lo < n; lo += streamRows {
		armStreamDeadline(rc)
		b, _, err := appendLines((*bp)[:0], lo, min(lo+streamRows, n), row)
		*bp = b
		if _, werr := w.Write(b); werr != nil {
			return
		}
		if err != nil {
			writeStreamError(w, "row encoding failed: "+err.Error())
			return
		}
		if fl != nil {
			fl.Flush()
		}
	}
}

// sourceSpec describes a scalar waveform in a transient request.
type sourceSpec struct {
	Kind      string    `json:"kind"` // dc | step | pulse | sine | pwl
	Value     float64   `json:"value,omitempty"`
	Amplitude float64   `json:"amplitude,omitempty"`
	Delay     float64   `json:"delay,omitempty"`
	Low       float64   `json:"low,omitempty"`
	High      float64   `json:"high,omitempty"`
	Rise      float64   `json:"rise,omitempty"`
	Fall      float64   `json:"fall,omitempty"`
	Width     float64   `json:"width,omitempty"`
	Period    float64   `json:"period,omitempty"`
	Offset    float64   `json:"offset,omitempty"`
	Freq      float64   `json:"freq,omitempty"`
	T         []float64 `json:"t,omitempty"`
	V         []float64 `json:"v,omitempty"`
}

func (sp *sourceSpec) source() (sim.Source, error) {
	switch strings.ToLower(sp.Kind) {
	case "dc":
		return sim.DC(sp.Value), nil
	case "step":
		return sim.Step{Amplitude: sp.Amplitude, Delay: sp.Delay}, nil
	case "pulse":
		return sim.Pulse{Low: sp.Low, High: sp.High, Delay: sp.Delay,
			Rise: sp.Rise, Fall: sp.Fall, Width: sp.Width, Period: sp.Period}, nil
	case "sine":
		return sim.Sine{Offset: sp.Offset, Amplitude: sp.Amplitude, Freq: sp.Freq, Delay: sp.Delay}, nil
	case "pwl":
		return sim.NewPWL(sp.T, sp.V)
	default:
		return nil, fmt.Errorf("unknown source kind %q (want dc|step|pulse|sine|pwl)", sp.Kind)
	}
}

type transientRequest struct {
	Model string     `json:"model"`
	Dt    float64    `json:"dt"`
	T     float64    `json:"t"`
	Input sourceSpec `json:"input"`
	// Ports optionally restricts the excitation to a subset of input
	// ports; empty drives every port with the waveform.
	Ports []int `json:"ports,omitempty"`
	// Method selects "be" (default) or "trap".
	Method string `json:"method,omitempty"`
	Format string `json:"format,omitempty"`
}

func (s *Server) handleTransient(w http.ResponseWriter, r *http.Request) {
	var req transientRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeErr(w, r, err)
		return
	}
	m, err := s.lookupModel(req.Model)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	noteModel(r, m)
	input, err := buildInput(&req.Input, req.Ports, m.Ports)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	method, err := parseMethod(req.Method)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	if req.Dt <= 0 || req.T <= 0 {
		writeErr(w, r, badRequest("dt and t must be positive, got %g, %g", req.Dt, req.T))
		return
	}
	if req.T/req.Dt > float64(maxSweepPoints) {
		writeErr(w, r, badRequest("step count %g exceeds limit %d", req.T/req.Dt, maxSweepPoints))
		return
	}
	res, err := s.ev.Transient(r.Context(), m, sim.TransientOptions{
		Method: method, Dt: req.Dt, T: req.T, Input: input,
	})
	if err != nil {
		writeErr(w, r, err) // inputs were validated above: integrator failure, 500
		return
	}
	switch strings.ToLower(req.Format) {
	case "", "json":
		writeNumeric(w, r, m, func(b []byte) ([]byte, error) { return appendTransient(b, m, res.T, res.Y) })
	case "ndjson":
		streamNDJSON(w, len(res.T), func(b []byte, i int) ([]byte, error) {
			return appendTransientRow(b, res.T[i], res.Y[i])
		})
	default:
		writeErr(w, r, badRequest("unknown format %q (want json or ndjson)", req.Format))
	}
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	models := s.repo.Models()
	out := make([]reduceResponse, len(models))
	for i, m := range models {
		out[i] = modelInfo(m, OutcomeMemHit)
	}
	writeJSON(w, r, out)
}

// handleHealthz reports liveness plus readiness: while the store preload is
// still running, or once a shutdown drain has begun, it answers 503 with the
// reason so a health-aware router takes the replica out of rotation. The
// subsystem stats ride under a "stats" key in both states.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	stats := map[string]any{
		"uptime_s":   time.Since(s.start).Seconds(),
		"models":     len(s.repo.Models()),
		"cache":      s.CacheStats(),
		"repo":       s.repo.Stats(),
		"sessions":   s.sessions.Stats(),
		"workers":    s.eng.Workers(),
		"goroutines": runtime.NumGoroutine(),
	}
	if s.cfg.Store != nil {
		stats["store"] = s.cfg.Store.Stats()
	}
	if nr := s.notReady.Load(); nr != nil {
		SetRetryAfter(w.Header(), nr.retryAfter)
		writeJSONStatus(w, r, http.StatusServiceUnavailable, map[string]any{
			"status": "unavailable", "reason": nr.reason, "stats": stats,
		})
		return
	}
	writeJSON(w, r, map[string]any{"status": "ok", "stats": stats})
}
