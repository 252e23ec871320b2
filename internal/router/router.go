package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Router defaults; see Config.
const (
	DefaultRetryBackoff    = 25 * time.Millisecond
	DefaultRetryBackoffMax = 500 * time.Millisecond
	DefaultHedgeMinDelay   = 20 * time.Millisecond
	DefaultHedgeMaxDelay   = 2 * time.Second
	DefaultShedRetryAfter  = 2 * time.Second
	DefaultMaxRespBytes    = int64(256 << 20)
	DefaultDialTimeout     = 1 * time.Second
	DefaultHeaderTimeout   = 30 * time.Second
)

// Config sizes a Router.
type Config struct {
	// Replicas are the pgserve base URLs the router fronts.
	Replicas []string
	// VNodes is the consistent-hash virtual node count per replica (0 =
	// DefaultVNodes).
	VNodes int
	// Breaker tunes the per-replica circuit breakers.
	Breaker BreakerConfig
	// ProbeInterval / ProbeTimeout drive the active health prober; 0 selects
	// the defaults. ProbeInterval < 0 disables active probing (tests).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// RetryBackoff is the base delay before the k-th retry attempt
	// (exponential, full jitter, capped at RetryBackoffMax). 0 selects the
	// defaults.
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// Hedge enables hedged requests for idempotent reads (/eval, /sweep,
	// /interp): when the primary has not answered within the fleet's recent
	// p95 latency (clamped to [HedgeMinDelay, HedgeMaxDelay]), a second
	// attempt races on the next ring replica and the first complete response
	// wins.
	Hedge         bool
	HedgeMinDelay time.Duration
	HedgeMaxDelay time.Duration
	// ShedRetryAfter is the Retry-After hint on 429s the router itself emits
	// when no usable replica remains for a key. 0 selects the default.
	ShedRetryAfter time.Duration
	// MaxBodyBytes caps request bodies (0 = serve.DefaultMaxBodyBytes);
	// MaxRespBytes caps the buffered upstream response (0 = 256 MiB).
	MaxBodyBytes int64
	MaxRespBytes int64
	// DialTimeout / ResponseHeaderTimeout bound each upstream attempt's
	// connect and first-byte latency. 0 selects the defaults.
	DialTimeout           time.Duration
	ResponseHeaderTimeout time.Duration
	// Transport overrides the upstream transport (tests, chaos harnesses).
	Transport http.RoundTripper
	// Logger receives router logs; nil discards.
	Logger *slog.Logger
	// Seed seeds retry jitter; 0 uses a fixed seed (jitter spreads
	// concurrent retries — it does not need to be unpredictable).
	Seed int64
}

// Router fronts a pgserve fleet: consistent-hash placement, health-aware
// failover, retries, hedging, single-flight builds, and session failover.
type Router struct {
	cfg      Config
	ring     *Ring
	replicas map[string]*replica
	order    []*replica // ring construction order, for /healthz and metrics
	client   *http.Client
	prober   *prober
	log      *slog.Logger
	reg      *obs.Registry
	metrics  *routerMetrics
	start    time.Time

	jitterMu sync.Mutex
	jitter   *rand.Rand

	readLatency *latencySampler // idempotent-read latencies, feeds hedge budget

	sessMu   sync.Mutex
	sessions map[string]*sessionEntry

	buildMu sync.Mutex
	builds  map[string]*buildCall
}

// sessionEntry is the router's record of one transient session: which
// replica owns it and the step count the client has observed. entry.mu
// serializes advances per session (matching pgserve's one-advance-at-a-time
// contract) and protects replica/step during failover.
type sessionEntry struct {
	mu      sync.Mutex
	replica *replica // nil when the owner is unknown (router restart)
	step    int64
}

// buildCall is one in-flight single-flighted /reduce.
type buildCall struct {
	done chan struct{}
	resp *bufferedResp
	err  error
}

// New assembles a Router and starts its health prober. Call Close to stop it.
func New(cfg Config) (*Router, error) {
	ring, err := NewRing(cfg.Replicas, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	if cfg.RetryBackoffMax <= 0 {
		cfg.RetryBackoffMax = DefaultRetryBackoffMax
	}
	if cfg.HedgeMinDelay <= 0 {
		cfg.HedgeMinDelay = DefaultHedgeMinDelay
	}
	if cfg.HedgeMaxDelay <= 0 {
		cfg.HedgeMaxDelay = DefaultHedgeMaxDelay
	}
	if cfg.ShedRetryAfter <= 0 {
		cfg.ShedRetryAfter = DefaultShedRetryAfter
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = serve.DefaultMaxBodyBytes
	}
	if cfg.MaxRespBytes <= 0 {
		cfg.MaxRespBytes = DefaultMaxRespBytes
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.ResponseHeaderTimeout <= 0 {
		cfg.ResponseHeaderTimeout = DefaultHeaderTimeout
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	transport := cfg.Transport
	if transport == nil {
		transport = &http.Transport{
			DialContext:           (&net.Dialer{Timeout: cfg.DialTimeout}).DialContext,
			ResponseHeaderTimeout: cfg.ResponseHeaderTimeout,
			MaxIdleConnsPerHost:   32,
			IdleConnTimeout:       time.Minute,
		}
	}
	rt := &Router{
		cfg:         cfg,
		ring:        ring,
		replicas:    make(map[string]*replica, len(cfg.Replicas)),
		client:      &http.Client{Transport: transport},
		log:         log,
		start:       time.Now(),
		jitter:      rand.New(rand.NewSource(cfg.Seed)),
		readLatency: newLatencySampler(256),
		sessions:    make(map[string]*sessionEntry),
		builds:      make(map[string]*buildCall),
	}
	for _, addr := range ring.Replicas() {
		rep := &replica{addr: addr, breaker: NewBreaker(cfg.Breaker)}
		rt.replicas[addr] = rep
		rt.order = append(rt.order, rep)
	}
	rt.reg = obs.NewRegistry()
	rt.metrics = newRouterMetrics(rt.reg, rt)
	if cfg.ProbeInterval >= 0 {
		rt.prober = newProber(rt.order, cfg.ProbeInterval, cfg.ProbeTimeout, log,
			func(rep *replica, ok bool) { rt.metrics.probe(rep, ok) })
		rt.prober.run()
	}
	return rt, nil
}

// Close stops the health prober.
func (rt *Router) Close() {
	if rt.prober != nil {
		rt.prober.close()
	}
}

// Metrics exposes the router's registry.
func (rt *Router) Metrics() *obs.Registry { return rt.reg }

// candidates returns the key's preference-ordered usable replicas.
func (rt *Router) candidates(key string) []*replica {
	now := time.Now()
	var out []*replica
	for _, addr := range rt.ring.Preference(key) {
		rep := rt.replicas[addr]
		if rep.usable(now) {
			out = append(out, rep)
		}
	}
	return out
}

// Handler returns the router's HTTP API — the same surface as one pgserve
// replica, plus the router's own /healthz and /metrics.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /reduce", rt.handleReduce)
	mux.HandleFunc("POST /interp", func(w http.ResponseWriter, r *http.Request) {
		rt.handleModelRequest(w, r, true)
	})
	mux.HandleFunc("POST /eval", func(w http.ResponseWriter, r *http.Request) {
		rt.handleModelRequest(w, r, true)
	})
	mux.HandleFunc("POST /sweep", func(w http.ResponseWriter, r *http.Request) {
		rt.handleModelRequest(w, r, true)
	})
	mux.HandleFunc("POST /transient", func(w http.ResponseWriter, r *http.Request) {
		rt.handleModelRequest(w, r, false)
	})
	mux.HandleFunc("POST /session", rt.handleSessionCreate)
	mux.HandleFunc("POST /session/{id}/advance", rt.handleSessionAdvance)
	mux.HandleFunc("GET /session/{id}", rt.handleSessionGet)
	mux.HandleFunc("DELETE /session/{id}", rt.handleSessionDelete)
	mux.HandleFunc("GET /models", rt.handleModels)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.Handle("GET /metrics", rt.reg.Handler())
	return rt.withObs(mux)
}

// withObs traces and meters every request, mirroring pgserve's middleware so
// one X-Request-Id follows a request from client through router to replica.
func (rt *Router) withObs(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace(r.Header.Get("X-Request-Id"))
		w.Header().Set("X-Request-Id", tr.ID)
		r = r.WithContext(obs.ContextWithTrace(r.Context(), tr))
		t0 := time.Now()
		sw := &obs.StatusWriter{ResponseWriter: w}
		mux.ServeHTTP(sw, r)
		rt.metrics.request(obs.Route(mux, r), sw.Code(), time.Since(t0))
	})
}

// ---- proxy plumbing ----

// proxyReq is one client request, read and ready to replay on any replica.
type proxyReq struct {
	method      string
	path        string // upstream path + raw query
	body        []byte
	contentType string
	requestID   string
}

// newProxyReq captures the request body (bounded) so attempts can replay it.
func (rt *Router) newProxyReq(w http.ResponseWriter, r *http.Request) (*proxyReq, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, &routerError{code: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)}
		}
		return nil, &routerError{code: http.StatusBadRequest, msg: "reading request body: " + err.Error()}
	}
	path := r.URL.Path
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	return &proxyReq{
		method:      r.Method,
		path:        path,
		body:        body,
		contentType: r.Header.Get("Content-Type"),
		requestID:   obs.RequestID(r.Context()),
	}, nil
}

// bufferedResp is one complete upstream response. Buffering whole responses
// is the router's correctness lever: a response is relayed to the client only
// once it arrived complete, so a replica dying mid-stream becomes a retry,
// never a truncated client stream.
type bufferedResp struct {
	status     int
	header     http.Header
	body       []byte
	replica    string
	incomplete bool // body read failed partway — never relayed, always retried
}

// retryable reports whether this outcome should move on to the next replica:
// transport errors, gateway-ish statuses, and per-replica overload (429 —
// session caps and model bounds are per-replica, so a sibling may accept).
func (b *bufferedResp) retryable() bool {
	switch b.status {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout,
		http.StatusTooManyRequests:
		return true
	}
	return false
}

// breakerFailure reports whether the outcome should count against the
// replica's breaker. 429 deliberately does not: an overloaded-but-correct
// replica is not a broken one.
func (b *bufferedResp) breakerFailure() bool {
	switch b.status {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// routerError is an error the router itself produces (as opposed to relays).
type routerError struct {
	code       int
	msg        string
	retryAfter time.Duration
}

func (e *routerError) Error() string { return e.msg }

func (rt *Router) writeError(w http.ResponseWriter, r *http.Request, err error) {
	code := http.StatusBadGateway
	var re *routerError
	retryAfter := time.Duration(0)
	if errors.As(err, &re) {
		code = re.code
		retryAfter = re.retryAfter
	}
	if retryAfter > 0 {
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	body := map[string]string{"error": err.Error()}
	if id := obs.RequestID(r.Context()); id != "" {
		body["request_id"] = id
	}
	json.NewEncoder(w).Encode(body)
}

// errNoReplicas is the shed outcome: nothing usable owns the key right now.
func (rt *Router) errNoReplicas() error {
	rt.metrics.shed()
	return &routerError{
		code:       http.StatusTooManyRequests,
		msg:        "no healthy replica available",
		retryAfter: rt.cfg.ShedRetryAfter,
	}
}

// attempt sends preq to one replica and buffers the complete response,
// training the breaker with the outcome.
func (rt *Router) attempt(ctx context.Context, rep *replica, preq *proxyReq) (*bufferedResp, error) {
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	req, err := http.NewRequestWithContext(ctx, preq.method, rep.addr+preq.path, bytes.NewReader(preq.body))
	if err != nil {
		return nil, err
	}
	if preq.contentType != "" {
		req.Header.Set("Content-Type", preq.contentType)
	}
	if preq.requestID != "" {
		req.Header.Set("X-Request-Id", preq.requestID)
	}
	t0 := time.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		rep.breaker.Failure(time.Now())
		rt.metrics.attempt(rep, "error")
		return nil, err
	}
	body, err := rt.readAll(resp.Body)
	resp.Body.Close()
	out := &bufferedResp{status: resp.StatusCode, header: resp.Header, body: body, replica: rep.addr}
	if err != nil {
		// Headers arrived but the body did not complete: a replica died (or a
		// network path reset) mid-stream. The partial body is discarded — the
		// client never sees it — and the outcome is a retryable failure.
		out.incomplete = true
		rep.breaker.Failure(time.Now())
		rt.metrics.attempt(rep, "truncated")
		return out, fmt.Errorf("incomplete response from %s: %w", rep.addr, err)
	}
	if out.breakerFailure() {
		rep.breaker.Failure(time.Now())
		rt.metrics.attempt(rep, "status_"+strconv.Itoa(out.status))
		return out, nil
	}
	rep.breaker.Success()
	rt.metrics.attempt(rep, "ok")
	rt.metrics.upstream(time.Since(t0))
	return out, nil
}

// readAll buffers an upstream body under the response cap.
func (rt *Router) readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	n, err := io.Copy(&buf, io.LimitReader(r, rt.cfg.MaxRespBytes+1))
	if err != nil {
		return buf.Bytes(), err
	}
	if n > rt.cfg.MaxRespBytes {
		return buf.Bytes(), fmt.Errorf("upstream response exceeds %d byte buffer cap", rt.cfg.MaxRespBytes)
	}
	return buf.Bytes(), nil
}

// backoff sleeps before the k-th retry (k ≥ 1): exponential with full
// jitter, capped. Returns false if the client context expired while waiting.
func (rt *Router) backoff(ctx context.Context, k int) bool {
	d := rt.cfg.RetryBackoff << (k - 1)
	if d > rt.cfg.RetryBackoffMax || d <= 0 {
		d = rt.cfg.RetryBackoffMax
	}
	rt.jitterMu.Lock()
	d = time.Duration(rt.jitter.Int63n(int64(d)) + 1)
	rt.jitterMu.Unlock()
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// do routes preq through the key's preference order with retries. Returns the
// first non-retryable response, or — when every replica failed — the last
// buffered response (so the client sees the replica's own 503/429 and
// Retry-After rather than a generic router error), or an error.
func (rt *Router) do(ctx context.Context, key string, preq *proxyReq) (*bufferedResp, *replica, error) {
	cands := rt.candidates(key)
	if len(cands) == 0 {
		return nil, nil, rt.errNoReplicas()
	}
	var lastResp *bufferedResp
	var lastErr error
	for i, rep := range cands {
		if i > 0 {
			rt.metrics.retry()
			if !rt.backoff(ctx, i) {
				break
			}
		}
		resp, err := rt.attempt(ctx, rep, preq)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.retryable() && i+1 < len(cands) {
			lastResp = resp
			continue
		}
		return resp, rep, nil
	}
	if lastResp != nil && !lastResp.incomplete {
		return lastResp, nil, nil
	}
	if lastErr == nil {
		lastErr = errors.New("router: all attempts failed")
	}
	return nil, nil, &routerError{code: http.StatusBadGateway, msg: lastErr.Error()}
}

// doHedged is do() plus a latency hedge for idempotent reads: if the primary
// has not completed within the recent p95 budget, a second attempt races on
// the next usable replica and the first complete, non-retryable response
// wins. Falls back to sequential retry over the remaining candidates when
// both racers fail.
func (rt *Router) doHedged(ctx context.Context, key string, preq *proxyReq) (*bufferedResp, *replica, error) {
	cands := rt.candidates(key)
	if !rt.cfg.Hedge || len(cands) < 2 {
		return rt.do(ctx, key, preq)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		resp *bufferedResp
		rep  *replica
		err  error
	}
	resc := make(chan result, 2)
	launch := func(rep *replica) {
		go func() {
			resp, err := rt.attempt(hctx, rep, preq)
			resc <- result{resp: resp, rep: rep, err: err}
		}()
	}
	launch(cands[0])
	hedgeTimer := time.NewTimer(rt.hedgeDelay())
	defer hedgeTimer.Stop()
	launched, pending := 1, 1
	for pending > 0 {
		select {
		case <-hedgeTimer.C:
			if launched < 2 {
				rt.metrics.hedge()
				launch(cands[1])
				launched++
				pending++
			}
		case res := <-resc:
			pending--
			if res.err == nil && !res.resp.retryable() {
				if launched == 2 && res.rep == cands[1] {
					rt.metrics.hedgeWin()
				}
				return res.resp, res.rep, nil
			}
			// A failed primary before the hedge fires: start the hedge now
			// rather than waiting out the timer.
			if launched < 2 {
				launch(cands[1])
				launched++
				pending++
			}
		case <-ctx.Done():
			return nil, nil, &routerError{code: http.StatusBadGateway, msg: ctx.Err().Error()}
		}
	}
	// Both racers failed; fall through to the remaining candidates.
	if len(cands) > 2 {
		return rt.do(ctx, key, &proxyReq{
			method: preq.method, path: preq.path, body: preq.body,
			contentType: preq.contentType, requestID: preq.requestID,
		})
	}
	return nil, nil, &routerError{code: http.StatusBadGateway, msg: "all replicas failed"}
}

// hedgeDelay is the current hedge budget: the recent p95 of idempotent-read
// latencies, clamped to [HedgeMinDelay, HedgeMaxDelay].
func (rt *Router) hedgeDelay() time.Duration {
	d := rt.readLatency.percentile(0.95)
	if d < rt.cfg.HedgeMinDelay {
		d = rt.cfg.HedgeMinDelay
	}
	if d > rt.cfg.HedgeMaxDelay {
		d = rt.cfg.HedgeMaxDelay
	}
	return d
}

// relay writes a buffered upstream response to the client.
func relay(w http.ResponseWriter, resp *bufferedResp) {
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Upstream", resp.replica)
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

// ---- model-affinity endpoints ----

// routeKey extracts the placement key from a request body: the explicit
// model id, or the normalized ModelKey id for benchmark+scale requests.
// Unkeyed (malformed) bodies route by the empty key — the replica's own
// validation then produces the 400.
func routeKey(body []byte) string {
	var probe struct {
		Model string `json:"model"`
		serve.ModelKey
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		return ""
	}
	if probe.Model != "" {
		return probe.Model
	}
	if probe.Benchmark == "" {
		return ""
	}
	key := probe.ModelKey
	key.Normalize()
	return key.ID()
}

// handleModelRequest proxies /eval, /sweep, /interp (hedged) and /transient
// (retried only) by model affinity.
func (rt *Router) handleModelRequest(w http.ResponseWriter, r *http.Request, hedged bool) {
	preq, err := rt.newProxyReq(w, r)
	if err != nil {
		rt.writeError(w, r, err)
		return
	}
	key := routeKey(preq.body)
	t0 := time.Now()
	var resp *bufferedResp
	if hedged {
		resp, _, err = rt.doHedged(r.Context(), key, preq)
	} else {
		resp, _, err = rt.do(r.Context(), key, preq)
	}
	if err != nil {
		rt.writeError(w, r, err)
		return
	}
	if hedged && resp.status == http.StatusOK {
		rt.readLatency.observe(time.Since(t0))
	}
	relay(w, resp)
}

// handleReduce single-flights cold builds at the router: concurrent /reduce
// requests for one model key collapse into a single upstream request, so a
// thundering herd reduces the model exactly once fleet-wide (the replica's
// own repository single-flight already dedupes within a replica; this layer
// dedupes across the herd arriving at the router).
func (rt *Router) handleReduce(w http.ResponseWriter, r *http.Request) {
	preq, err := rt.newProxyReq(w, r)
	if err != nil {
		rt.writeError(w, r, err)
		return
	}
	key := routeKey(preq.body)
	if key == "" {
		// Malformed body: let the primary replica produce the 400.
		resp, _, err := rt.do(r.Context(), key, preq)
		if err != nil {
			rt.writeError(w, r, err)
			return
		}
		relay(w, resp)
		return
	}
	rt.buildMu.Lock()
	if call, ok := rt.builds[key]; ok {
		rt.buildMu.Unlock()
		rt.metrics.buildMerged()
		select {
		case <-call.done:
		case <-r.Context().Done():
			rt.writeError(w, r, &routerError{code: http.StatusBadGateway, msg: r.Context().Err().Error()})
			return
		}
		if call.err != nil {
			rt.writeError(w, r, call.err)
			return
		}
		relay(w, call.resp)
		return
	}
	call := &buildCall{done: make(chan struct{})}
	rt.builds[key] = call
	rt.buildMu.Unlock()
	defer func() {
		rt.buildMu.Lock()
		delete(rt.builds, key)
		rt.buildMu.Unlock()
		close(call.done)
	}()
	// The leader detaches from its own client context: followers are waiting
	// on this build, so the leader's disconnect must not fail the herd.
	//pgmor:detach single-flight leader must outlive its own client so waiting followers still get the build
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	call.resp, _, call.err = rt.do(ctx, key, preq)
	if call.err != nil {
		rt.writeError(w, r, call.err)
		return
	}
	relay(w, call.resp)
}

// ---- session endpoints ----

// sessionKey is the ring key for a session id — sessions place independently
// of models (the resume path loads the model from the shared store wherever
// the session lands).
func sessionKey(id string) string { return "sess\x00" + id }

// upstreamSessionInfo is the subset of pgserve's session info the router
// tracks.
type upstreamSessionInfo struct {
	Session string `json:"session"`
	Step    int64  `json:"step"`
}

func (rt *Router) session(id string) *sessionEntry {
	rt.sessMu.Lock()
	defer rt.sessMu.Unlock()
	e, ok := rt.sessions[id]
	if !ok {
		e = &sessionEntry{}
		rt.sessions[id] = e
	}
	return e
}

func (rt *Router) dropSession(id string) {
	rt.sessMu.Lock()
	delete(rt.sessions, id)
	rt.sessMu.Unlock()
}

func (rt *Router) sessionCount() int {
	rt.sessMu.Lock()
	defer rt.sessMu.Unlock()
	return len(rt.sessions)
}

// handleSessionCreate routes a create by the model's placement key, so a
// session usually lands on the replica already holding its model hot.
func (rt *Router) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	preq, err := rt.newProxyReq(w, r)
	if err != nil {
		rt.writeError(w, r, err)
		return
	}
	resp, rep, err := rt.do(r.Context(), routeKey(preq.body), preq)
	if err != nil {
		rt.writeError(w, r, err)
		return
	}
	if resp.status == http.StatusOK && rep != nil {
		var info upstreamSessionInfo
		if json.Unmarshal(resp.body, &info) == nil && info.Session != "" {
			e := rt.session(info.Session)
			e.mu.Lock()
			e.replica = rep
			e.step = info.Step
			e.mu.Unlock()
		}
	}
	relay(w, resp)
}

// resumeOn asks one replica to resume the session from its snapshot. step >
// 0 pins the resume to exactly that integration step (the replica checks
// both retained snapshot generations), so a lost-response advance can be
// rewound and replayed; 0 takes the latest snapshot.
func (rt *Router) resumeOn(ctx context.Context, rep *replica, id string, requestID string, step int64) (*bufferedResp, *upstreamSessionInfo, error) {
	req := map[string]any{"resume": id}
	if step > 0 {
		req["resume_step"] = step
	}
	body, _ := json.Marshal(req)
	resp, err := rt.attempt(ctx, rep, &proxyReq{
		method: http.MethodPost, path: "/session", body: body,
		contentType: "application/json", requestID: requestID,
	})
	if err != nil {
		return nil, nil, err
	}
	if resp.status != http.StatusOK {
		return resp, nil, nil
	}
	var info upstreamSessionInfo
	if err := json.Unmarshal(resp.body, &info); err != nil {
		return resp, nil, fmt.Errorf("router: decoding resume response: %w", err)
	}
	return resp, &info, nil
}

// failoverSession re-homes a session whose replica failed: walk the usable
// replicas (excluding the failed one) and resume from the persisted
// snapshot. wantStep > 0 pins the resume to that step so the caller can
// replay a lost advance; 0 takes the latest state. Returns the new owner and
// the resumed step. The caller holds e.mu.
func (rt *Router) failoverSession(ctx context.Context, e *sessionEntry, id, requestID string, exclude *replica, wantStep int64) (*replica, int64, error) {
	var lastDetail string
	for _, rep := range rt.candidates(sessionKey(id)) {
		if rep == exclude {
			continue
		}
		resp, info, err := rt.resumeOn(ctx, rep, id, requestID, wantStep)
		if err != nil {
			lastDetail = err.Error()
			continue
		}
		if info == nil {
			// 404: no snapshot (shared store ⇒ the same everywhere) — the
			// session is unrecoverable. 409: a stale copy of the session is
			// live on that replica, or its snapshots don't reach wantStep;
			// another candidate may still work. 429/503: that replica is
			// full or draining; try the next.
			lastDetail = fmt.Sprintf("%s: status %d: %.200s", rep.addr, resp.status, resp.body)
			if resp.status == http.StatusNotFound {
				break
			}
			continue
		}
		rt.metrics.failover()
		rt.log.Info("session failed over", "session", id, "to", rep.addr, "step", info.Step)
		e.replica = rep
		e.step = info.Step
		return rep, info.Step, nil
	}
	e.replica = nil
	return nil, 0, &routerError{code: http.StatusBadGateway,
		msg: fmt.Sprintf("session %s could not be failed over (%s)", id, lastDetail)}
}

// handleSessionAdvance proxies an advance to the session's sticky replica,
// buffering the whole NDJSON stream. If the replica fails before the stream
// completes, the session resumes on another replica from its snapshot and —
// when the resumed step matches the step the client last observed — the
// advance replays there, so the client receives one complete stream and
// never learns a replica died. (Exact replay requires the fleet to run
// -session-snapshot-every 1; a stale snapshot fails the advance with 502
// rather than silently replaying from the wrong state.)
func (rt *Router) handleSessionAdvance(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	preq, err := rt.newProxyReq(w, r)
	if err != nil {
		rt.writeError(w, r, err)
		return
	}
	var req struct {
		Steps int `json:"steps"`
	}
	json.Unmarshal(preq.body, &req) // malformed bodies 400 at the replica

	e := rt.session(id)
	// One advance per session at a time, mirroring the replica's own 409
	// contract — and required for the router's step accounting to be exact.
	if !e.mu.TryLock() {
		rt.writeError(w, r, &routerError{code: http.StatusConflict,
			msg: fmt.Sprintf("session %s has an advance in flight", id)})
		return
	}
	defer e.mu.Unlock()

	ctx := r.Context()
	if e.replica == nil || !e.replica.usable(time.Now()) {
		// Unknown owner (router restart) or known-bad replica: resume first.
		if _, _, err := rt.failoverSession(ctx, e, id, preq.requestID, nil, 0); err != nil {
			rt.dropSession(id)
			rt.writeError(w, r, err)
			return
		}
	}

	resp, err := rt.attempt(ctx, e.replica, preq)
	if err == nil && !resp.retryable() {
		rt.finishAdvance(w, e, id, resp, int64(req.Steps))
		return
	}
	if ctx.Err() != nil {
		rt.writeError(w, r, &routerError{code: http.StatusBadGateway, msg: ctx.Err().Error()})
		return
	}

	// The sticky replica failed. Resume elsewhere and replay the advance —
	// but only from exactly the step the client last saw.
	failed := e.replica
	preStep := e.step
	_, resumedStep, ferr := rt.failoverSession(ctx, e, id, preq.requestID, failed, preStep)
	if ferr != nil {
		rt.dropSession(id)
		rt.writeError(w, r, ferr)
		return
	}
	if resumedStep != preStep {
		rt.writeError(w, r, &routerError{code: http.StatusBadGateway,
			msg: fmt.Sprintf("session %s resumed at step %d but client observed step %d; cannot replay exactly (run replicas with -session-snapshot-every 1)", id, resumedStep, preStep)})
		return
	}
	rt.metrics.replay()
	resp, err = rt.attempt(ctx, e.replica, preq)
	if err != nil {
		rt.writeError(w, r, &routerError{code: http.StatusBadGateway,
			msg: "replayed advance failed: " + err.Error()})
		return
	}
	rt.finishAdvance(w, e, id, resp, int64(req.Steps))
}

// finishAdvance updates step accounting for a completed advance and relays
// it. The caller holds e.mu.
func (rt *Router) finishAdvance(w http.ResponseWriter, e *sessionEntry, id string, resp *bufferedResp, steps int64) {
	if resp.status == http.StatusOK {
		e.step += steps
	}
	if resp.status == http.StatusNotFound {
		rt.dropSession(id)
	}
	relay(w, resp)
}

// handleSessionGet proxies a state read, failing over (resume) if the sticky
// replica is gone — the resume response is itself the session info.
func (rt *Router) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	preq, err := rt.newProxyReq(w, r)
	if err != nil {
		rt.writeError(w, r, err)
		return
	}
	e := rt.session(id)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.replica != nil && e.replica.usable(time.Now()) {
		resp, err := rt.attempt(r.Context(), e.replica, preq)
		if err == nil && !resp.retryable() {
			if resp.status == http.StatusNotFound {
				rt.dropSession(id)
			}
			relay(w, resp)
			return
		}
	}
	failed := e.replica
	if _, _, err := rt.failoverSession(r.Context(), e, id, preq.requestID, failed, 0); err != nil {
		rt.dropSession(id)
		rt.writeError(w, r, err)
		return
	}
	resp, err := rt.attempt(r.Context(), e.replica, preq)
	if err != nil {
		rt.writeError(w, r, &routerError{code: http.StatusBadGateway, msg: err.Error()})
		return
	}
	relay(w, resp)
}

// handleSessionDelete deletes on the sticky replica (which also removes the
// persisted snapshot); if that replica is gone, the session is resumed
// elsewhere first so the delete — and the snapshot removal — still happen.
func (rt *Router) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	preq, err := rt.newProxyReq(w, r)
	if err != nil {
		rt.writeError(w, r, err)
		return
	}
	e := rt.session(id)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.replica != nil && e.replica.usable(time.Now()) {
		resp, err := rt.attempt(r.Context(), e.replica, preq)
		if err == nil && !resp.retryable() {
			rt.dropSession(id)
			relay(w, resp)
			return
		}
	}
	failed := e.replica
	if _, _, err := rt.failoverSession(r.Context(), e, id, preq.requestID, failed, 0); err != nil {
		rt.dropSession(id)
		rt.writeError(w, r, err)
		return
	}
	resp, err := rt.attempt(r.Context(), e.replica, preq)
	rt.dropSession(id)
	if err != nil {
		rt.writeError(w, r, &routerError{code: http.StatusBadGateway, msg: err.Error()})
		return
	}
	relay(w, resp)
}

// ---- fleet endpoints ----

// handleModels merges every usable replica's model list (deduplicated by
// id), so clients see the fleet's models regardless of placement.
func (rt *Router) handleModels(w http.ResponseWriter, r *http.Request) {
	type result struct {
		models []json.RawMessage
		err    error
	}
	cands := rt.candidates("")
	// candidates("") returns ring order for the empty key; for a fleet-wide
	// fan-out we want every usable replica, which is the same set.
	if len(cands) == 0 {
		rt.writeError(w, r, rt.errNoReplicas())
		return
	}
	resc := make(chan result, len(cands))
	for _, rep := range cands {
		rep := rep
		go func() {
			resp, err := rt.attempt(r.Context(), rep, &proxyReq{
				method: http.MethodGet, path: "/models", requestID: obs.RequestID(r.Context()),
			})
			if err != nil {
				resc <- result{err: err}
				return
			}
			var models []json.RawMessage
			if err := json.Unmarshal(resp.body, &models); err != nil {
				resc <- result{err: err}
				return
			}
			resc <- result{models: models}
		}()
	}
	seen := make(map[string]bool)
	var merged []json.RawMessage
	for range cands {
		res := <-resc
		if res.err != nil {
			continue // partial view beats total failure
		}
		for _, m := range res.models {
			var probe struct {
				ID string `json:"id"`
			}
			if json.Unmarshal(m, &probe) != nil || seen[probe.ID] {
				continue
			}
			seen[probe.ID] = true
			merged = append(merged, m)
		}
	}
	sort.Slice(merged, func(i, j int) bool { return bytes.Compare(merged[i], merged[j]) < 0 })
	w.Header().Set("Content-Type", "application/json")
	if merged == nil {
		merged = []json.RawMessage{}
	}
	json.NewEncoder(w).Encode(merged)
}

// handleHealthz reports the router's own health: 200 while at least one
// replica is usable, 503 (with Retry-After) otherwise, with per-replica
// probe and breaker detail either way.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	states := make([]probeState, 0, len(rt.order))
	usable := 0
	for _, rep := range rt.order {
		st := rep.state(now)
		if st.Usable {
			usable++
		}
		states = append(states, st)
	}
	body := map[string]any{
		"replicas":         states,
		"usable":           usable,
		"sessions_tracked": rt.sessionCount(),
		"uptime_s":         time.Since(rt.start).Seconds(),
	}
	w.Header().Set("Content-Type", "application/json")
	if usable == 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(int64((rt.cfg.ShedRetryAfter+time.Second-1)/time.Second), 10))
		w.WriteHeader(http.StatusServiceUnavailable)
		body["status"] = "unavailable"
	} else {
		body["status"] = "ok"
	}
	json.NewEncoder(w).Encode(body)
}

// ---- latency sampling ----

// latencySampler is a fixed-size ring of recent durations; percentile sorts
// a copy at query time. Small (256 entries) and queried once per hedged
// request, so the copy+sort cost is noise.
type latencySampler struct {
	mu     sync.Mutex
	buf    []time.Duration
	n      int // total observed
	cursor int
}

func newLatencySampler(size int) *latencySampler {
	return &latencySampler{buf: make([]time.Duration, size)}
}

func (s *latencySampler) observe(d time.Duration) {
	s.mu.Lock()
	s.buf[s.cursor] = d
	s.cursor = (s.cursor + 1) % len(s.buf)
	s.n++
	s.mu.Unlock()
}

// percentile returns the p-th percentile of the window, or 0 with no samples.
func (s *latencySampler) percentile(p float64) time.Duration {
	s.mu.Lock()
	size := s.n
	if size > len(s.buf) {
		size = len(s.buf)
	}
	cp := append([]time.Duration(nil), s.buf[:size]...)
	s.mu.Unlock()
	if len(cp) == 0 {
		return 0
	}
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	idx := int(p * float64(len(cp)))
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	return cp[idx]
}
