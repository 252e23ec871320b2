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

// Router policy. Retry backoff doubles per attempt up to retryBackoffMax; a
// hedge fires after the fleet's p95 read latency clamped to
// [hedgeMinDelay, hedgeMaxDelay]; the router's own 429s hint
// shedRetryAfter; relayed responses are buffered up to maxRespBytes; and
// each upstream attempt gets dialTimeout to connect and headerTimeout to
// start answering. defaultRetryBackoff applies when Config leaves
// RetryBackoff zero.
const (
	defaultRetryBackoff = 25 * time.Millisecond
	retryBackoffMax     = 500 * time.Millisecond
	hedgeMinDelay       = 20 * time.Millisecond
	hedgeMaxDelay       = 2 * time.Second
	shedRetryAfter      = 2 * time.Second
	maxRespBytes        = int64(256 << 20)
	dialTimeout         = 1 * time.Second
	headerTimeout       = 30 * time.Second
)

// Config sizes a Router. The rest of its policy is fixed: 128 virtual nodes
// per replica on the hash ring; breakers that trip after 3 consecutive
// failures, double their open interval per re-trip up to 30s and close
// after 2 half-open successes; retry backoff capped at 500ms; hedge delays
// clamped to [20ms, 2s]; a 2s Retry-After on shed 429s; 1 MiB request
// bodies (serve.MaxBodyBytes) and 256 MiB buffered responses; and a 1s
// connect and 30s first-byte timeout per upstream attempt.
type Config struct {
	// Replicas are the pgserve base URLs the router fronts.
	Replicas []string
	// ProbeInterval / ProbeTimeout drive the active health prober; 0 selects
	// the defaults. ProbeInterval < 0 disables active probing (tests).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// RetryBackoff is the base delay before the k-th retry attempt
	// (exponential, full jitter, capped at 500ms); 0 selects 25ms.
	RetryBackoff time.Duration
	// BreakerOpenFor is how long a tripped replica breaker stays open before
	// admitting a trial request; 0 selects 2s.
	BreakerOpenFor time.Duration
	// Hedge enables hedged requests for idempotent reads (/eval, /sweep,
	// /interp): when the primary has not answered within the fleet's recent
	// p95 latency (clamped to [20ms, 2s]), a second attempt races on the
	// next ring replica and the first complete response wins.
	Hedge bool
	// Transport overrides the upstream transport (tests, chaos harnesses).
	Transport http.RoundTripper
	// Logger receives router logs; nil discards.
	Logger *slog.Logger
}

// Router fronts a pgserve fleet: consistent-hash placement, health-aware
// failover, retries, hedging, single-flight builds, and session failover.
// Every proxied request goes through one routing loop (do) or, for sessions,
// one sticky-replica path (sessionSend); both send through attempt, the only
// place a replica's breaker admits a request.
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
	jitter   *rand.Rand // fixed seed: jitter spreads concurrent retries, it need not be unpredictable

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
	ring, err := NewRing(cfg.Replicas)
	if err != nil {
		return nil, err
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = defaultRetryBackoff
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	transport := cfg.Transport
	if transport == nil {
		transport = &http.Transport{
			DialContext:           (&net.Dialer{Timeout: dialTimeout}).DialContext,
			ResponseHeaderTimeout: headerTimeout,
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
		jitter:      rand.New(rand.NewSource(0)),
		readLatency: newLatencySampler(256),
		sessions:    make(map[string]*sessionEntry),
		builds:      make(map[string]*buildCall),
	}
	for _, addr := range ring.Replicas() {
		rep := &replica{addr: addr, breaker: NewBreaker(cfg.BreakerOpenFor)}
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
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serve.MaxBodyBytes))
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
	status  int
	header  http.Header
	body    []byte
	replica string
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
	code, retryAfter := http.StatusBadGateway, time.Duration(0)
	var re *routerError
	if errors.As(err, &re) {
		code, retryAfter = re.code, re.retryAfter
	}
	serve.WriteError(w, r, code, retryAfter, err)
}

// errNoReplicas is the shed outcome: nothing usable owns the key right now.
func (rt *Router) errNoReplicas() error {
	rt.metrics.shed()
	return &routerError{
		code:       http.StatusTooManyRequests,
		msg:        "no healthy replica available",
		retryAfter: shedRetryAfter,
	}
}

// errNotAdmitted is attempt's answer when the replica's breaker refused the
// request: another request took its half-open trial after candidates listed
// it. Nothing was sent, so the caller moves on without backing off.
var errNotAdmitted = errors.New("router: replica breaker refused the request")

// attempt sends preq to one replica and buffers the complete response,
// training the breaker with the outcome. It is the router's one admission
// point: Breaker.Allow runs here, immediately before the request is sent. An
// attempt that ends because ctx was canceled (it lost a hedge race, or its
// client left) is no verdict on the replica: it releases any trial slot it
// held and is counted as "canceled".
func (rt *Router) attempt(ctx context.Context, rep *replica, preq *proxyReq) (*bufferedResp, error) {
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
	if !rep.breaker.Allow(time.Now()) {
		return nil, errNotAdmitted
	}
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	t0 := time.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.failed(ctx, rep, "error")
		return nil, err
	}
	body, err := rt.readAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		// Headers arrived but the body did not complete: a replica died (or a
		// network path reset) mid-stream. The partial body is discarded — the
		// client never sees it — and the outcome is a retryable failure.
		rt.failed(ctx, rep, "truncated")
		return nil, fmt.Errorf("incomplete response from %s: %w", rep.addr, err)
	}
	out := &bufferedResp{status: resp.StatusCode, header: resp.Header, body: body, replica: rep.addr}
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

// failed records an attempt that produced no complete response: a failure
// against the replica, unless ctx was canceled first.
func (rt *Router) failed(ctx context.Context, rep *replica, outcome string) {
	if ctx.Err() != nil {
		rep.breaker.Release()
		rt.metrics.attempt(rep, "canceled")
		return
	}
	rep.breaker.Failure(time.Now())
	rt.metrics.attempt(rep, outcome)
}

// readAll buffers an upstream body under the response cap.
func (rt *Router) readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	n, err := io.Copy(&buf, io.LimitReader(r, maxRespBytes+1))
	if err != nil {
		return buf.Bytes(), err
	}
	if n > maxRespBytes {
		return buf.Bytes(), fmt.Errorf("upstream response exceeds %d byte buffer cap", maxRespBytes)
	}
	return buf.Bytes(), nil
}

// backoff sleeps before the k-th retry (k ≥ 1): exponential with full
// jitter, capped. Returns false if the client context expired while waiting.
func (rt *Router) backoff(ctx context.Context, k int) bool {
	d := rt.cfg.RetryBackoff << (k - 1)
	if d > retryBackoffMax || d <= 0 {
		d = retryBackoffMax
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

// do routes preq through the key's usable replicas in ring order and returns
// the first complete, non-retryable response, canceling any attempt still in
// flight. An attempt that fails or answers a retryable status backs off and
// moves to the next candidate once no other attempt is in flight. With hedge
// set, a first attempt still running after hedgeDelay gets one racing copy on
// the next candidate. When every attempt fails, do returns the last complete
// response, so the client sees the replica's own 503/429 and Retry-After
// rather than a generic router error; if none completed, a 502 error.
func (rt *Router) do(ctx context.Context, key string, preq *proxyReq, hedge bool) (*bufferedResp, error) {
	cands := rt.candidates(key)
	if len(cands) == 0 {
		return nil, rt.errNoReplicas()
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		resp *bufferedResp
		rep  *replica
		err  error
	}
	resc := make(chan result, len(cands)) // one send per candidate at most: losers never block
	next, pending := 0, 0
	launch := func() *replica {
		rep := cands[next]
		next++
		pending++
		go func() {
			resp, err := rt.attempt(actx, rep, preq)
			resc <- result{resp: resp, rep: rep, err: err}
		}()
		return rep
	}
	launch()
	var hedgeC <-chan time.Time
	if hedge && len(cands) > 1 {
		t := time.NewTimer(rt.hedgeDelay())
		defer t.Stop()
		hedgeC = t.C
	}
	var hedged *replica
	var last *bufferedResp
	lastErr := errors.New("router: all attempts failed")
	for pending > 0 {
		var res result
		select {
		case <-hedgeC:
			hedgeC = nil
			if next < len(cands) { // a skipped first candidate may have used up the list
				rt.metrics.hedge()
				hedged = launch()
			}
			continue
		case res = <-resc:
		}
		pending--
		skipped := errors.Is(res.err, errNotAdmitted)
		switch {
		case res.err == nil && !res.resp.retryable():
			if res.rep == hedged {
				rt.metrics.hedgeWin()
			}
			return res.resp, nil
		case res.err == nil:
			last = res.resp
		case !skipped:
			lastErr = res.err
		}
		if !skipped {
			hedgeC = nil // the first attempt has ended: from here failures retry, they do not hedge
		}
		if pending > 0 || next == len(cands) {
			continue
		}
		if !skipped {
			if !rt.backoff(ctx, next) {
				break
			}
			rt.metrics.retry()
		}
		launch()
	}
	if last != nil {
		return last, nil
	}
	return nil, &routerError{code: http.StatusBadGateway, msg: lastErr.Error()}
}

// hedgeDelay is the current hedge budget: the recent p95 of idempotent-read
// latencies, clamped to [hedgeMinDelay, hedgeMaxDelay].
func (rt *Router) hedgeDelay() time.Duration {
	d := rt.readLatency.percentile(0.95)
	if d < hedgeMinDelay {
		d = hedgeMinDelay
	}
	if d > hedgeMaxDelay {
		d = hedgeMaxDelay
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
	hedge := hedged && rt.cfg.Hedge
	t0 := time.Now()
	resp, err := rt.do(r.Context(), routeKey(preq.body), preq, hedge)
	if err != nil {
		rt.writeError(w, r, err)
		return
	}
	// The sampler only sizes the hedge delay: without hedging, skip its
	// lock and ring write.
	if hedge && resp.status == http.StatusOK {
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
		resp, err := rt.do(r.Context(), key, preq, false)
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
	call.resp, call.err = rt.do(ctx, key, preq, false)
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
	resp, err := rt.do(r.Context(), routeKey(preq.body), preq, false)
	if err != nil {
		rt.writeError(w, r, err)
		return
	}
	if resp.status == http.StatusOK {
		var info upstreamSessionInfo
		if json.Unmarshal(resp.body, &info) == nil && info.Session != "" {
			e := rt.session(info.Session)
			e.mu.Lock()
			e.replica = rt.replicas[resp.replica]
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

// sessionSend sends preq for session id to its sticky replica when that
// replica is usable. If it is not, or the send fails while the client is
// still connected, the session fails over to another replica and preq is
// sent there. An advance pins the failover to the step the client last
// observed (e.step) and replays there; get and delete resume the latest
// snapshot. A client that left ends the request with 502 and leaves the
// sticky owner in place. The caller holds e.mu.
func (rt *Router) sessionSend(ctx context.Context, e *sessionEntry, id string, preq *proxyReq, advance bool) (*bufferedResp, error) {
	owner := e.replica
	sent := false
	if owner != nil && owner.usable(time.Now()) {
		resp, err := rt.attempt(ctx, owner, preq)
		if err == nil && !resp.retryable() {
			return resp, nil
		}
		sent = !errors.Is(err, errNotAdmitted)
	}
	if ctx.Err() != nil {
		return nil, &routerError{code: http.StatusBadGateway, msg: ctx.Err().Error()}
	}
	var wantStep int64
	if advance {
		wantStep = e.step
	}
	_, resumedStep, err := rt.failoverSession(ctx, e, id, preq.requestID, owner, wantStep)
	if err != nil {
		rt.dropSession(id)
		return nil, err
	}
	if advance && owner != nil && resumedStep != wantStep {
		return nil, &routerError{code: http.StatusBadGateway,
			msg: fmt.Sprintf("session %s resumed at step %d but client observed step %d; cannot replay exactly (run replicas with -session-snapshot-every 1)", id, resumedStep, wantStep)}
	}
	if advance && sent {
		rt.metrics.replay()
	}
	resp, err := rt.attempt(ctx, e.replica, preq)
	if err != nil {
		return nil, &routerError{code: http.StatusBadGateway, msg: "send after failover failed: " + err.Error()}
	}
	return resp, nil
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
	resp, err := rt.sessionSend(r.Context(), e, id, preq, true)
	if err != nil {
		rt.writeError(w, r, err)
		return
	}
	if resp.status == http.StatusOK {
		e.step += int64(req.Steps)
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
	resp, err := rt.sessionSend(r.Context(), e, id, preq, false)
	if err != nil {
		rt.writeError(w, r, err)
		return
	}
	if resp.status == http.StatusNotFound {
		rt.dropSession(id)
	}
	relay(w, resp)
}

// handleSessionDelete deletes on the sticky replica (which also removes the
// persisted snapshot); if that replica is gone, the session is resumed
// elsewhere first so the delete — and the snapshot removal — still happen.
// The router forgets the session whatever the outcome.
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
	resp, err := rt.sessionSend(r.Context(), e, id, preq, false)
	rt.dropSession(id)
	if err != nil {
		rt.writeError(w, r, err)
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
		serve.SetRetryAfter(w.Header(), shedRetryAfter)
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
