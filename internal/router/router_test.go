package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Primary returns the first replica in the key's preference order.
func (r *Ring) Primary(key string) string { return r.Preference(key)[0] }

// ---- ring ----

func TestRingDeterminismAndCoverage(t *testing.T) {
	replicas := []string{"http://a:1", "http://b:2", "http://c:3"}
	r1, err := NewRing(replicas)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := NewRing(replicas)
	counts := map[string]int{}
	const keys = 20000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("model-%d", i)
		p1, p2 := r1.Preference(key), r2.Preference(key)
		if len(p1) != len(replicas) {
			t.Fatalf("preference for %q has %d replicas, want %d", key, len(p1), len(replicas))
		}
		seen := map[string]bool{}
		for j := range p1 {
			if p1[j] != p2[j] {
				t.Fatalf("preference order for %q differs between identical rings", key)
			}
			if seen[p1[j]] {
				t.Fatalf("preference for %q repeats replica %s", key, p1[j])
			}
			seen[p1[j]] = true
		}
		counts[p1[0]]++
	}
	for rep, n := range counts {
		share := float64(n) / keys
		if share < 0.20 || share > 0.47 {
			t.Errorf("replica %s owns %.1f%% of keys; want roughly balanced (33%%)", rep, share*100)
		}
	}
}

func TestRingRejectsBadMembership(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := NewRing([]string{"http://a", "http://a"}); err == nil {
		t.Error("duplicate replica accepted")
	}
	if _, err := NewRing([]string{""}); err == nil {
		t.Error("empty replica address accepted")
	}
}

// ---- breaker ----

func TestBreakerStateMachine(t *testing.T) {
	b := NewBreaker(2 * time.Second)
	t0 := time.Now()
	if !b.Allow(t0) {
		t.Fatal("new breaker refuses requests")
	}
	b.Failure(t0)
	b.Failure(t0)
	if b.State() != breakerClosed {
		t.Fatalf("state after 2 failures = %v, want closed", b.State())
	}
	b.Failure(t0) // third consecutive failure trips
	if b.State() != breakerOpen {
		t.Fatalf("state after 3 failures = %v, want open", b.State())
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}
	if b.Allow(t0.Add(time.Second)) {
		t.Fatal("open breaker admitted a request during cooldown")
	}
	// Cooldown elapsed: exactly one trial is admitted (half-open).
	if !b.Allow(t0.Add(3 * time.Second)) {
		t.Fatal("open breaker refused the post-cooldown trial")
	}
	if b.State() != breakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if b.Allow(t0.Add(3 * time.Second)) {
		t.Fatal("half-open breaker admitted a second concurrent trial")
	}
	// Trial fails: re-trip with doubled cooldown (4s).
	b.Failure(t0.Add(3 * time.Second))
	if b.State() != breakerOpen {
		t.Fatalf("state = %v, want open after failed trial", b.State())
	}
	if b.Allow(t0.Add(6 * time.Second)) {
		t.Fatal("doubled cooldown (4s) not honored")
	}
	if !b.Allow(t0.Add(8 * time.Second)) {
		t.Fatal("trial refused after doubled cooldown elapsed")
	}
	// Probation: two successes close it and reset the cooldown.
	b.Success()
	if b.State() != breakerHalfOpen {
		t.Fatalf("state = %v, want half-open after 1/2 probation successes", b.State())
	}
	if !b.Allow(t0.Add(8 * time.Second)) {
		t.Fatal("second probation trial refused")
	}
	b.Success()
	if b.State() != breakerClosed {
		t.Fatalf("state = %v, want closed after probation", b.State())
	}
	// Probe success while open jumps straight to half-open.
	b.Failure(t0)
	b.Failure(t0)
	b.Failure(t0)
	if b.State() != breakerOpen {
		t.Fatal("breaker did not re-trip")
	}
	b.Success()
	if b.State() != breakerHalfOpen {
		t.Fatalf("state after probe success while open = %v, want half-open", b.State())
	}
}

func TestBreakerCooldownCap(t *testing.T) {
	b := NewBreaker(time.Second)
	t0 := time.Now()
	for i := 0; i < failThreshold; i++ {
		b.Failure(t0)
	}
	for i := 0; i < 6; i++ { // each failed trial doubles, capped at openForMax
		at := t0.Add(time.Duration(i+1) * time.Minute)
		if !b.Allow(at) {
			t.Fatalf("trial %d refused", i)
		}
		b.Failure(at)
	}
	b.mu.Lock()
	cd := b.cooldown
	b.mu.Unlock()
	if cd != openForMax {
		t.Fatalf("cooldown = %v, want capped at %v", cd, openForMax)
	}
}

// ---- routing behavior against fake replicas ----

// fakeFleet is a set of httptest replicas with per-URL request counting and
// a mutable handler override.
type fakeFleet struct {
	servers []*httptest.Server
	hits    []atomic.Int64
	mu      sync.Mutex
	handler map[string]http.HandlerFunc // by URL; nil entry = default 200 JSON
}

func newFakeFleet(t *testing.T, n int) *fakeFleet {
	t.Helper()
	f := &fakeFleet{handler: map[string]http.HandlerFunc{}}
	for i := 0; i < n; i++ {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			f.hits[i].Add(1)
			f.mu.Lock()
			h := f.handler[f.servers[i].URL]
			f.mu.Unlock()
			if h != nil {
				h(w, r)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]string{"served_by": f.servers[i].URL, "path": r.URL.Path})
		}))
		f.servers = append(f.servers, ts)
		t.Cleanup(ts.Close)
	}
	f.hits = make([]atomic.Int64, n)
	return f
}

func (f *fakeFleet) urls() []string {
	out := make([]string, len(f.servers))
	for i, ts := range f.servers {
		out[i] = ts.URL
	}
	return out
}

func (f *fakeFleet) set(url string, h http.HandlerFunc) {
	f.mu.Lock()
	f.handler[url] = h
	f.mu.Unlock()
}

func (f *fakeFleet) totalHits() int64 {
	var n int64
	for i := range f.hits {
		n += f.hits[i].Load()
	}
	return n
}

// newTestRouter builds a Router with probing disabled (tests drive health via
// request outcomes) and fast retries.
func newTestRouter(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = time.Millisecond
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func TestRouterRetriesToNextReplica(t *testing.T) {
	fleet := newFakeFleet(t, 3)
	rt, ts := newTestRouter(t, Config{Replicas: fleet.urls()})
	// The primary for this key always fails with 503; the request must land
	// on a fallback with status 200, transparently.
	body := `{"benchmark":"ckt1","scale":0.1}`
	primary := rt.ring.Primary(routeKey([]byte(body)))
	fleet.set(primary, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusServiceUnavailable)
	})
	resp := postJSON(t, ts.URL+"/eval", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 via retry", resp.StatusCode)
	}
	if up := resp.Header.Get("X-Upstream"); up == primary || up == "" {
		t.Fatalf("X-Upstream = %q; want a fallback replica, not the failing primary %q", up, primary)
	}
	if rt.metrics.retries.Value() == 0 {
		t.Error("retries counter did not move")
	}
}

func TestRouterRetriesConnectionRefused(t *testing.T) {
	fleet := newFakeFleet(t, 2)
	urls := fleet.urls()
	rt, ts := newTestRouter(t, Config{Replicas: urls})
	body := `{"benchmark":"ckt1","scale":0.1}`
	primary := rt.ring.Primary(routeKey([]byte(body)))
	for i, u := range urls {
		if u == primary {
			fleet.servers[i].Close() // connection refused from now on
		}
	}
	resp := postJSON(t, ts.URL+"/eval", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 after failing over a dead replica", resp.StatusCode)
	}
}

func TestRouterBuffersTruncatedResponse(t *testing.T) {
	fleet := newFakeFleet(t, 2)
	rt, ts := newTestRouter(t, Config{Replicas: fleet.urls()})
	body := `{"benchmark":"ckt1","scale":0.1}`
	primary := rt.ring.Primary(routeKey([]byte(body)))
	fleet.set(primary, func(w http.ResponseWriter, r *http.Request) {
		// Promise 1000 bytes, deliver 10, die: the classic mid-stream crash.
		w.Header().Set("Content-Length", "1000")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("0123456789"))
		panic(http.ErrAbortHandler)
	})
	resp := postJSON(t, ts.URL+"/sweep", body)
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 from the fallback", resp.StatusCode)
	}
	if !strings.Contains(string(got), "served_by") {
		t.Fatalf("client received %q; want the fallback's complete body, never truncated bytes", got)
	}
	if rt.metrics.retries.Value() == 0 {
		t.Error("truncated response did not count as a retry")
	}
}

func TestRouterShedsWhenNoReplicaUsable(t *testing.T) {
	fleet := newFakeFleet(t, 1)
	rt, ts := newTestRouter(t, Config{
		Replicas:       fleet.urls(),
		BreakerOpenFor: time.Minute,
	})
	fleet.servers[0].Close()
	// Three failed requests trip the only replica's breaker...
	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/eval", `{"model":"m"}`)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("request %d status = %d, want 502 while breaker closed", i, resp.StatusCode)
		}
	}
	// ...after which the router sheds instead of dialing a dead host.
	resp := postJSON(t, ts.URL+"/eval", `{"model":"m"}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 shed", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive hint", ra)
	}
	if rt.metrics.sheds.Value() == 0 {
		t.Error("shed counter did not move")
	}
}

func TestRouterSingleFlightsReduce(t *testing.T) {
	fleet := newFakeFleet(t, 2)
	var builds atomic.Int64
	slow := func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/reduce" {
			builds.Add(1)
			time.Sleep(100 * time.Millisecond)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"id": "ckt1-0.1"})
	}
	for _, u := range fleet.urls() {
		fleet.set(u, slow)
	}
	rt, ts := newTestRouter(t, Config{Replicas: fleet.urls()})
	const herd = 12
	var wg sync.WaitGroup
	errs := make(chan error, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/reduce", "application/json",
				strings.NewReader(`{"benchmark":"ckt1","scale":0.1}`))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			b, _ := io.ReadAll(resp.Body)
			if !strings.Contains(string(b), "ckt1-0.1") {
				errs <- fmt.Errorf("unexpected body %q", b)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("upstream /reduce called %d times for a %d-request herd, want exactly 1", n, herd)
	}
	if got := rt.metrics.merged.Value(); got != herd-1 {
		t.Errorf("singleflight merged = %d, want %d", got, herd-1)
	}
}

func TestRouterHedgesSlowPrimary(t *testing.T) {
	fleet := newFakeFleet(t, 2)
	rt, ts := newTestRouter(t, Config{
		Replicas: fleet.urls(),
		Hedge:    true,
	})
	body := `{"benchmark":"ckt1","scale":0.1}`
	primary := rt.ring.Primary(routeKey([]byte(body)))
	fleet.set(primary, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(400 * time.Millisecond) // way past the hedge budget
		json.NewEncoder(w).Encode(map[string]string{"served_by": "slow"})
	})
	t0 := time.Now()
	resp := postJSON(t, ts.URL+"/eval", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if d := time.Since(t0); d >= 400*time.Millisecond {
		t.Errorf("hedged request took %v; the fast secondary should have won well under the slow primary's 400ms", d)
	}
	if up := resp.Header.Get("X-Upstream"); up == primary {
		t.Errorf("X-Upstream = %q (the slow primary); want the hedge winner", up)
	}
	if rt.metrics.hedges.Value() == 0 || rt.metrics.hedgeWins.Value() == 0 {
		t.Errorf("hedges = %d, wins = %d; both should have moved",
			rt.metrics.hedges.Value(), rt.metrics.hedgeWins.Value())
	}
}

// TestRouterSamplesReadLatencyOnlyWhenHedging: the read-latency sampler only
// sizes the hedge delay, so a router without hedging records nothing, while
// a hedging one records every successful idempotent read.
func TestRouterSamplesReadLatencyOnlyWhenHedging(t *testing.T) {
	fleet := newFakeFleet(t, 2)
	for _, hedge := range []bool{false, true} {
		rt, ts := newTestRouter(t, Config{Replicas: fleet.urls(), Hedge: hedge})
		for _, path := range []string{"/eval", "/sweep", "/interp"} {
			resp := postJSON(t, ts.URL+path, `{"benchmark":"ckt1","scale":0.1}`)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("hedge=%v %s status = %d, want 200", hedge, path, resp.StatusCode)
			}
		}
		rt.readLatency.mu.Lock()
		n := rt.readLatency.n
		rt.readLatency.mu.Unlock()
		if want := map[bool]int{false: 0, true: 3}[hedge]; n != want {
			t.Errorf("hedge=%v: sampler holds %d read latencies, want %d", hedge, n, want)
		}
	}
}

func TestRouterPassesThroughClientErrors(t *testing.T) {
	fleet := newFakeFleet(t, 2)
	for _, u := range fleet.urls() {
		fleet.set(u, func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, `{"error":"bad request"}`, http.StatusBadRequest)
		})
	}
	_, ts := newTestRouter(t, Config{Replicas: fleet.urls()})
	resp := postJSON(t, ts.URL+"/eval", `{"benchmark":"nope"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 passed through without retries", resp.StatusCode)
	}
	if fleet.totalHits() != 1 {
		t.Fatalf("upstream hits = %d; 4xx must not retry", fleet.totalHits())
	}
}

func TestRouteKey(t *testing.T) {
	cases := []struct {
		body string
		want string
	}{
		{`{"model":"ckt1-0.1-l2-s00"}`, "ckt1-0.1-l2-s00"},
		{`{"benchmark":"ckt1","scale":0.1}`, routeKey([]byte(`{"benchmark":"ckt1","scale":0.1,"moments":0}`))},
		{`not json`, ""},
		{`{}`, ""},
	}
	for _, c := range cases {
		if got := routeKey([]byte(c.body)); got != c.want {
			t.Errorf("routeKey(%s) = %q, want %q", c.body, got, c.want)
		}
	}
	// Normalized and raw forms of one model key must route identically.
	a := routeKey([]byte(`{"benchmark":"ckt1","scale":0.1}`))
	b := routeKey([]byte(`{"benchmark":"ckt1","scale":0.1,"moments":0,"s0":0}`))
	if a == "" || a != b {
		t.Errorf("equivalent model keys route differently: %q vs %q", a, b)
	}
}

func TestRouterHealthz(t *testing.T) {
	fleet := newFakeFleet(t, 2)
	_, ts := newTestRouter(t, Config{Replicas: fleet.urls()})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	var body struct {
		Status   string       `json:"status"`
		Usable   int          `json:"usable"`
		Replicas []probeState `json:"replicas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || body.Usable != 2 || len(body.Replicas) != 2 {
		t.Fatalf("healthz body = %+v", body)
	}
}

func TestRouterMetricsEndpoint(t *testing.T) {
	fleet := newFakeFleet(t, 1)
	_, ts := newTestRouter(t, Config{Replicas: fleet.urls()})
	resp := postJSON(t, ts.URL+"/eval", `{"model":"m"}`)
	resp.Body.Close()
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", mresp.StatusCode)
	}
	b, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{"pgrouter_requests_total", "pgrouter_upstream_attempts_total", "pgrouter_replicas_usable"} {
		if !strings.Contains(string(b), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

func TestProberMarksReplicaDown(t *testing.T) {
	fleet := newFakeFleet(t, 2)
	urls := fleet.urls()
	fleet.set(urls[0], func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	rt, err := New(Config{Replicas: urls, ProbeInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if !rt.replicas[urls[0]].usable(time.Now()) && rt.replicas[urls[1]].usable(time.Now()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("prober never marked the draining replica unusable (or marked the healthy one)")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The draining replica must not appear among any key's candidates.
	for _, rep := range rt.candidates("any-key") {
		if rep.addr == urls[0] {
			t.Fatal("draining replica still among candidates")
		}
	}
}

func TestLatencySamplerPercentile(t *testing.T) {
	s := newLatencySampler(100)
	if s.percentile(0.95) != 0 {
		t.Fatal("empty sampler should report 0")
	}
	for i := 1; i <= 100; i++ {
		s.observe(time.Duration(i) * time.Millisecond)
	}
	p95 := s.percentile(0.95)
	if p95 < 90*time.Millisecond || p95 > 100*time.Millisecond {
		t.Fatalf("p95 = %v, want ~95ms", p95)
	}
}

// ---- cancellation, admission and the one routing loop ----

// waitIdle waits until no attempt is in flight to any replica, so breaker
// verdicts of canceled attempts (which finish after the client's response)
// have landed.
func waitIdle(t *testing.T, rt *Router) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var n int64
		for _, rep := range rt.order {
			n += rep.inflight.Load()
		}
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d upstream attempts still in flight", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// slowUntilCanceled answers after d, or as soon as the router abandons the
// request.
func slowUntilCanceled(d time.Duration) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(d):
			json.NewEncoder(w).Encode(map[string]string{"served_by": "slow"})
		}
	}
}

func assertBreakerUntouched(t *testing.T, rt *Router, addr string) {
	t.Helper()
	b := rt.replicas[addr].breaker
	if b.State() != breakerClosed || b.Trips() != 0 {
		t.Fatalf("healthy replica's breaker is %v after %d trips; canceled attempts must not count as failures",
			b.State(), b.Trips())
	}
}

// TestRouterHedgeLoserIsNoFailure: the primary answers slowly but correctly;
// every hedged read is won by the secondary and the primary's attempt is
// canceled. Canceling it says nothing about the primary's health.
func TestRouterHedgeLoserIsNoFailure(t *testing.T) {
	fleet := newFakeFleet(t, 2)
	rt, ts := newTestRouter(t, Config{Replicas: fleet.urls(), Hedge: true})
	primary := rt.ring.Primary("m")
	fleet.set(primary, slowUntilCanceled(300*time.Millisecond))
	for i := 0; i < 4; i++ {
		resp := postJSON(t, ts.URL+"/eval", `{"model":"m"}`)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("eval %d status = %d, want 200", i, resp.StatusCode)
		}
	}
	waitIdle(t, rt)
	assertBreakerUntouched(t, rt, primary)
}

// TestRouterClientTimeoutIsNoFailure: clients that give up before a slow but
// healthy replica answers cancel their attempts, which must not trip it.
func TestRouterClientTimeoutIsNoFailure(t *testing.T) {
	fleet := newFakeFleet(t, 2)
	rt, ts := newTestRouter(t, Config{Replicas: fleet.urls()})
	primary := rt.ring.Primary("m")
	fleet.set(primary, slowUntilCanceled(300*time.Millisecond))
	client := &http.Client{Timeout: 30 * time.Millisecond}
	for i := 0; i < 3; i++ {
		resp, err := client.Post(ts.URL+"/transient", "application/json", strings.NewReader(`{"model":"m"}`))
		if err == nil {
			resp.Body.Close()
			t.Fatalf("request %d answered %d before the client's timeout", i, resp.StatusCode)
		}
	}
	waitIdle(t, rt)
	assertBreakerUntouched(t, rt, primary)
}

// TestRouterReadersTakeNoTrial: after a tripped breaker's cooldown, a
// /metrics scrape and a /healthz call only read it. The half-open trial
// goes to the next request actually sent to that replica.
func TestRouterReadersTakeNoTrial(t *testing.T) {
	const openFor = 50 * time.Millisecond
	fleet := newFakeFleet(t, 2)
	rt, ts := newTestRouter(t, Config{Replicas: fleet.urls(), BreakerOpenFor: openFor})
	primary := rt.ring.Primary("m")
	fleet.set(primary, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	})
	for i := 0; i < failThreshold; i++ {
		resp := postJSON(t, ts.URL+"/eval", `{"model":"m"}`)
		resp.Body.Close()
	}
	b := rt.replicas[primary].breaker
	if b.State() != breakerOpen {
		t.Fatalf("primary breaker = %v after %d 503s, want open", b.State(), failThreshold)
	}
	fleet.set(primary, nil)
	time.Sleep(2 * openFor)
	for _, path := range []string{"/metrics", "/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, resp.StatusCode)
		}
		if b.State() != breakerOpen {
			t.Fatalf("after GET %s the primary breaker is %v; a read must leave it open", path, b.State())
		}
	}
	resp := postJSON(t, ts.URL+"/eval", `{"model":"m"}`)
	resp.Body.Close()
	if up := resp.Header.Get("X-Upstream"); resp.StatusCode != http.StatusOK || up != primary {
		t.Fatalf("eval after cooldown: status %d via %q, want 200 via the primary %q as its trial", resp.StatusCode, up, primary)
	}
}

// TestRouterHedgedRelays429: when every replica is overloaded, a hedged read
// relays the last replica's own 429 and Retry-After, as an unhedged one does.
func TestRouterHedgedRelays429(t *testing.T) {
	fleet := newFakeFleet(t, 2)
	for _, u := range fleet.urls() {
		fleet.set(u, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "7")
			http.Error(w, `{"error":"full"}`, http.StatusTooManyRequests)
		})
	}
	for _, hedge := range []bool{false, true} {
		_, ts := newTestRouter(t, Config{Replicas: fleet.urls(), Hedge: hedge})
		resp := postJSON(t, ts.URL+"/eval", `{"model":"m"}`)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "7" {
			t.Fatalf("hedge=%v: status %d, Retry-After %q; want the replicas' 429 with Retry-After 7",
				hedge, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
}

// TestRouterHedgedTriesEachReplicaOnce: a hedged read over failing replicas
// tries each candidate once, like an unhedged one.
func TestRouterHedgedTriesEachReplicaOnce(t *testing.T) {
	fleet := newFakeFleet(t, 3)
	for _, u := range fleet.urls() {
		fleet.set(u, func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "down", http.StatusServiceUnavailable)
		})
	}
	_, ts := newTestRouter(t, Config{Replicas: fleet.urls(), Hedge: true})
	resp := postJSON(t, ts.URL+"/eval", `{"model":"m"}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want the replicas' 503 relayed", resp.StatusCode)
	}
	if n := fleet.totalHits(); n != 3 {
		t.Fatalf("upstream attempts = %d, want 3 (one per replica)", n)
	}
}

// TestRouterSessionGetClientLeftKeepsOwner: a client that disconnects during
// GET /session/{id} ends that request only. The session must not fail over
// on the dead context or lose its live owner.
func TestRouterSessionGetClientLeftKeepsOwner(t *testing.T) {
	fleet := newFakeFleet(t, 2)
	entered := make(chan struct{}, 1)
	for _, u := range fleet.urls() {
		fleet.set(u, func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet {
				entered <- struct{}{}
				<-r.Context().Done()
				return
			}
			json.NewEncoder(w).Encode(map[string]any{"session": "s1", "step": 0})
		})
	}
	rt, ts := newTestRouter(t, Config{Replicas: fleet.urls()})
	resp := postJSON(t, ts.URL+"/session", `{"model":"m"}`)
	resp.Body.Close()
	rt.sessMu.Lock()
	e := rt.sessions["s1"]
	rt.sessMu.Unlock()
	if resp.StatusCode != http.StatusOK || e == nil || e.replica == nil {
		t.Fatalf("session create: status %d, entry %+v", resp.StatusCode, e)
	}
	owner := e.replica

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-entered // the router holds e.mu and the owner has the request
		cancel()
	}()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/session/s1", nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("GET answered %d; want the client's own cancellation", resp.StatusCode)
	}
	e.mu.Lock() // the router's handler has finished
	got := e.replica
	e.mu.Unlock()
	rt.sessMu.Lock()
	tracked := rt.sessions["s1"] == e
	rt.sessMu.Unlock()
	if !tracked || got != owner {
		t.Fatalf("after the client left: tracked=%v, owner kept=%v; want the session kept on its owner", tracked, got == owner)
	}
}
