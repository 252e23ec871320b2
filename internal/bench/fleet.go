package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/store"
)

// FleetPoint is one measured router-tier configuration: a fixed request load
// pushed through pgrouter at a given fleet size and health.
type FleetPoint struct {
	Replicas int `json:"replicas"`
	// Requests completed and client-visible Errors (non-200 after all router
	// retries — the router's whole job is keeping this at zero).
	Requests int `json:"requests"`
	Errors   int `json:"errors"`
	// ReqPerSec is end-to-end /eval throughput through the router.
	ReqPerSec float64 `json:"req_per_sec"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
}

// FleetResult is the machine-readable record pgbench emits as
// BENCH_fleet.json: how /eval throughput scales with fleet size when models
// spread over the consistent-hash ring, and what a flapping replica costs in
// tail latency when the router routes around it (the contract: zero
// client-visible errors, bounded p99 inflation, no lost throughput scaling).
type FleetResult struct {
	Name      string  `json:"name"`
	Benchmark string  `json:"benchmark"`
	Scale     float64 `json:"scale"`
	// Models is how many distinct reduced models the load spreads across the
	// ring; Concurrency the number of closed-loop clients.
	Models      int    `json:"models"`
	Concurrency int    `json:"concurrency"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`

	// Scaling holds healthy-fleet points at increasing replica counts.
	Scaling []FleetPoint `json:"scaling"`
	// ScalingX is the largest healthy fleet's throughput over the
	// single-replica baseline.
	ScalingX float64 `json:"scaling_x"`

	// Healthy and Degraded compare the same fleet size with all replicas up
	// versus one replica flapping (alternating 503 windows): the router's
	// breakers and retries absorb the flapping.
	Healthy  FleetPoint `json:"healthy"`
	Degraded FleetPoint `json:"degraded"`
	// DegradedRetries, DegradedBreakerTrips, and DegradedP99X quantify the
	// absorption: upstream retries the router performed, circuit-breaker
	// trips that kept traffic off the flapping replica (probe-driven trips
	// avoid retries entirely), and the degraded p99 over the healthy p99.
	DegradedRetries      int64   `json:"degraded_retries"`
	DegradedBreakerTrips int64   `json:"degraded_breaker_trips"`
	DegradedP99X         float64 `json:"degraded_p99_x"`
}

// Fleet experiment shape; variables so the test harness can shrink them.
var (
	fleetRequests    = 1200
	fleetConcurrency = 8
	fleetSizes       = []int{1, 2, 4}
	fleetDegradedN   = 3
	fleetFlapPeriod  = 60 * time.Millisecond
	fleetModelScales = []float64{0.10, 0.12, 0.14, 0.16, 0.18, 0.20, 0.22, 0.24}
)

// flapper makes one replica alternate between serving and answering 503 —
// the "sick but not dead" failure mode that stresses breakers hardest.
type flapper struct {
	down atomic.Bool
	h    http.Handler
}

func (f *flapper) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.down.Load() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "flapping", http.StatusServiceUnavailable)
		return
	}
	f.h.ServeHTTP(w, r)
}

// fleet is one running setup: n pgserve replicas over a shared store
// directory behind one pgrouter.
type fleet struct {
	routerURL string
	flap      *flapper // on the first replica; nil unless requested
	rt        *router.Router
	closers   []func()
}

func (f *fleet) close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
}

// startFleet brings up n replicas sharing dir and a router in front. The
// replicas rely on the store read-through for model lookup, so any replica
// can serve any stored model id regardless of which one reduced it.
func startFleet(n int, dir string, withFlapper bool) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < n; i++ {
		st, err := store.Open(dir)
		if err != nil {
			f.close()
			return nil, err
		}
		srv := serve.New(serve.Config{Workers: 2, Store: st, SnapshotEvery: 1})
		var h http.Handler = srv.Handler()
		if withFlapper && i == 0 {
			f.flap = &flapper{h: h}
			h = f.flap
		}
		ts := httptest.NewServer(h)
		f.closers = append(f.closers, ts.Close, srv.Close)
		urls = append(urls, ts.URL)
	}
	rt, err := router.New(router.Config{
		Replicas:      urls,
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
		RetryBackoff:  time.Millisecond,
		Breaker:       router.BreakerConfig{FailThreshold: 3, OpenFor: 50 * time.Millisecond},
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.rt = rt
	ts := httptest.NewServer(rt.Handler())
	f.closers = append(f.closers, ts.Close, rt.Close)
	f.routerURL = ts.URL
	return f, nil
}

// fleetPost sends one JSON POST through the router and drains the response.
func fleetPost(client *http.Client, url string, req any) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// fleetLoad drives the closed-loop /eval workload: `fleetConcurrency`
// clients, `requests` total, round-robining over the stored model ids so the
// load spreads across the ring.
func fleetLoad(routerURL string, ids []string, requests int) FleetPoint {
	omegas := []float64{1e8, 1e9, 1e10}
	var (
		mu        sync.Mutex
		latencies []time.Duration
		errs      int
		next      atomic.Int64
	)
	client := &http.Client{Timeout: 30 * time.Second}
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < fleetConcurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(requests) {
					return
				}
				req := map[string]any{"model": ids[i%int64(len(ids))], "omegas": omegas}
				r0 := time.Now()
				status, err := fleetPost(client, routerURL+"/eval", req)
				d := time.Since(r0)
				mu.Lock()
				latencies = append(latencies, d)
				if err != nil || status != http.StatusOK {
					errs++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	q := func(p float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		i := int(math.Ceil(p*float64(len(latencies)))) - 1
		return float64(latencies[max(0, min(i, len(latencies)-1))].Nanoseconds()) / 1e6
	}
	return FleetPoint{
		Requests:  requests,
		Errors:    errs,
		ReqPerSec: float64(requests) / elapsed.Seconds(),
		P50Ms:     q(0.50),
		P99Ms:     q(0.99),
	}
}

// fleetCounter scrapes one pgrouter counter from the router's /metrics.
func fleetCounter(routerURL, name string) int64 {
	resp, err := http.Get(routerURL + "/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	scrape, err := obs.ParseText(resp.Body)
	if err != nil {
		return 0
	}
	v, _ := scrape.Value(name)
	return int64(v)
}

// Fleet measures the router tier end to end: /eval throughput through
// pgrouter at increasing fleet sizes (healthy), then a fixed-size fleet with
// one replica flapping 503s, where the router's breakers, probes, and
// retries must hold client-visible errors at zero while bounding the p99.
func Fleet(cfg Config) (*FleetResult, error) {
	cfg.defaults()
	dir, err := os.MkdirTemp("", "pgbench-fleet-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	out := &FleetResult{
		Name:        "fleet",
		Benchmark:   grid.Ckt1,
		Scale:       fleetModelScales[len(fleetModelScales)-1],
		Models:      len(fleetModelScales),
		Concurrency: fleetConcurrency,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
	}

	// Populate the shared store once; later fleets warm-load from disk. The
	// model ids come back from /reduce.
	ids := make([]string, 0, len(fleetModelScales))
	{
		f, err := startFleet(1, dir, false)
		if err != nil {
			return nil, err
		}
		client := &http.Client{Timeout: 10 * time.Minute}
		for _, s := range fleetModelScales {
			body, _ := json.Marshal(serve.ModelKey{Benchmark: grid.Ckt1, Scale: s})
			resp, err := client.Post(f.routerURL+"/reduce", "application/json", bytes.NewReader(body))
			if err != nil {
				f.close()
				return nil, fmt.Errorf("bench: reducing ckt1@%g: %w", s, err)
			}
			var info struct {
				ID string `json:"id"`
			}
			err = json.NewDecoder(resp.Body).Decode(&info)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || info.ID == "" {
				f.close()
				return nil, fmt.Errorf("bench: reducing ckt1@%g: status %d, %v", s, resp.StatusCode, err)
			}
			ids = append(ids, info.ID)
		}
		f.close()
	}

	// Healthy scaling: same load, growing fleet.
	for _, n := range fleetSizes {
		f, err := startFleet(n, dir, false)
		if err != nil {
			return nil, err
		}
		pt := fleetLoad(f.routerURL, ids, fleetRequests)
		pt.Replicas = n
		f.close()
		out.Scaling = append(out.Scaling, pt)
	}
	if first := out.Scaling[0]; first.ReqPerSec > 0 {
		out.ScalingX = out.Scaling[len(out.Scaling)-1].ReqPerSec / first.ReqPerSec
	}

	// Degraded: fleetDegradedN replicas, one flapping. Healthy baseline first
	// on an identical fleet.
	f, err := startFleet(fleetDegradedN, dir, true)
	if err != nil {
		return nil, err
	}
	out.Healthy = fleetLoad(f.routerURL, ids, fleetRequests)
	out.Healthy.Replicas = fleetDegradedN

	retries0 := fleetCounter(f.routerURL, "pgrouter_retries_total")
	trips0 := fleetCounter(f.routerURL, "pgrouter_breaker_trips_total")
	stop := make(chan struct{})
	var flapWG sync.WaitGroup
	flapWG.Add(1)
	go func() {
		defer flapWG.Done()
		tick := time.NewTicker(fleetFlapPeriod)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				f.flap.down.Store(false)
				return
			case <-tick.C:
				f.flap.down.Store(!f.flap.down.Load())
			}
		}
	}()
	out.Degraded = fleetLoad(f.routerURL, ids, fleetRequests)
	out.Degraded.Replicas = fleetDegradedN
	close(stop)
	flapWG.Wait()
	out.DegradedRetries = fleetCounter(f.routerURL, "pgrouter_retries_total") - retries0
	out.DegradedBreakerTrips = fleetCounter(f.routerURL, "pgrouter_breaker_trips_total") - trips0
	f.close()

	if out.Healthy.P99Ms > 0 {
		out.DegradedP99X = out.Degraded.P99Ms / out.Healthy.P99Ms
	}
	return out, nil
}

// Render prints the fleet benchmark tables.
func (r *FleetResult) Render(w io.Writer) {
	line(w, "%s: %d models over the ring, %d closed-loop clients, %d requests/point, GOMAXPROCS %d",
		r.Benchmark, r.Models, r.Concurrency, r.Scaling[0].Requests, r.GoMaxProcs)
	line(w, "%-10s %12s %10s %10s %8s", "replicas", "req/s", "p50 ms", "p99 ms", "errors")
	for _, pt := range r.Scaling {
		line(w, "%-10d %12.0f %10.2f %10.2f %8d", pt.Replicas, pt.ReqPerSec, pt.P50Ms, pt.P99Ms, pt.Errors)
	}
	line(w, "throughput scaling ×%d replicas: %.2f×", r.Scaling[len(r.Scaling)-1].Replicas, r.ScalingX)
	line(w, "")
	line(w, "%-22s %12s %10s %10s %8s", fmt.Sprintf("fleet of %d", r.Healthy.Replicas), "req/s", "p50 ms", "p99 ms", "errors")
	line(w, "%-22s %12.0f %10.2f %10.2f %8d", "healthy", r.Healthy.ReqPerSec, r.Healthy.P50Ms, r.Healthy.P99Ms, r.Healthy.Errors)
	line(w, "%-22s %12.0f %10.2f %10.2f %8d", "one replica flapping", r.Degraded.ReqPerSec, r.Degraded.P50Ms, r.Degraded.P99Ms, r.Degraded.Errors)
	line(w, "flapping absorbed by %d breaker trips and %d router retries; p99 inflation %.2f×, client-visible errors %d",
		r.DegradedBreakerTrips, r.DegradedRetries, r.DegradedP99X, r.Degraded.Errors)
}
