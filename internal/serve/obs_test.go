package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// scrape fetches /metrics and parses it with the strict exposition-format
// parser, so every scrape in this file doubles as a format-validity check.
func scrape(t *testing.T, ts *httptest.Server) *obs.Scrape {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	sc, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("/metrics is not valid exposition format: %v", err)
	}
	return sc
}

// TestMetricsCoverAllSubsystems reduces a model, sweeps, evals, and runs a
// session advance, then asserts the scrape covers every subsystem with
// moving counters and the three required duration histograms.
func TestMetricsCoverAllSubsystems(t *testing.T) {
	_, ts := newTestServer(t)
	info := reduceTestModel(t, ts)

	postJSON(t, ts.URL+"/sweep", sweepRequest{
		Model: info.ID, Row: 0, Col: 0, WMin: 1e6, WMax: 1e12, Points: 10,
	}).Body.Close()
	postJSON(t, ts.URL+"/eval", evalRequest{
		Model: info.ID, Omegas: []float64{1e8, 1e9},
	}).Body.Close()
	sess := decode[sessionInfo](t, postJSON(t, ts.URL+"/session",
		map[string]any{"model": info.ID, "dt": 1e-12}))
	// The advance streams NDJSON after its headers; read it to the end so
	// the handler, and the request metrics recorded when it returns, have
	// finished before the scrape.
	adv := postJSON(t, ts.URL+"/session/"+sess.Session+"/advance", map[string]any{
		"steps": 8, "input": map[string]any{"kind": "step", "amplitude": 1.0},
	})
	if _, err := io.Copy(io.Discard, adv.Body); err != nil {
		t.Fatal(err)
	}
	adv.Body.Close()

	sc := scrape(t, ts)

	// Counters that must have moved after the traffic above.
	moved := []struct {
		name  string
		pairs []string
	}{
		{"pgserve_http_requests_total", []string{"route", "/reduce", "status", "200"}},
		{"pgserve_http_requests_total", []string{"route", "/sweep", "status", "200"}},
		{"pgserve_http_requests_total", []string{"route", "/eval", "status", "200"}},
		{"pgserve_http_requests_total", []string{"route", "/session/{id}/advance", "status", "200"}},
		{"pgserve_repo_builds_total", nil},
		{"pgserve_ward_eliminated_states_total", nil},
		{"pgserve_evals_modal_total", nil},
		{"pgserve_sessions_created_total", nil},
		{"pgserve_session_steps_total", nil},
		{"pgserve_engine_tasks_completed_total", nil},
		{"pgserve_http_response_bytes_total", nil},
	}
	for _, m := range moved {
		v, ok := sc.Value(m.name, m.pairs...)
		if !ok {
			t.Errorf("series %s %v missing from scrape", m.name, m.pairs)
		} else if v < 1 {
			t.Errorf("%s %v = %g, want ≥ 1", m.name, m.pairs, v)
		}
	}

	// Series that must exist (zero is fine), covering every subsystem the
	// acceptance criteria list: repository, engine, evaluator, session,
	// interp, and HTTP.
	present := []string{
		"pgserve_repo_models", "pgserve_repo_mem_hits_total", "pgserve_repo_disk_hits_total",
		"pgserve_engine_queue_depth", "pgserve_engine_workers", "pgserve_engine_tasks_skipped_total",
		"pgserve_evals_canceled_total",
		"pgserve_sessions_active", "pgserve_sessions_expired_total",
		"pgserve_interp_served_total", "pgserve_interp_fallbacks_total",
		"pgserve_http_in_flight", "pgserve_uptime_seconds",
	}
	for _, name := range present {
		if !sc.Has(name) {
			t.Errorf("series %s missing from scrape", name)
		}
	}

	// The three required duration histograms, each with at least one sample.
	for _, h := range []struct {
		name  string
		pairs []string
	}{
		{"pgserve_http_request_seconds", []string{"route", "/sweep"}},
		{"pgserve_engine_task_wait_seconds", nil},
		{"pgserve_session_advance_seconds", nil},
		{"pgserve_repo_build_seconds", nil},
		{"pgserve_reduce_phase_seconds", []string{"phase", "grid_build"}},
		{"pgserve_reduce_phase_seconds", []string{"phase", "partition"}},
		{"pgserve_reduce_phase_seconds", []string{"phase", "schur"}},
		{"pgserve_reduce_phase_seconds", []string{"phase", "factor"}},
		{"pgserve_reduce_phase_seconds", []string{"phase", "krylov"}},
		{"pgserve_reduce_phase_seconds", []string{"phase", "modalize"}},
	} {
		count, ok := sc.Value(h.name+"_count", h.pairs...)
		if !ok {
			t.Errorf("histogram %s %v missing from scrape", h.name, h.pairs)
		} else if count < 1 {
			t.Errorf("histogram %s %v has no observations", h.name, h.pairs)
		}
		if sc.Types[h.name] != "histogram" {
			t.Errorf("TYPE of %s = %q, want histogram", h.name, sc.Types[h.name])
		}
	}
}

// TestRequestIDPropagation injects an X-Request-Id and verifies the same ID
// comes back in the response header, in the error body, and on the
// structured request log line.
func TestRequestIDPropagation(t *testing.T) {
	var logBuf syncBuffer
	srv := New(Config{Workers: 2, Logger: slog.New(slog.NewJSONHandler(&logBuf, nil))})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	const reqID = "test-req-id-42"
	// A request that fails (unknown model → 404) so the error body is
	// exercised too.
	body := bytes.NewReader([]byte(`{"model":"nope","omegas":[1e9]}`))
	req, _ := http.NewRequest("POST", ts.URL+"/eval", body)
	req.Header.Set("X-Request-Id", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /eval: %v", err)
	}
	if got := resp.Header.Get("X-Request-Id"); got != reqID {
		t.Errorf("response X-Request-Id = %q, want %q", got, reqID)
	}
	errBody := decode[map[string]string](t, resp)
	if errBody["request_id"] != reqID {
		t.Errorf("error body request_id = %q, want %q", errBody["request_id"], reqID)
	}
	if errBody["error"] == "" {
		t.Errorf("error body has no error field: %v", errBody)
	}

	// The log line for this request must carry the same ID.
	var found bool
	scanner := bufio.NewScanner(bytes.NewReader(logBuf.Bytes()))
	for scanner.Scan() {
		var line map[string]any
		if json.Unmarshal(scanner.Bytes(), &line) != nil {
			continue
		}
		if line["request_id"] == reqID {
			found = true
			if line["route"] != "/eval" {
				t.Errorf("log line route = %v, want /eval", line["route"])
			}
			if line["status"] != float64(http.StatusNotFound) {
				t.Errorf("log line status = %v, want 404", line["status"])
			}
			if _, ok := line["duration_ms"]; !ok {
				t.Errorf("log line has no duration_ms: %v", line)
			}
		}
	}
	if !found {
		t.Fatalf("no log line with request_id %q; log:\n%s", reqID, logBuf.Bytes())
	}

	// A hostile propagated ID must be replaced, not echoed.
	req, _ = http.NewRequest("GET", ts.URL+"/models", nil)
	req.Header.Set("X-Request-Id", "bad id; with junk")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /models: %v", err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got == "" || strings.Contains(got, " ") {
		t.Errorf("invalid client ID not replaced with a generated one: %q", got)
	}
}

// TestRequestLogCarriesModelID verifies per-request log lines include the
// resolved model ID.
func TestRequestLogCarriesModelID(t *testing.T) {
	var logBuf syncBuffer
	srv := New(Config{Workers: 2, Logger: slog.New(slog.NewJSONHandler(&logBuf, nil))})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	info := reduceTestModel(t, ts)
	postJSON(t, ts.URL+"/sweep", sweepRequest{
		Model: info.ID, Row: 0, Col: 0, WMin: 1e6, WMax: 1e12, Points: 5,
	}).Body.Close()

	var sweepLine map[string]any
	scanner := bufio.NewScanner(bytes.NewReader(logBuf.Bytes()))
	for scanner.Scan() {
		var line map[string]any
		if json.Unmarshal(scanner.Bytes(), &line) != nil {
			continue
		}
		if line["route"] == "/sweep" {
			sweepLine = line
		}
	}
	if sweepLine == nil {
		t.Fatalf("no /sweep log line; log:\n%s", logBuf.Bytes())
	}
	if sweepLine["model"] != info.ID {
		t.Errorf("sweep log line model = %v, want %q", sweepLine["model"], info.ID)
	}
}

// TestHealthzReadiness drives the readiness state machine: ready → 503 with
// reason → ready again; the stats payload must ride along in both states.
func TestHealthzReadiness(t *testing.T) {
	srv, ts := newTestServer(t)

	get := func() (*http.Response, map[string]any) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		return resp, decode[map[string]any](t, resp)
	}

	resp, body := get()
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("ready healthz = %d %v", resp.StatusCode, body["status"])
	}
	if _, ok := body["stats"].(map[string]any); !ok {
		t.Fatalf("ready healthz has no stats payload: %v", body)
	}

	srv.SetNotReady("store preload in progress")
	resp, body = get()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unready healthz status = %d, want 503", resp.StatusCode)
	}
	if body["status"] != "unavailable" || body["reason"] != "store preload in progress" {
		t.Fatalf("unready healthz body = %v", body)
	}
	if _, ok := body["stats"].(map[string]any); !ok {
		t.Fatalf("unready healthz has no stats payload: %v", body)
	}

	srv.SetReady()
	resp, body = get()
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("re-ready healthz = %d %v", resp.StatusCode, body["status"])
	}
}

// TestMetricsStress hammers the serving endpoints from many goroutines while
// concurrently scraping /metrics, validating every mid-storm scrape. Run
// under -race in CI, this is the proof that lock-free recording and the
// exporter's snapshotting coexist.
func TestMetricsStress(t *testing.T) {
	srv, ts := newTestServer(t)
	info := reduceTestModel(t, ts)
	_ = srv

	const clients = 4
	iters := 20
	if testing.Short() {
		iters = 5
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // continuous scraper
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			scrape(t, ts)
			time.Sleep(time.Millisecond)
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				postJSON(t, ts.URL+"/sweep", sweepRequest{
					Model: info.ID, Row: 0, Col: 0, WMin: 1e6, WMax: 1e12, Points: 10,
				}).Body.Close()
				postJSON(t, ts.URL+"/eval", evalRequest{
					Model: info.ID, Omegas: []float64{1e8, 1e9, 1e10},
				}).Body.Close()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Let clients finish, then stop the scraper.
	go func() {
		deadline := time.After(2 * time.Minute)
		ticker := time.NewTicker(5 * time.Millisecond)
		defer ticker.Stop()
		want := float64(clients * iters)
		for {
			select {
			case <-deadline:
				close(stop)
				return
			case <-ticker.C:
				sc := scrape(t, ts)
				if v, ok := sc.Value("pgserve_http_requests_total", "route", "/sweep", "status", "200"); ok && v >= want {
					close(stop)
					return
				}
			}
		}
	}()
	<-done

	// The middleware records a request's metrics after the handler returns,
	// which may be an instant after the client saw the response — poll
	// briefly before asserting exact totals.
	want := float64(clients * iters)
	var sweepN, evalN float64
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		sc := scrape(t, ts)
		sweepN, _ = sc.Value("pgserve_http_requests_total", "route", "/sweep", "status", "200")
		evalN, _ = sc.Value("pgserve_http_requests_total", "route", "/eval", "status", "200")
		if sweepN == want && evalN == want {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if sweepN != want {
		t.Errorf("sweep request counter = %g, want %g", sweepN, want)
	}
	if evalN != want {
		t.Errorf("eval request counter = %g, want %g", evalN, want)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: slog handlers are called from
// request goroutines while tests read the log.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuffer) Bytes() []byte {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return append([]byte(nil), sb.b.Bytes()...)
}

// TestInstrumentedEngineAddsNoAllocs: attaching the task wait/run
// histograms leaves Engine.MapCtx's allocations per call unchanged — recording
// is clock reads and atomic arithmetic on pre-registered instruments.
func TestInstrumentedEngineAddsNoAllocs(t *testing.T) {
	reg := obs.NewRegistry()
	bare := NewEngine(2)
	defer bare.Close()
	instr := NewEngine(2)
	defer instr.Close()
	instr.Instrument(
		reg.Histogram("test_task_wait_seconds", "Task queue wait.", taskBuckets),
		reg.Histogram("test_task_run_seconds", "Task run time.", taskBuckets))

	noop := func(int) error { return nil }
	allocs := func(e *Engine, n int) float64 {
		return testing.AllocsPerRun(200, func() {
			if err := e.MapCtx(context.Background(), n, noop); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, n := range []int{1, 4} {
		if b, i := allocs(bare, n), allocs(instr, n); b != i {
			t.Errorf("MapCtx(%d): %v allocs/call bare, %v instrumented", n, b, i)
		}
	}
}
