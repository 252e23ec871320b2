package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"math/cmplx"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{Workers: 4})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return v
}

func reduceTestModel(t *testing.T, ts *httptest.Server) reduceResponse {
	t.Helper()
	resp := postJSON(t, ts.URL+"/reduce", ModelKey{Benchmark: "ckt1", Scale: 0.1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/reduce status = %d", resp.StatusCode)
	}
	return decode[reduceResponse](t, resp)
}

func TestReduceRoundTrip(t *testing.T) {
	_, ts := newTestServer(t)
	info := reduceTestModel(t, ts)
	if info.Cached {
		t.Fatalf("first /reduce reported cached")
	}
	if info.Order <= 0 || info.Blocks <= 0 || info.Ports <= 0 {
		t.Fatalf("implausible model info: %+v", info)
	}
	again := reduceTestModel(t, ts)
	if !again.Cached {
		t.Fatalf("second /reduce rebuilt the model")
	}
	if again.ID != info.ID {
		t.Fatalf("model id changed across identical requests: %q vs %q", info.ID, again.ID)
	}
}

func TestSweepMatchesDirectEval(t *testing.T) {
	srv, ts := newTestServer(t)
	info := reduceTestModel(t, ts)

	req := sweepRequest{Model: info.ID, Row: 0, Col: 0, WMin: 1e6, WMax: 1e12, Points: 25}
	resp := postJSON(t, ts.URL+"/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/sweep status = %d", resp.StatusCode)
	}
	var out struct {
		Model  string       `json:"model"`
		Points []SweepPoint `json:"points"`
	}
	out = decode[struct {
		Model  string       `json:"model"`
		Points []SweepPoint `json:"points"`
	}](t, resp)
	if len(out.Points) != req.Points {
		t.Fatalf("got %d points, want %d", len(out.Points), req.Points)
	}

	m, err := srv.Repo().Lookup(info.ID)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	for _, pt := range out.Points {
		col, err := m.ROM.EvalColumn(complex(0, pt.Omega), req.Col)
		if err != nil {
			t.Fatalf("direct eval at ω=%g: %v", pt.Omega, err)
		}
		want := col[req.Row]
		if d := cmplx.Abs(complex(pt.Re, pt.Im) - want); d > 1e-12*(1+cmplx.Abs(want)) {
			t.Fatalf("ω=%g: served %g%+gi, direct %v", pt.Omega, pt.Re, pt.Im, want)
		}
	}
}

func TestSweepNDJSONStreams(t *testing.T) {
	_, ts := newTestServer(t)
	info := reduceTestModel(t, ts)
	resp := postJSON(t, ts.URL+"/sweep", sweepRequest{
		Model: info.ID, Row: 0, Col: 0, WMin: 1e6, WMax: 1e12, Points: 17, Format: "ndjson",
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/sweep status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	rows := 0
	for sc.Scan() {
		var pt SweepPoint
		if err := json.Unmarshal(sc.Bytes(), &pt); err != nil {
			t.Fatalf("row %d: %v", rows, err)
		}
		if pt.Omega <= 0 {
			t.Fatalf("row %d has ω=%g", rows, pt.Omega)
		}
		rows++
	}
	if rows != 17 {
		t.Fatalf("streamed %d rows, want 17", rows)
	}
}

func TestEvalBatch(t *testing.T) {
	_, ts := newTestServer(t)
	info := reduceTestModel(t, ts)
	resp := postJSON(t, ts.URL+"/eval", evalRequest{Model: info.ID, Omegas: []float64{1e7, 1e9, 1e11}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/eval status = %d", resp.StatusCode)
	}
	out := decode[evalResponse](t, resp)
	if len(out.Points) != 3 {
		t.Fatalf("got %d matrices, want 3", len(out.Points))
	}
	for _, pt := range out.Points {
		if len(pt.H) != info.Outputs || len(pt.H[0]) != info.Ports {
			t.Fatalf("H at ω=%g is %d×%d, want %d×%d",
				pt.Omega, len(pt.H), len(pt.H[0]), info.Outputs, info.Ports)
		}
	}
}

func TestTransientEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	info := reduceTestModel(t, ts)
	req := transientRequest{
		Model: info.ID, Dt: 1e-10, T: 5e-9,
		Input: sourceSpec{Kind: "step", Amplitude: 1e-3, Delay: 1e-10},
	}
	resp := postJSON(t, ts.URL+"/transient", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/transient status = %d", resp.StatusCode)
	}
	out := decode[struct {
		T []float64   `json:"t"`
		Y [][]float64 `json:"y"`
	}](t, resp)
	wantSteps := int(req.T/req.Dt+0.5) + 1
	if len(out.T) != wantSteps || len(out.Y) != wantSteps {
		t.Fatalf("got %d samples, want %d", len(out.T), wantSteps)
	}
	// A step current drive must produce a nonzero late-time response.
	last := out.Y[len(out.Y)-1]
	var norm float64
	for _, v := range last {
		norm += v * v
	}
	if math.Sqrt(norm) == 0 {
		t.Fatalf("transient response identically zero")
	}
}

func TestModelsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	info := reduceTestModel(t, ts)
	postJSON(t, ts.URL+"/sweep", sweepRequest{
		Model: info.ID, Row: 0, Col: 0, WMin: 1e6, WMax: 1e12, Points: 10,
	}).Body.Close()

	resp, err := http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatalf("GET /models: %v", err)
	}
	models := decode[[]reduceResponse](t, resp)
	if len(models) != 1 || models[0].ID != info.ID {
		t.Fatalf("/models = %+v, want exactly %q", models, info.ID)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	health := decode[map[string]any](t, resp)
	if health["status"] != "ok" {
		t.Fatalf("healthz status = %v", health["status"])
	}
	stats, _ := health["stats"].(map[string]any)
	if stats == nil {
		t.Fatalf("healthz stats payload missing: %v", health)
	}
	cache, _ := stats["cache"].(map[string]any)
	if cache == nil {
		t.Fatalf("healthz cache stats missing: %v", stats["cache"])
	}
	// The sweep above rode the modal fast path; the stats must say so.
	if cache["modal_evals"].(float64) < 1 {
		t.Fatalf("healthz reports no modal evaluations: %v", stats["cache"])
	}
}

func TestEvalEntryBudget(t *testing.T) {
	_, ts := newTestServer(t)
	// A 21-port model: maxSweepPoints full 21×21 matrices exceed the
	// maxEvalEntries budget, which a few-port model cannot reach.
	resp := postJSON(t, ts.URL+"/reduce", ModelKey{Benchmark: "ckt5", Scale: 0.015})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/reduce status = %d", resp.StatusCode)
	}
	info := decode[reduceResponse](t, resp)
	omegas := make([]float64, maxSweepPoints)
	for i := range omegas {
		omegas[i] = 1e9
	}
	if total := len(omegas) * info.Outputs * info.Ports; total <= maxEvalEntries {
		t.Fatalf("%d entries fit the %d-entry budget; the test needs a larger model", total, maxEvalEntries)
	}
	resp = postJSON(t, ts.URL+"/eval", evalRequest{Model: info.ID, Omegas: omegas})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-budget /eval status = %d, want 400", resp.StatusCode)
	}
}

func TestReduceRepositoryFull(t *testing.T) {
	srv, ts := newTestServer(t)
	fillRepository(srv.Repo(), 1)
	resp := postJSON(t, ts.URL+"/reduce", ModelKey{Benchmark: "ckt1", Scale: 0.1})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first /reduce status = %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/reduce", ModelKey{Benchmark: "ckt1", Scale: 0.08})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity /reduce status = %d, want 429", resp.StatusCode)
	}
	// The resident model keeps serving.
	resp = postJSON(t, ts.URL+"/reduce", ModelKey{Benchmark: "ckt1", Scale: 0.1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resident /reduce status = %d", resp.StatusCode)
	}
	if info := decode[reduceResponse](t, resp); !info.Cached {
		t.Fatalf("resident model reported rebuilt")
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t)
	info := reduceTestModel(t, ts)

	cases := []struct {
		name string
		path string
		body any
		want int
	}{
		{"unknown benchmark", "/reduce", ModelKey{Benchmark: "ckt9", Scale: 0.1}, 400},
		{"bad scale", "/reduce", ModelKey{Benchmark: "ckt1", Scale: 7}, 400},
		{"negative moments", "/reduce", ModelKey{Benchmark: "ckt1", Scale: 0.1, Moments: -3}, 400},
		{"huge moments", "/reduce", ModelKey{Benchmark: "ckt1", Scale: 0.1, Moments: 5000}, 400},
		{"negative s0", "/reduce", ModelKey{Benchmark: "ckt1", Scale: 0.1, S0: -1e9}, 400},
		{"unknown model", "/sweep", sweepRequest{Model: "nope", WMin: 1, WMax: 2, Points: 3}, 404},
		{"row out of range", "/sweep", sweepRequest{Model: info.ID, Row: 9999, WMin: 1, WMax: 2, Points: 3}, 400},
		{"bad range", "/sweep", sweepRequest{Model: info.ID, WMin: 10, WMax: 1, Points: 3}, 400},
		{"empty omegas", "/eval", evalRequest{Model: info.ID}, 400},
		{"negative omega", "/eval", evalRequest{Model: info.ID, Omegas: []float64{-1}}, 400},
		{"bad source kind", "/transient", transientRequest{Model: info.ID, Dt: 1e-10, T: 1e-9, Input: sourceSpec{Kind: "laser"}}, 400},
		{"bad method", "/transient", transientRequest{Model: info.ID, Dt: 1e-10, T: 1e-9, Input: sourceSpec{Kind: "dc", Value: 1}, Method: "rk9"}, 400},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+tc.path, tc.body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// Unknown fields are rejected, catching client typos.
	resp, err := http.Post(ts.URL+"/sweep", "application/json",
		strings.NewReader(`{"model":"x","pionts":5}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("unknown field: status = %d, want 400", resp.StatusCode)
	}
}

// Degenerate sweep grids must surface as client errors (400), never 500 —
// and the legal degenerate case (one point at wmin == wmax) must serve.
func TestSweepDegenerateGridStatus(t *testing.T) {
	_, ts := newTestServer(t)
	info := reduceTestModel(t, ts)

	bad := []map[string]any{
		{"model": info.ID, "wmin": 1e9, "wmax": 1e5, "points": 10}, // reversed
		{"model": info.ID, "wmin": 1e5, "wmax": 1e9, "points": 1},  // 1 point, real range
		{"model": info.ID, "wmin": -1.0, "wmax": 1e9, "points": 10},
		{"model": info.ID, "wmin": 1e5, "wmax": 1e9, "points": -4},
	}
	for _, body := range bad {
		resp := postJSON(t, ts.URL+"/sweep", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%v: status %d, want 400", body, resp.StatusCode)
		}
		resp.Body.Close()
	}

	resp := postJSON(t, ts.URL+"/sweep", map[string]any{"model": info.ID, "wmin": 1e9, "wmax": 1e9, "points": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("1-point degenerate sweep: status %d", resp.StatusCode)
	}
	out := decode[struct {
		Points []SweepPoint `json:"points"`
	}](t, resp)
	if len(out.Points) != 1 || out.Points[0].Omega != 1e9 {
		t.Fatalf("points = %+v", out.Points)
	}
}
