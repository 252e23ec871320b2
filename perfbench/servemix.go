package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/dense"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
)

// serveModels are the two models serve-mix builds during set-up.
var serveModels = []struct {
	bench string
	scale float64
}{{"ckt1", 1}, {"ckt2", 0.5}}

const (
	mixClients   = 2   // closed-loop clients, one goroutine each
	mixSessions  = 4   // sessions each client keeps open
	mixWarmupOps = 150 // untimed ops per client during set-up
	calEvery     = 1250 * time.Millisecond
)

// sweepGrid is one frequency grid clients sweep over; both clients share the
// same two grids so concurrent sweeps can coalesce.
type sweepGrid struct {
	wmin, wmax float64
	points     int
	omegas     []float64
}

// serveState is a set-up server with its warmed clients.
type serveState struct {
	srv     *serve.Server
	h       http.Handler
	models  []*serve.Model
	clients []*client
}

// romRelErr measures every served model against its full sparse system.
func (st *serveState) romRelErr() (float64, error) {
	worst := 0.0
	for i, k := range serveModels {
		sys, err := benchmarkSpec(k.bench, k.scale, nil).build()
		if err != nil {
			return 0, err
		}
		ref, err := fullReference(sys)
		if err != nil {
			return 0, err
		}
		got, err := probe(st.models[i].Modal)
		if err != nil {
			return 0, err
		}
		worst = math.Max(worst, maxRelErr(got, ref))
	}
	return worst, nil
}

// setupServe starts an in-process server, builds both models through
// /reduce, opens the clients' sessions, and warms up with untimed ops.
func setupServe(seed int64) (*serveState, error) {
	st := &serveState{srv: serve.New(serve.Config{})}
	st.h = st.srv.Handler()
	for _, k := range serveModels {
		body, _ := json.Marshal(map[string]any{"benchmark": k.bench, "scale": k.scale})
		resp, err := post(st.h, "/reduce", body)
		if err != nil {
			return st, err
		}
		var info struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(resp, &info); err != nil {
			return st, fmt.Errorf("decoding /reduce response: %w", err)
		}
		m, err := st.srv.Repo().Lookup(info.ID)
		if err != nil {
			return st, err
		}
		if m.Modal == nil || m.Packed == nil || m.ModalBlocks != m.Blocks {
			// Clients mirror sessions with modal steppers, as the server
			// does for fully modal models.
			return st, fmt.Errorf("model %s is not fully modal", info.ID)
		}
		st.models = append(st.models, m)
	}
	var grids []sweepGrid
	for _, g := range []sweepGrid{{wmin: serve.DefaultWMin, wmax: serve.DefaultWMax, points: serve.DefaultSweepPoints},
		{wmin: 1e6, wmax: 1e12, points: 40}} {
		var err error
		if g.omegas, err = sim.LogGrid(g.wmin, g.wmax, g.points); err != nil {
			return st, err
		}
		grids = append(grids, g)
	}
	for i := 0; i < mixClients; i++ {
		c := &client{h: st.h, models: st.models, grids: grids, rng: rand.New(rand.NewSource(seed*mixClients + int64(i))),
			next: i * len(mixCycle) / mixClients}
		for j := 0; j < mixSessions; j++ {
			s, err := c.openSession(nil, st.models[j%len(st.models)])
			if err != nil {
				return st, err
			}
			c.sessions = append(c.sessions, s)
		}
		st.clients = append(st.clients, c)
	}
	st.drive(func(c *client) bool { return len(c.ops) < mixWarmupOps }, nil)
	for _, c := range st.clients {
		c.ops = c.ops[:0]
	}
	if errs := st.settle(); errs > 0 {
		return st, fmt.Errorf("%d warm-up ops failed", errs)
	}
	return st, nil
}

// drive runs every client concurrently until more returns false. The
// clients only send requests and keep the answers; settle checks them.
func (st *serveState) drive(more func(*client) bool, tr *tracer) {
	var wg sync.WaitGroup
	for _, c := range st.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := 0; more(c); i++ {
				opTr := tr
				if i%2 == 1 {
					opTr = nil // traced runs alternate traced and untraced ops
				}
				c.step(opTr)
			}
		}(c)
	}
	wg.Wait()
}

// settle runs every check the clients deferred, each client's in request
// order and the clients in parallel, and returns the number of failed ops so
// far. It runs between segments, so checking costs neither time nor
// allocation inside the measured window.
func (st *serveState) settle() int {
	var wg sync.WaitGroup
	for _, c := range st.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for _, check := range c.checks {
				if err := check(); err != nil {
					c.fail(err)
				}
			}
			clear(c.checks) // release the kept response bodies
			c.checks = c.checks[:0]
		}(c)
	}
	wg.Wait()
	failed := 0
	for _, c := range st.clients {
		failed += c.failed
	}
	return failed
}

// servingPeakRSSMB drives one more segment, after the window, whose answers
// are dropped, and returns the process's peak resident set over it. The
// window keeps each segment's answers until the segment ends, and those
// bodies would outweigh the server's own memory. The set-up's freed heap
// goes back to the OS first, so the peak is the serving one.
func (st *serveState) servingPeakRSSMB() (float64, error) {
	for _, c := range st.clients {
		c.unchecked = true
	}
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return 0, err
	}
	end := time.Now().Add(calEvery)
	st.drive(func(*client) bool { return time.Now().Before(end) }, nil)
	return peakRSSSinceResetMB()
}

// opRecord is one completed request.
type opRecord struct {
	write  bool
	traced bool
	lat    time.Duration
	end    time.Time
}

// clientSession is a session a client holds, mirrored by a local stepper
// that replays every advance so each served row can be checked bit for bit.
// The stepper is made by the session's first deferred check.
type clientSession struct {
	id      string
	model   *serve.Model
	shadow  *sim.Stepper
	emitted bool
}

// client is one closed-loop load generator.
type client struct {
	h         http.Handler
	models    []*serve.Model
	grids     []sweepGrid
	rng       *rand.Rand
	sessions  []*clientSession
	ops       []opRecord
	checks    []func() error // answer checks deferred to settle, in request order
	unchecked bool           // drop answers instead of keeping them for settle
	failed    int
	firstErr  error
	next      int   // position in mixCycle
	advances  int   // advances issued, to rotate through the sessions
	root      int64 // span ID of the traced op in flight, 0 when untraced
}

// later defers an answer check to settle.
func (c *client) later(check func() error) {
	if !c.unchecked {
		c.checks = append(c.checks, check)
	}
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// opKind is a request type of the mix.
type opKind int

const (
	opSweep   opKind = iota // /sweep: one entry, or several when entries > 1
	opEval                  // /eval at one frequency
	opAdvance               // /session/{id}/advance by one chunk
	opChurn                 // DELETE /session/{id}, then POST /session
)

// opSlot is one step of the request cycle.
type opSlot struct {
	kind    opKind
	model   int // index into the served models
	grid    int // index into the sweep grids
	entries int
}

// mixCycle is the request schedule every client walks, starting at its own
// offset. Everything that sets a request's cost — its type, model, grid and
// entry count — is fixed here, so the latency distribution is the same for
// every seed and a median never slides between request types; the seed
// draws the entries, the eval frequency, the waveforms and the churned
// session. Per cycle: 12 reads (6 single-entry and 4 batched sweeps, 2
// evals) and 8 writes (7 advances, 1 delete+create).
//
// No recorded traffic exists to take these proportions from, so they are a
// synthetic choice, not a measured workload. The advance chunk (64 steps at
// dt = 1e-11) is the one `pgbench -exp batch` fuses, and grid 0 is the
// server's default sweep grid. The rest is chosen, for these reasons:
//   - 12 reads to 8 writes: writes cost about 15× a read, so with a read
//     majority the overall median sits well inside the read distribution,
//     and both read_p50_ms and write_p50_ms get thousands of samples a run;
//   - 6 single-entry and 4 batched sweeps of 2–5 entries: both sweep paths,
//     the scalar kernel and the packed multi-entry one, carry weight;
//   - grid 1, 40 points over [1e6, 1e12]: the sweep coalescer merges only
//     same-grid requests, so a second grid keeps some concurrent sweeps
//     apart;
//   - 7 advances and 1 churn: advances are the serving write path; churn
//     keeps session create and delete in the mix without dominating it.
var mixCycle = []opSlot{
	{kind: opSweep, model: 0, grid: 0, entries: 1},
	{kind: opAdvance},
	{kind: opSweep, model: 1, grid: 0, entries: 3},
	{kind: opSweep, model: 1, grid: 1, entries: 1},
	{kind: opAdvance},
	{kind: opEval, model: 0},
	{kind: opSweep, model: 0, grid: 1, entries: 1},
	{kind: opAdvance},
	{kind: opSweep, model: 0, grid: 0, entries: 5},
	{kind: opSweep, model: 1, grid: 0, entries: 1},
	{kind: opAdvance},
	{kind: opEval, model: 1},
	{kind: opSweep, model: 0, grid: 0, entries: 1},
	{kind: opAdvance},
	{kind: opSweep, model: 1, grid: 1, entries: 2},
	{kind: opSweep, model: 1, grid: 1, entries: 1},
	{kind: opAdvance},
	{kind: opSweep, model: 0, grid: 1, entries: 4},
	{kind: opAdvance},
	{kind: opChurn},
}

// step issues the client's next request of the cycle.
func (c *client) step(tr *tracer) {
	slot := mixCycle[c.next%len(mixCycle)]
	c.next++
	c.root = tr.id()
	start := time.Now()
	var err error
	switch slot.kind {
	case opSweep:
		err = c.sweep(tr, c.models[slot.model], c.grids[slot.grid], slot.entries)
	case opEval:
		err = c.eval(tr, c.models[slot.model])
	case opAdvance:
		err = c.advance(tr)
	case opChurn:
		err = c.churn(tr)
	}
	// A traced op's root span covers the client's side of the op: request
	// building and the handler calls, its children.
	tr.add(c.root, 0, c.root, "op", start, time.Now())
	if err != nil {
		c.fail(err)
	}
}

// call times one request through the server's handler. A request that does
// not answer 200 fails at once; checking an answer is deferred to settle.
func (c *client) call(tr *tracer, write bool, method, path string, body []byte) ([]byte, error) {
	t0 := time.Now()
	resp, err := do(c.h, method, path, body)
	t1 := time.Now()
	tr.add(0, c.root, c.root, "serve.handler", t0, t1)
	c.ops = append(c.ops, opRecord{write: write, traced: tr != nil, lat: t1.Sub(t0), end: t1})
	return resp, err
}

func (c *client) sweep(tr *tracer, mm *serve.Model, g sweepGrid, entries int) error {
	req := map[string]any{"model": mm.ID, "wmin": g.wmin, "wmax": g.wmax, "points": g.points}
	var ents []serve.Entry
	for i := 0; i < entries; i++ {
		ents = append(ents, serve.Entry{Row: c.rng.Intn(mm.Outputs), Col: c.rng.Intn(mm.Ports)})
	}
	if entries == 1 {
		req["row"], req["col"] = ents[0].Row, ents[0].Col
	} else {
		req["entries"] = ents
	}
	body, _ := json.Marshal(req)
	resp, err := c.call(tr, false, http.MethodPost, "/sweep", body)
	if err != nil {
		return err
	}
	c.later(func() error { return checkSweepResponse(resp, mm, g, ents) })
	return nil
}

// checkSweepResponse checks every entry of a /sweep answer.
func checkSweepResponse(resp []byte, mm *serve.Model, g sweepGrid, ents []serve.Entry) error {
	var out struct {
		Points  []serve.SweepPoint `json:"points"`
		Entries []serve.EntrySweep `json:"entries"`
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		return fmt.Errorf("decoding /sweep: %w", err)
	}
	if len(ents) == 1 {
		out.Entries = []serve.EntrySweep{{Row: ents[0].Row, Col: ents[0].Col, Points: out.Points}}
	}
	if len(out.Entries) != len(ents) {
		return fmt.Errorf("/sweep returned %d entries, want %d", len(out.Entries), len(ents))
	}
	for i, e := range ents {
		if err := checkSweep(mm, e, g.omegas, out.Entries[i].Points); err != nil {
			return err
		}
	}
	return nil
}

// checkSweep requires the served points to be bit-equal to a direct
// evaluation of the same model. A request served alone runs the scalar
// ModalSystem kernel and one coalesced with others the batched ModalPacked
// kernel; the two differ in the last bit, so either is accepted.
func checkSweep(m *serve.Model, e serve.Entry, omegas []float64, pts []serve.SweepPoint) error {
	if len(pts) != len(omegas) {
		return fmt.Errorf("sweep (%d,%d): %d points, want %d", e.Row, e.Col, len(pts), len(omegas))
	}
	scalar := make([]complex128, len(omegas))
	if err := m.Modal.SweepEntryInto(scalar, e.Row, e.Col, omegas); err != nil {
		return err
	}
	if sweepEqual(pts, omegas, scalar) {
		return nil
	}
	packed := make([]complex128, len(omegas))
	if err := m.Packed.SweepEntriesInto(packed, [][2]int{{e.Row, e.Col}}, omegas); err != nil {
		return err
	}
	if sweepEqual(pts, omegas, packed) {
		return nil
	}
	return fmt.Errorf("sweep (%d,%d) of %s differs from direct modal evaluation", e.Row, e.Col, m.ID)
}

func sweepEqual(pts []serve.SweepPoint, omegas []float64, h []complex128) bool {
	for k, p := range pts {
		if p.Omega != omegas[k] || p.Re != real(h[k]) || p.Im != imag(h[k]) || p.Mag != cmplx.Abs(h[k]) {
			return false
		}
	}
	return true
}

func (c *client) eval(tr *tracer, mm *serve.Model) error {
	omega := probeOmegas[c.rng.Intn(len(probeOmegas))]
	body, _ := json.Marshal(map[string]any{"model": mm.ID, "omegas": []float64{omega}})
	resp, err := c.call(tr, false, http.MethodPost, "/eval", body)
	if err != nil {
		return err
	}
	c.later(func() error { return checkEvalResponse(resp, mm, omega) })
	return nil
}

// checkEvalResponse checks a one-frequency /eval answer.
func checkEvalResponse(resp []byte, mm *serve.Model, omega float64) error {
	var out struct {
		Points []struct {
			Omega float64        `json:"omega"`
			H     [][][2]float64 `json:"h"`
		} `json:"points"`
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		return fmt.Errorf("decoding /eval: %w", err)
	}
	want, err := mm.Modal.Eval(complex(0, omega))
	if err != nil {
		return err
	}
	if len(out.Points) != 1 || !evalEqual(out.Points[0].H, want) {
		return fmt.Errorf("/eval of %s at ω=%g differs from direct modal evaluation", mm.ID, omega)
	}
	return nil
}

func evalEqual(h [][][2]float64, want *dense.Mat[complex128]) bool {
	if len(h) != want.Rows {
		return false
	}
	for i, row := range h {
		if len(row) != want.Cols {
			return false
		}
		for j, z := range row {
			w := want.At(i, j)
			if z[0] != real(w) || z[1] != imag(w) {
				return false
			}
		}
	}
	return true
}

// waveform draws a drive from the client's seed: a step, a sine or a pulse
// train. It returns the wire spec and the identical local source.
func (c *client) waveform() (map[string]any, sim.Source) {
	a := 1e-3 * (0.5 + c.rng.Float64())
	switch c.rng.Intn(3) {
	case 0:
		return map[string]any{"kind": "step", "amplitude": a}, sim.Step{Amplitude: a}
	case 1:
		f := 1e8 * (1 + 9*c.rng.Float64())
		return map[string]any{"kind": "sine", "amplitude": a, "freq": f}, sim.Sine{Amplitude: a, Freq: f}
	default:
		return map[string]any{"kind": "pulse", "high": a, "rise": 1e-10, "fall": 1e-10, "width": 2e-10, "period": 5e-10},
			sim.Pulse{High: a, Rise: 1e-10, Fall: 1e-10, Width: 2e-10, Period: 5e-10}
	}
}

// advance moves the client's next session forward by one 64-step chunk
// under a new waveform; its check replays the chunk locally.
func (c *client) advance(tr *tracer) error {
	s := c.sessions[c.advances%len(c.sessions)]
	c.advances++
	spec, src := c.waveform()
	body, _ := json.Marshal(map[string]any{"steps": ladderSteps, "input": spec})
	resp, err := c.call(tr, true, http.MethodPost, "/session/"+s.id+"/advance", body)
	if err != nil {
		return err
	}
	c.later(func() error { return s.replay(resp, src) })
	return nil
}

// replay advances the local stepper by the chunk the server streamed in
// resp and checks every row bit for bit.
func (s *clientSession) replay(resp []byte, src sim.Source) error {
	if s.shadow == nil {
		return fmt.Errorf("advance of %s: no local stepper", s.id)
	}
	input := sim.UniformInput(src)
	var want []sim.Result
	if !s.emitted {
		y0, err := s.shadow.Output(input)
		if err != nil {
			return err
		}
		want = append(want, sim.Result{T: []float64{s.shadow.Time()}, Y: [][]float64{y0}})
		s.emitted = true
	}
	r, err := s.shadow.Advance(ladderSteps, input)
	if err != nil {
		return err
	}
	want = append(want, *r)
	sc := bufio.NewScanner(bytes.NewReader(resp))
	sc.Buffer(nil, 1<<22)
	for _, w := range want {
		for i := range w.T {
			var row struct {
				T     float64   `json:"t"`
				Y     []float64 `json:"y"`
				Error string    `json:"error"`
			}
			if !sc.Scan() {
				return fmt.Errorf("advance of %s: stream ended early", s.id)
			}
			if err := json.Unmarshal(sc.Bytes(), &row); err != nil || row.Error != "" {
				return fmt.Errorf("advance of %s: bad row %q: %v", s.id, sc.Bytes(), err)
			}
			if row.T != w.T[i] || !floatsEqual(row.Y, w.Y[i]) {
				return fmt.Errorf("advance of %s: row at t=%g differs from local replay", s.id, row.T)
			}
		}
	}
	if sc.Scan() {
		return fmt.Errorf("advance of %s: extra rows", s.id)
	}
	return nil
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// openSession creates a session on m (a write). The session's ID is read at
// once, since the next requests need it; its local mirror is deferred.
func (c *client) openSession(tr *tracer, m *serve.Model) (*clientSession, error) {
	body, _ := json.Marshal(map[string]any{"model": m.ID, "dt": ladderDt})
	resp, err := c.call(tr, true, http.MethodPost, "/session", body)
	if err != nil {
		return nil, err
	}
	var info struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(resp, &info); err != nil {
		return nil, fmt.Errorf("decoding session info: %w", err)
	}
	s := &clientSession{id: info.Session, model: m}
	c.later(func() error {
		var err error
		s.shadow, err = sim.NewStepper(m.Modal, sim.StepperOptions{Dt: ladderDt})
		return err
	})
	return s, nil
}

// churn deletes a randomly drawn session of the client's and opens a
// replacement on the same model; both requests are writes.
func (c *client) churn(tr *tracer) error {
	i := c.rng.Intn(len(c.sessions))
	old := c.sessions[i]
	if _, err := c.call(tr, true, http.MethodDelete, "/session/"+old.id, nil); err != nil {
		return err
	}
	s, err := c.openSession(tr, old.model)
	if err != nil {
		return err
	}
	c.sessions[i] = s
	return nil
}

// scrapeMetrics are the per-layer metrics read from the server's /metrics.
var scrapeMetrics = []struct{ name, unit string }{
	{"serve.engine_wait_us", "us"},
	{"serve.engine_run_us", "us"},
	{"serve.sweep_coalesced_frac", "ratio"},
	{"serve.sweep_batch_mean", "count"},
	{"serve.session_grouped_frac", "ratio"},
	{"serve.session_group_mean", "count"},
	{"serve.evals_factored_frac", "ratio"},
	{"serve.response_bytes_per_op", "bytes"},
}

// scrape reads the server's /metrics.
func scrape(h http.Handler) (*obs.Scrape, error) {
	body, err := do(h, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	return obs.ParseText(bytes.NewReader(body))
}

// scrapeDelta reports the scrape-derived per-layer metrics over the window
// between two scrapes.
func scrapeDelta(res *result, a, b *obs.Scrape) {
	d := func(name string) float64 {
		va, _ := a.Value(name)
		vb, _ := b.Value(name)
		return vb - va
	}
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	requests := 0.0
	for _, s := range b.Samples {
		if s.Name == "pgserve_http_requests_total" {
			requests += s.Value
		}
	}
	for _, s := range a.Samples {
		if s.Name == "pgserve_http_requests_total" {
			requests -= s.Value
		}
	}
	sweeps := d("pgserve_sweep_batch_size_sum")
	chunks := d("pgserve_session_group_size_sum")
	modal, factored := d("pgserve_evals_modal_total"), d("pgserve_evals_factored_total")
	put(res, "serve.engine_wait_us", 1e6*ratio(d("pgserve_engine_task_wait_seconds_sum"), d("pgserve_engine_task_wait_seconds_count")), "us")
	put(res, "serve.engine_run_us", 1e6*ratio(d("pgserve_engine_task_run_seconds_sum"), d("pgserve_engine_task_run_seconds_count")), "us")
	put(res, "serve.sweep_coalesced_frac", ratio(d("pgserve_sweep_coalesced_requests_total"), sweeps), "ratio")
	put(res, "serve.sweep_batch_mean", ratio(sweeps, d("pgserve_sweep_batch_size_count")), "count")
	put(res, "serve.session_grouped_frac", ratio(d("pgserve_session_grouped_sessions_total"), chunks), "ratio")
	put(res, "serve.session_group_mean", ratio(chunks, d("pgserve_session_group_size_count")), "count")
	put(res, "serve.evals_factored_frac", ratio(factored, modal+factored), "ratio")
	put(res, "serve.response_bytes_per_op", ratio(d("pgserve_http_response_bytes_total"), requests), "bytes")
}

// runServeMix is a closed loop of two clients against one in-process
// server. End-to-end numbers: median latency over every request, read and
// write medians, and throughput, allocation and tail latency as medians
// over the window's segments. A segment's tail is its highest percentile
// with ten samples beyond it (about p99.3 at 1,100 requests per second).
func runServeMix(cfg runConfig, res *result, rep *report) error {
	st, rawSetup, setup, err := timedSetup(func() (*serveState, error) { return setupServe(cfg.seed) },
		func(s *serveState) { s.srv.Close() })
	if err != nil {
		return err
	}
	defer st.srv.Close()
	rep.SetupRuns = setupRuns
	rep.SetupRSSMB = peakRSSMB()

	var tr *tracer
	var before *obs.Scrape
	var builds []*reduced
	if cfg.trace {
		// The reduction layers run only in set-up here: trace one build of
		// each served model, plus a Krylov re-drive of each.
		tr = newTracer()
		for _, k := range serveModels {
			spec := benchmarkSpec(k.bench, k.scale, nil)
			runtime.GC()
			r, err := reduceOp(spec, tr)
			if err != nil {
				return err
			}
			want, err := tableICounts(r, spec.moments)
			if err != nil {
				return err
			}
			if err := redrive(spec, tr, want); err != nil {
				return err
			}
			builds = append(builds, r)
		}
		if before, err = scrape(st.h); err != nil {
			return err
		}
	}

	// The window runs as fixed segments of calEvery. After each one the
	// clients pause while their answers are checked, the heap is collected
	// and the host's speed is calibrated on an otherwise idle process; the
	// segment's requests are normalized by that calibration. Throughput,
	// allocation and tail latency are medians over segments, so one burst of
	// host CPU steal or one collection moves one segment, not the result.
	var all, rawAll, reads, writes, traced, untraced, cals samples
	var rates, allocs, tails, pcts []float64
	var gcCPU, cpu float64
	mark := make([]int, len(st.clients))
	steal := startSteal()
	failed := 0
	for i := 0; i < int(cfg.window/calEvery); i++ {
		t0 := time.Now()
		end := t0.Add(calEvery)
		r0 := readRuntime()
		st.drive(func(*client) bool { return time.Now().Before(end) }, tr)
		elapsed := time.Since(t0)
		r1 := readRuntime()
		gcCPU += r1.gcCPU - r0.gcCPU
		cpu += r1.totalCPU - r0.totalCPU
		failed = st.settle()
		runtime.GC()
		cal := calibrate()
		cals = append(cals, cal)
		var seg samples
		for j, c := range st.clients {
			for _, o := range c.ops[mark[j]:] {
				l := norm(o.lat, cal)
				seg = append(seg, l)
				all = append(all, l)
				rawAll = append(rawAll, o.lat)
				if o.write {
					writes = append(writes, l)
				} else {
					reads = append(reads, l)
				}
				if o.traced {
					traced = append(traced, l)
				} else {
					untraced = append(untraced, l)
				}
			}
			mark[j] = len(c.ops)
		}
		if len(seg) == 0 {
			continue
		}
		rates = append(rates, float64(len(seg))/sec(norm(elapsed, cal)))
		allocs = append(allocs, float64(r1.allocBytes-r0.allocBytes)/1e6/float64(len(seg)))
		tail, pct := seg.tail()
		tails = append(tails, ms(tail))
		pcts = append(pcts, pct)
	}
	rep.Env.StealFrac = steal.frac()
	rep.CalMS = ms(cals.median())
	for _, c := range st.clients {
		if c.firstErr != nil && rep.FirstError == "" {
			rep.FirstError = c.firstErr.Error()
		}
	}
	res.Attempted = len(all)
	res.Failed = failed
	res.Correct = true
	rep.Samples = len(all)
	if len(reads) == 0 || len(writes) == 0 {
		return fmt.Errorf("window too short: %d reads, %d writes", len(reads), len(writes))
	}

	if !cfg.trace {
		rep.TailPct = medianFloat(pcts)
		rep.Raw = map[string]float64{"setup_s": sec(rawSetup), "latency_p50_ms": ms(rawAll.median())}
		put(res, "setup_s", sec(setup), "s")
		put(res, "latency_p50_ms", ms(all.median()), "ms")
		put(res, "latency_tail_ms", medianFloat(tails), "ms")
		put(res, "ops_per_s", medianFloat(rates), "1/s")
		put(res, "read_p50_ms", ms(reads.median()), "ms")
		put(res, "write_p50_ms", ms(writes.median()), "ms")
		put(res, "alloc_mb_per_op", medianFloat(allocs), "MB")
		peakRSS, err := st.servingPeakRSSMB()
		if err != nil {
			return err
		}
		put(res, "peak_rss_mb", peakRSS, "MB")
		e, err := st.romRelErr()
		if err != nil {
			return err
		}
		if e > maxROMRelErr {
			rep.failure(res, fmt.Errorf("served ROM error %g exceeds %g", e, maxROMRelErr))
		}
		put(res, "rom_rel_err", e, "ratio")
		return nil
	}

	after, err := scrape(st.h)
	if err != nil {
		return err
	}
	scrapeDelta(res, before, after)
	tr.finish()
	if err := tr.write(traceFile(rep.Workload, cfg.seed)); err != nil {
		return err
	}
	for _, name := range []string{"grid.build", "ward.partition", "ward.schur", "sparse.factor",
		"krylov.phase", "lti.modalize", "lti.pack", "krylov.solve", "krylov.ortho", "krylov.congruence"} {
		var total time.Duration
		for _, d := range tr.perOp(name) {
			total += d
		}
		put(res, name+"_s", sec(total), "s")
	}
	moments := make([]int, len(builds))
	for i, k := range serveModels {
		moments[i] = benchmarkSpec(k.bench, k.scale, nil).moments
	}
	reductionCounts(res, builds, moments)
	var self time.Duration
	for _, d := range tr.selfTimes("core.reduce") {
		self += d
	}
	put(res, "core.reduce_self_s", sec(self), "s")
	put(res, "runtime.gc_cpu_frac", gcCPU/cpu, "ratio")
	put(res, "trace.overhead_frac", overhead(traced, untraced), "ratio")
	return runLadder(st.models[0], st.h, res.Metrics)
}
