package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// advanceSession POSTs one advance and decodes the NDJSON stream.
func advanceSession(t *testing.T, base, id string, steps int, input sourceSpec) []transientRow {
	t.Helper()
	resp := postJSON(t, base+"/session/"+id+"/advance", sessionAdvanceRequest{Steps: steps, Input: input})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/advance status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("advance content type = %q", ct)
	}
	var rows []transientRow
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var row transientRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("row %d: %v (%s)", len(rows), err, sc.Text())
		}
		rows = append(rows, row)
	}
	return rows
}

// TestSessionMatchesTransient is the tentpole acceptance check: a session
// advanced in N chunks must stream exactly the rows a single /transient run
// returns, to ≤1e-12.
func TestSessionMatchesTransient(t *testing.T) {
	_, ts := newTestServer(t)
	info := reduceTestModel(t, ts)
	input := sourceSpec{Kind: "pulse", Low: 0, High: 1e-3, Delay: 2e-10, Rise: 1e-10, Fall: 1e-10, Width: 5e-10, Period: 2e-9}
	const dt, steps = 1e-10, 40

	resp := postJSON(t, ts.URL+"/transient", transientRequest{
		Model: info.ID, Dt: dt, T: dt * steps, Input: input,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/transient status = %d", resp.StatusCode)
	}
	ref := decode[struct {
		T []float64   `json:"t"`
		Y [][]float64 `json:"y"`
	}](t, resp)

	sess := decode[sessionInfo](t, postJSON(t, ts.URL+"/session", sessionCreateRequest{Model: info.ID, Dt: dt}))
	if sess.Session == "" || sess.Model != info.ID || sess.Step != 0 {
		t.Fatalf("bad session info: %+v", sess)
	}
	var rows []transientRow
	for _, chunk := range []int{13, 20, 7} { // 40 steps total, uneven chunks
		rows = append(rows, advanceSession(t, ts.URL, sess.Session, chunk, input)...)
	}
	if len(rows) != steps+1 {
		t.Fatalf("streamed %d rows, want %d (incl. t=0)", len(rows), steps+1)
	}
	for k, row := range rows {
		if math.Abs(row.T-ref.T[k]) > 1e-18 {
			t.Fatalf("row %d: t=%g, want %g", k, row.T, ref.T[k])
		}
		for r := range row.Y {
			if d := math.Abs(row.Y[r] - ref.Y[k][r]); d > 1e-12*(1+math.Abs(ref.Y[k][r])) {
				t.Fatalf("row %d output %d: session %g vs transient %g (Δ=%g)", k, r, row.Y[r], ref.Y[k][r], d)
			}
		}
	}

	st := decode[sessionInfo](t, getResp(t, ts.URL+"/session/"+sess.Session))
	if st.Step != steps || st.Advances != 3 || st.Rows != int64(steps+1) {
		t.Fatalf("session state after 3 advances: %+v", st)
	}
	if math.Abs(st.Time-dt*steps) > 1e-18 {
		t.Fatalf("session time %g, want %g", st.Time, dt*steps)
	}
}

func getResp(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return resp
}

// TestSessionWaveformSwitch changes the input spec mid-session: the first
// advance runs under a DC source, the second under a PWL source describing
// the numerically identical waveform. If the integrator state carries over
// (no restart, no re-zeroing), the concatenated rows must equal one
// uninterrupted /transient run under the DC drive to ≤1e-12.
func TestSessionWaveformSwitch(t *testing.T) {
	_, ts := newTestServer(t)
	info := reduceTestModel(t, ts)
	const dt, steps = 1e-10, 40
	dc := sourceSpec{Kind: "dc", Value: 1e-3}
	samePWL := sourceSpec{Kind: "pwl", T: []float64{0, 1}, V: []float64{1e-3, 1e-3}}

	resp := postJSON(t, ts.URL+"/transient", transientRequest{Model: info.ID, Dt: dt, T: dt * steps, Input: dc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/transient status = %d", resp.StatusCode)
	}
	ref := decode[struct {
		T []float64   `json:"t"`
		Y [][]float64 `json:"y"`
	}](t, resp)

	sess := decode[sessionInfo](t, postJSON(t, ts.URL+"/session", sessionCreateRequest{Model: info.ID, Dt: dt}))
	var rows []transientRow
	rows = append(rows, advanceSession(t, ts.URL, sess.Session, 20, dc)...)
	rows = append(rows, advanceSession(t, ts.URL, sess.Session, 20, samePWL)...)
	if len(rows) != steps+1 {
		t.Fatalf("streamed %d rows, want %d", len(rows), steps+1)
	}
	for k, row := range rows {
		for r := range row.Y {
			if d := math.Abs(row.Y[r] - ref.Y[k][r]); d > 1e-12*(1+math.Abs(ref.Y[k][r])) {
				t.Fatalf("row %d output %d: switched-drive session %g vs single run %g — state did not carry over", k, r, row.Y[r], ref.Y[k][r])
			}
		}
	}

	// A genuinely different second drive must diverge from the single run —
	// i.e. the switch is honored, not ignored.
	sess2 := decode[sessionInfo](t, postJSON(t, ts.URL+"/session", sessionCreateRequest{Model: info.ID, Dt: dt}))
	other := sourceSpec{Kind: "sine", Offset: 1e-3, Amplitude: 5e-4, Freq: 5e8, Delay: 20 * dt}
	rows2 := advanceSession(t, ts.URL, sess2.Session, 20, dc)
	rows2 = append(rows2, advanceSession(t, ts.URL, sess2.Session, 20, other)...)
	diverged := false
	for k := 21; k < len(rows2) && !diverged; k++ {
		for r := range rows2[k].Y {
			if rows2[k].Y[r] != ref.Y[k][r] {
				diverged = true
				break
			}
		}
	}
	if !diverged {
		t.Fatal("switching to a different waveform changed nothing")
	}
}

// TestSessionLifecycle: create → state → delete → gone, with manager stats
// tracking each transition.
func TestSessionLifecycle(t *testing.T) {
	srv, ts := newTestServer(t)
	info := reduceTestModel(t, ts)
	sess := decode[sessionInfo](t, postJSON(t, ts.URL+"/session", sessionCreateRequest{Model: info.ID, Dt: 1e-10}))

	if st := srv.Sessions().Stats(); st.Active != 1 || st.Created != 1 {
		t.Fatalf("stats after create: %+v", st)
	}
	resp := postJSON(t, ts.URL+"/session", sessionCreateRequest{ModelKey: ModelKey{Benchmark: "ckt1", Scale: 0.1}, Dt: 1e-10})
	bk := decode[sessionInfo](t, resp)
	if bk.Model != info.ID {
		t.Fatalf("benchmark+scale session resolved %q, want %q", bk.Model, info.ID)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/session/"+sess.Session, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d", dresp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/session/" + sess.Session); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET deleted session status = %d, want 404", resp.StatusCode)
		}
	}
	aresp := postJSON(t, ts.URL+"/session/"+sess.Session+"/advance", sessionAdvanceRequest{Steps: 5, Input: sourceSpec{Kind: "dc", Value: 1}})
	aresp.Body.Close()
	if aresp.StatusCode != http.StatusNotFound {
		t.Fatalf("advance on deleted session status = %d, want 404", aresp.StatusCode)
	}
	if st := srv.Sessions().Stats(); st.Active != 1 || st.Deleted != 1 {
		t.Fatalf("stats after delete: %+v", st)
	}
}

// TestSessionLimitAndExpiry: the bound denies with 429; idle sessions are
// evicted and report as expired.
func TestSessionLimitAndExpiry(t *testing.T) {
	srv := New(Config{Workers: 2, MaxSessions: 2, SessionIdle: 80 * time.Millisecond})
	ts := newServerForTest(t, srv)
	info := reduceTestModel(t, ts)

	mk := func() *http.Response {
		return postJSON(t, ts.URL+"/session", sessionCreateRequest{Model: info.ID, Dt: 1e-10})
	}
	a := decode[sessionInfo](t, mk())
	decode[sessionInfo](t, mk())
	resp := mk()
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit create status = %d, want 429", resp.StatusCode)
	}
	if st := srv.Sessions().Stats(); st.Denied != 1 {
		t.Fatalf("denied = %d, want 1", st.Denied)
	}

	// Idle eviction frees both slots: polls avoid timing flakes.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Sessions().Stats().Active > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sessions not evicted: %+v", srv.Sessions().Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if resp, err := http.Get(ts.URL + "/session/" + a.Session); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET expired session status = %d, want 404", resp.StatusCode)
		}
	}
	if st := srv.Sessions().Stats(); st.Expired < 2 {
		t.Fatalf("expired = %d, want ≥ 2", st.Expired)
	}
	// The freed slots admit new sessions again.
	decode[sessionInfo](t, mk())
}

func newServerForTest(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

// TestSessionAdvanceConflict: a session whose advance is in flight rejects a
// second advance with 409 instead of queueing behind it.
func TestSessionAdvanceConflict(t *testing.T) {
	srv, ts := newTestServer(t)
	info := reduceTestModel(t, ts)
	si := decode[sessionInfo](t, postJSON(t, ts.URL+"/session", sessionCreateRequest{Model: info.ID, Dt: 1e-10}))
	sess, err := srv.Sessions().Get(si.Session)
	if err != nil {
		t.Fatal(err)
	}
	sess.mu.Lock() // simulate an advance holding the integrator
	resp := postJSON(t, ts.URL+"/session/"+si.Session+"/advance", sessionAdvanceRequest{Steps: 5, Input: sourceSpec{Kind: "dc", Value: 1}})
	resp.Body.Close()
	sess.mu.Unlock()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("concurrent advance status = %d, want 409", resp.StatusCode)
	}
}

// TestSessionValidation covers the request-shape rejections.
func TestSessionValidation(t *testing.T) {
	_, ts := newTestServer(t)
	info := reduceTestModel(t, ts)
	si := decode[sessionInfo](t, postJSON(t, ts.URL+"/session", sessionCreateRequest{Model: info.ID, Dt: 1e-10}))

	cases := []struct {
		name string
		path string
		body any
		want int
	}{
		{"create without model", "/session", sessionCreateRequest{Dt: 1e-10}, 400},
		{"create bad dt", "/session", sessionCreateRequest{Model: info.ID, Dt: 0}, 400},
		{"create bad method", "/session", sessionCreateRequest{Model: info.ID, Dt: 1e-10, Method: "rk4"}, 400},
		{"create unknown model", "/session", sessionCreateRequest{Model: "nope", Dt: 1e-10}, 404},
		{"advance zero steps", "/session/" + si.Session + "/advance", sessionAdvanceRequest{Steps: 0, Input: sourceSpec{Kind: "dc"}}, 400},
		{"advance too many steps", "/session/" + si.Session + "/advance", sessionAdvanceRequest{Steps: 1 << 30, Input: sourceSpec{Kind: "dc"}}, 400},
		{"advance bad source", "/session/" + si.Session + "/advance", sessionAdvanceRequest{Steps: 5, Input: sourceSpec{Kind: "laser"}}, 400},
		{"advance bad port", "/session/" + si.Session + "/advance", sessionAdvanceRequest{Steps: 5, Input: sourceSpec{Kind: "dc"}, Ports: []int{9999}}, 400},
		{"advance unknown session", "/session/nope/advance", sessionAdvanceRequest{Steps: 5, Input: sourceSpec{Kind: "dc"}}, 404},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+tc.path, tc.body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestSessionAdvanceCancellation: a client that disconnects mid-stream stops
// the integrator within one chunk, the abort is counted, and the session
// survives at its last completed position. The single pool worker is parked
// on a barrier task so the advance's first chunk provably queues until after
// the disconnect — the timing is deterministic, not a race against a fast
// integrator.
func TestSessionAdvanceCancellation(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := newServerForTest(t, srv)
	info := reduceTestModel(t, ts)
	si := decode[sessionInfo](t, postJSON(t, ts.URL+"/session", sessionCreateRequest{Model: info.ID, Dt: 1e-10}))

	started := make(chan struct{})
	release := make(chan struct{})
	barrierDone := make(chan struct{})
	go func() {
		defer close(barrierDone)
		srv.eng.MapCtx(context.Background(), 1, func(int) error {
			close(started)
			<-release
			return nil
		})
	}()
	<-started // the only worker is now occupied

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(sessionAdvanceRequest{Steps: 9000, Input: sourceSpec{Kind: "dc", Value: 1e-3}})
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/session/"+si.Session+"/advance", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// The t = 0 row is emitted before any pool work; the first chunk is
	// queued behind the barrier. Read the row, then vanish.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no first row")
	}
	cancel()
	resp.Body.Close()
	close(release)
	<-barrierDone

	deadline := time.Now().Add(10 * time.Second)
	for srv.Sessions().Stats().CanceledAdvances == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("advance never observed the disconnect: %+v", srv.Sessions().Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := decode[sessionInfo](t, getResp(t, ts.URL+"/session/"+si.Session))
	if st.Step >= 9000 {
		t.Fatalf("advance ran to completion (%d steps) despite disconnect", st.Step)
	}
	// The session is still usable after the aborted advance.
	rows := advanceSession(t, ts.URL, si.Session, 5, sourceSpec{Kind: "dc", Value: 1e-3})
	if len(rows) != 5 {
		t.Fatalf("post-abort advance returned %d rows, want 5", len(rows))
	}
}

// TestSessionClosedMidAdvance: deleting (or evicting) a session while an
// advance is streaming truncates the stream with an explicit error line —
// a still-connected client can tell truncation from completion. The single
// pool worker is parked so the delete provably lands before the first chunk.
func TestSessionClosedMidAdvance(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := newServerForTest(t, srv)
	info := reduceTestModel(t, ts)
	si := decode[sessionInfo](t, postJSON(t, ts.URL+"/session", sessionCreateRequest{Model: info.ID, Dt: 1e-10}))

	started := make(chan struct{})
	release := make(chan struct{})
	go srv.eng.MapCtx(context.Background(), 1, func(int) error { close(started); <-release; return nil })
	<-started

	type advanceOut struct {
		lines []string
		err   error
	}
	done := make(chan advanceOut, 1)
	go func() {
		resp := postJSON(t, ts.URL+"/session/"+si.Session+"/advance",
			sessionAdvanceRequest{Steps: 500, Input: sourceSpec{Kind: "dc", Value: 1e-3}})
		defer resp.Body.Close()
		var out advanceOut
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			out.lines = append(out.lines, sc.Text())
		}
		out.err = sc.Err()
		done <- out
	}()

	// Wait until the t=0 row is out (the advance is inside its chunk loop,
	// queued behind the barrier), then delete the session and free the pool.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s, err := srv.Sessions().Get(si.Session)
		if err != nil {
			t.Fatal(err)
		}
		if s.rows.Load() >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("t=0 row never streamed")
		}
		time.Sleep(time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/session/"+si.Session, nil)
	if dresp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		dresp.Body.Close()
	}
	close(release) // free the worker: the queued chunk runs, then the loop sees closed

	out := <-done
	if out.err != nil {
		t.Fatalf("stream read: %v", out.err)
	}
	if len(out.lines) == 0 {
		t.Fatal("no lines streamed")
	}
	last := out.lines[len(out.lines)-1]
	var errLine map[string]string
	if err := json.Unmarshal([]byte(last), &errLine); err != nil || errLine["error"] == "" {
		t.Fatalf("last line %q is not the truncation error marker", last)
	}
	if n := len(out.lines); n-1 >= 500 {
		t.Fatalf("advance streamed %d data rows despite mid-advance delete", n-1)
	}
}

// TestSessionStress hammers one model with concurrent session create /
// advance / delete under a short idle timeout so janitor eviction races the
// traffic — the -race exercise the CI stress step pins.
func TestSessionStress(t *testing.T) {
	srv := New(Config{Workers: 4, MaxSessions: 16, SessionIdle: 60 * time.Millisecond})
	ts := newServerForTest(t, srv)
	info := reduceTestModel(t, ts)

	var advanced atomic.Int64
	var wg sync.WaitGroup
	stop := time.Now().Add(1 * time.Second)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for time.Now().Before(stop) {
				resp := postJSON(t, ts.URL+"/session", sessionCreateRequest{Model: info.ID, Dt: 1e-10})
				if resp.StatusCode == http.StatusTooManyRequests {
					resp.Body.Close()
					continue
				}
				si := decode[sessionInfo](t, resp)
				for i := 0; i < 3; i++ {
					aresp := postJSON(t, ts.URL+"/session/"+si.Session+"/advance",
						sessionAdvanceRequest{Steps: 64 + g, Input: sourceSpec{Kind: "dc", Value: 1}})
					if aresp.StatusCode == http.StatusOK {
						advanced.Add(1)
					}
					aresp.Body.Close()
					if g%2 == 0 {
						time.Sleep(time.Duration(g) * 5 * time.Millisecond) // let idle eviction race
					}
				}
				if g%3 == 0 {
					req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/session/"+si.Session, nil)
					if dresp, err := http.DefaultClient.Do(req); err == nil {
						dresp.Body.Close()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if advanced.Load() == 0 {
		t.Fatal("stress made no successful advances")
	}
	st := srv.Sessions().Stats()
	if st.Created == 0 || st.StepsTotal == 0 {
		t.Fatalf("implausible stress stats: %+v", st)
	}
	if st.Active > 16 {
		t.Fatalf("session bound violated: %d active", st.Active)
	}
}

// TestConcurrentAdvancesMatchSteppers advances several sessions on one model
// at once through the handler, on a one-worker and a four-worker server.
// Their chunks interleave on the engine, so any state shared between
// session advances would show; every streamed row must equal the row an
// independent sim.Stepper produces under ==.
func TestConcurrentAdvancesMatchSteppers(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			srv := New(Config{Workers: workers})
			ts := newServerForTest(t, srv)
			info := reduceTestModel(t, ts)
			m, err := srv.repo.Lookup(info.ID)
			if err != nil {
				t.Fatal(err)
			}
			const sessions, dt = 6, 1e-10
			steps := []int{150, 64, 97} // multi-chunk and ragged advances
			type run struct {
				id     string
				method string
				spec   sourceSpec
				rows   []transientRow
				err    error
			}
			runs := make([]*run, sessions)
			for i := range runs {
				r := &run{
					method: []string{"be", "trap"}[i%2],
					spec:   sourceSpec{Kind: "sine", Amplitude: 1e-3 * float64(1+i), Freq: 1e9 * float64(1+i%3)},
				}
				r.id = decode[sessionInfo](t, postJSON(t, ts.URL+"/session",
					sessionCreateRequest{Model: info.ID, Dt: dt, Method: r.method})).Session
				runs[i] = r
			}
			var wg sync.WaitGroup
			for _, r := range runs {
				wg.Add(1)
				go func(r *run) {
					defer wg.Done()
					for _, n := range steps {
						rows, err := postAdvance(ts.URL, r.id, n, r.spec)
						if err != nil {
							r.err = err
							return
						}
						r.rows = append(r.rows, rows...)
					}
				}(r)
			}
			wg.Wait()

			for i, r := range runs {
				if r.err != nil {
					t.Fatalf("session %d: %v", i, r.err)
				}
				method, err := parseMethod(r.method)
				if err != nil {
					t.Fatal(err)
				}
				twin, err := sim.NewStepper(m.Modal, sim.StepperOptions{Method: method, Dt: dt})
				if err != nil {
					t.Fatal(err)
				}
				input, err := buildInput(&r.spec, nil, m.Ports)
				if err != nil {
					t.Fatal(err)
				}
				y0, err := twin.Output(input)
				if err != nil {
					t.Fatal(err)
				}
				want := []transientRow{{T: twin.Time(), Y: y0}}
				for _, n := range steps {
					res, err := twin.Advance(n, input)
					if err != nil {
						t.Fatal(err)
					}
					for k := range res.T {
						want = append(want, transientRow{T: res.T[k], Y: res.Y[k]})
					}
				}
				if len(r.rows) != len(want) {
					t.Fatalf("session %d streamed %d rows, want %d", i, len(r.rows), len(want))
				}
				for k, row := range r.rows {
					if row.T != want[k].T || len(row.Y) != len(want[k].Y) {
						t.Fatalf("session %d row %d: t=%v with %d outputs, want t=%v with %d", i, k,
							row.T, len(row.Y), want[k].T, len(want[k].Y))
					}
					for o := range row.Y {
						if row.Y[o] != want[k].Y[o] {
							t.Fatalf("session %d row %d output %d: served %v, stepper %v", i, k, o, row.Y[o], want[k].Y[o])
						}
					}
				}
			}
		})
	}
}

// postAdvance is advanceSession for goroutines other than the test's own:
// it reports failures as errors instead of failing the test.
func postAdvance(base, id string, steps int, input sourceSpec) ([]transientRow, error) {
	body, err := json.Marshal(sessionAdvanceRequest{Steps: steps, Input: input})
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(base+"/session/"+id+"/advance", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/advance status = %d", resp.StatusCode)
	}
	var rows []transientRow
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var row transientRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return nil, fmt.Errorf("row %d: %v (%s)", len(rows), err, sc.Text())
		}
		rows = append(rows, row)
	}
	return rows, sc.Err()
}
