package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestBodyTooLarge: bodies over the MaxBodyBytes cap are rejected with 413,
// not read to completion.
func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t)
	const head, tail = `{"benchmark":"`, `"}`
	big := head + strings.Repeat("x", int(MaxBodyBytes)+1-len(head)-len(tail)) + tail
	resp, err := http.Post(ts.URL+"/reduce", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", resp.StatusCode)
	}
	// A within-limit request still serves.
	resp, err = http.Post(ts.URL+"/reduce", "application/json",
		strings.NewReader(`{"benchmark":"ckt1","scale":0.1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("normal body status = %d, want 200", resp.StatusCode)
	}
}

// TestBodyTrailingGarbage: bytes after the JSON document are a client error,
// whether they are garbage or a second JSON value.
func TestBodyTrailingGarbage(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []string{
		`{"benchmark":"ckt1","scale":0.1} trailing`,
		`{"benchmark":"ckt1","scale":0.1}{"benchmark":"ckt2"}`,
		`{"benchmark":"ckt1","scale":0.1}]`,
	} {
		resp, err := http.Post(ts.URL+"/reduce", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%q: status = %d, want 400", body, resp.StatusCode)
		}
	}
	// Trailing whitespace/newline remains fine (curl -d adds none, but
	// pretty-printers do).
	resp, err := http.Post(ts.URL+"/reduce", "application/json",
		strings.NewReader("{\"benchmark\":\"ckt1\",\"scale\":0.1}\n  \n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trailing whitespace status = %d, want 200", resp.StatusCode)
	}
}

// TestSlowHeaderTimeout: a client that dribbles its request header is
// disconnected once ReadHeaderTimeout elapses — the slowloris guard pgserve
// configures.
func TestSlowHeaderTimeout(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 100 * time.Millisecond}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send a partial request line, then stall.
	if _, err := conn.Write([]byte("POST /reduce HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	// The server must give up on us well before our own 5s read deadline:
	// either by closing the connection (EOF) or by answering 408. If our
	// read times out instead, the slowloris guard is not working.
	_, err = conn.Read(buf)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("server kept the stalled connection open past ReadHeaderTimeout")
	}
}

// TestMapCtxCancellation: a canceled context skips unstarted tasks and
// surfaces the cancellation; without cancellation MapCtx behaves like Map.
func TestMapCtxCancellation(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()

	if err := eng.MapCtx(context.Background(), 8, func(int) error { return nil }); err != nil {
		t.Fatalf("uncanceled MapCtx: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	err := eng.MapCtx(ctx, 16, func(int) error { ran++; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled MapCtx error = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Fatalf("%d tasks ran despite pre-canceled context", ran)
	}

	// A harder error from a task that did run wins over the skip marker.
	ctx2, cancel2 := context.WithCancel(context.Background())
	boom := errors.New("boom")
	var first atomic.Bool
	first.Store(true)
	err = eng.MapCtx(ctx2, 4, func(int) error {
		if first.CompareAndSwap(true, false) {
			cancel2()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("MapCtx error = %v, want boom", err)
	}
}

// TestEvalCanceledCounts: a canceled /eval-style batch aborts and is counted
// in the evaluator's abort telemetry (surfaced via /healthz).
func TestEvalCanceledCounts(t *testing.T) {
	srv, ts := newTestServer(t)
	info := reduceTestModel(t, ts)
	m, err := srv.Repo().Lookup(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.ev.EvalBatch(ctx, m, []float64{1e8, 1e9, 1e10}); !errors.Is(err, context.Canceled) {
		t.Fatalf("EvalBatch error = %v, want context.Canceled", err)
	}
	if _, err := srv.ev.SweepEntries(ctx, m, []Entry{{0, 0}}, 1e6, 1e12, 50); !errors.Is(err, context.Canceled) {
		t.Fatalf("SweepEntries error = %v, want context.Canceled", err)
	}
	if got := srv.ev.CanceledEvals(); got != 2 {
		t.Fatalf("CanceledEvals = %d, want 2", got)
	}
	if st := srv.CacheStats(); st.CanceledEvals != 2 {
		t.Fatalf("CacheStats.CanceledEvals = %d, want 2", st.CanceledEvals)
	}
}

// TestTransientCanceledMidRun: cancellation mid-integration stops the
// transient at the next chunk boundary — the pool slot frees within one
// chunk instead of integrating the full horizon.
func TestTransientCanceledMidRun(t *testing.T) {
	srv, ts := newTestServer(t)
	info := reduceTestModel(t, ts)
	m, err := srv.Repo().Lookup(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	input := sim.Input(func(tm float64, u []float64) {
		calls++
		if calls == transientChunkSteps+10 { // inside the second chunk
			cancel()
		}
		for i := range u {
			u[i] = 1e-3
		}
	})
	const steps = 8 * transientChunkSteps
	_, err = srv.ev.Transient(ctx, m, sim.TransientOptions{Dt: 1e-10, T: 1e-10 * steps, Input: input})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Transient error = %v, want context.Canceled", err)
	}
	// The integrator stopped within one chunk of the cancellation: the input
	// was sampled for at most the first two chunks, not the full horizon.
	if calls > 3*transientChunkSteps {
		t.Fatalf("input sampled %d times after cancellation (full run = %d) — did not stop within a chunk", calls, steps)
	}
	if srv.ev.CanceledEvals() == 0 {
		t.Fatal("canceled transient not counted")
	}
}
