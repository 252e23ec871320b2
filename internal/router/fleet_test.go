package router

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/router/chaos"
	"repro/internal/serve"
	"repro/internal/store"
)

// fleetReplica is one pgserve instance fronted by a chaos proxy; the router
// only ever sees the proxy address, so faults injected there look exactly
// like the replica failing.
type fleetReplica struct {
	srv   *serve.Server
	ts    *httptest.Server
	proxy *chaos.Proxy
}

// startFleet boots n replicas over one shared store directory (the fleet's
// durable tier: ROMs and session snapshots), each with exact-failover
// snapshotting (-session-snapshot-every 1 equivalent).
func startFleet(t *testing.T, n int, dir string) []*fleetReplica {
	t.Helper()
	var fleet []*fleetReplica
	for i := 0; i < n; i++ {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatalf("store.Open: %v", err)
		}
		srv := serve.New(serve.Config{Workers: 2, Store: st, SnapshotEvery: 1})
		ts := httptest.NewServer(srv.Handler())
		u, _ := url.Parse(ts.URL)
		proxy, err := chaos.New(u.Host)
		if err != nil {
			t.Fatalf("chaos.New: %v", err)
		}
		rep := &fleetReplica{srv: srv, ts: ts, proxy: proxy}
		fleet = append(fleet, rep)
		t.Cleanup(func() {
			proxy.Close()
			ts.Close()
			srv.Close()
		})
	}
	return fleet
}

func fleetURLs(fleet []*fleetReplica) []string {
	out := make([]string, len(fleet))
	for i, rep := range fleet {
		out[i] = rep.proxy.URL()
	}
	return out
}

// byProxyURL maps a router replica address (proxy URL) back to the fleet
// entry.
func byProxyURL(t *testing.T, fleet []*fleetReplica, addr string) *fleetReplica {
	t.Helper()
	for _, rep := range fleet {
		if rep.proxy.URL() == addr {
			return rep
		}
	}
	t.Fatalf("no fleet replica for %q", addr)
	return nil
}

// reduceCount sums completed /reduce requests across the fleet by scraping
// each replica's own /metrics (through the direct address, not the proxy).
func reduceCount(t *testing.T, fleet []*fleetReplica) float64 {
	t.Helper()
	var total float64
	for _, rep := range fleet {
		resp, err := http.Get(rep.ts.URL + "/metrics")
		if err != nil {
			t.Fatalf("scrape %s: %v", rep.ts.URL, err)
		}
		sc, err := obs.ParseText(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("parse metrics: %v", err)
		}
		if v, ok := sc.Value("pgserve_http_requests_total", "route", "/reduce", "status", "200"); ok {
			total += v
		}
	}
	return total
}

// mustPost posts JSON through the router and fails the test on transport
// errors or unexpected status — the "zero client-visible failures" assertion,
// applied to every call.
func mustPost(t *testing.T, url string, body any) []byte {
	t.Helper()
	raw, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: client-visible transport failure: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: client-visible truncated body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: client-visible failure: status %d: %s", url, resp.StatusCode, b)
	}
	return b
}

// advanceRows posts one advance and decodes the NDJSON rows, failing on any
// embedded error line or malformed row.
func advanceRows(t *testing.T, routerURL, sessionID string, steps int) []serveRow {
	t.Helper()
	body := map[string]any{
		"steps": steps,
		"input": map[string]any{"kind": "sine", "amplitude": 1.0, "freq": 2e9},
	}
	raw := mustPost(t, routerURL+"/session/"+sessionID+"/advance", body)
	var rows []serveRow
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var probe map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("malformed NDJSON row %q: %v", line, err)
		}
		if e, ok := probe["error"]; ok {
			t.Fatalf("advance stream carries an error row: %s", e)
		}
		var row serveRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("row decode: %v", err)
		}
		rows = append(rows, row)
	}
	return rows
}

type serveRow struct {
	T float64   `json:"t"`
	Y []float64 `json:"y"`
}

// TestFleetChaos is the end-to-end acceptance test for the router tier:
// three replicas behind deterministic chaos proxies, one router, and a
// client that must never observe a failure while replicas are killed
// mid-sweep and mid-session.
func TestFleetChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet e2e is several seconds of real integration")
	}
	dir := t.TempDir()
	fleet := startFleet(t, 3, dir)
	rt, err := New(Config{
		Replicas:       fleetURLs(fleet),
		ProbeInterval:  -1, // breaker-only health: chaos faults stay deterministic per request
		RetryBackoff:   time.Millisecond,
		BreakerOpenFor: 200 * time.Millisecond,
		Transport:      &http.Transport{DisableKeepAlives: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	// --- build the model through the router ---
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(mustPost(t, router.URL+"/reduce",
		map[string]any{"benchmark": "ckt1", "scale": 0.1}), &info); err != nil || info.ID == "" {
		t.Fatalf("reduce: %v (id %q)", err, info.ID)
	}

	// --- single-flight proof: a thundering herd reduces exactly once ---
	// The replicas answer slowly while the herd runs, so every member
	// reaches the router while the one build is still in flight, however
	// fast the reduction itself is or however late a goroutine starts.
	for _, rep := range fleet {
		rep.proxy.SetFallback(chaos.Rule{Delay: 500 * time.Millisecond})
	}
	before := reduceCount(t, fleet)
	const herd = 10
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			raw, _ := json.Marshal(map[string]any{"benchmark": "ckt1", "scale": 0.2})
			resp, err := http.Post(router.URL+"/reduce", "application/json", bytes.NewReader(raw))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				errs <- fmt.Errorf("herd reduce status %d: %s", resp.StatusCode, b)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for _, rep := range fleet {
		rep.proxy.SetFallback(chaos.Rule{})
	}
	for err := range errs {
		t.Fatal(err)
	}
	if delta := reduceCount(t, fleet) - before; delta != 1 {
		t.Fatalf("herd of %d drove %g upstream /reduce calls across the fleet, want exactly 1 (router single-flight)", herd, delta)
	}

	// --- ground-truth sweep, then the same sweep with the primary dying
	// mid-stream ---
	sweepBody := map[string]any{
		"model": info.ID, "wmin": 1e8, "wmax": 1e10, "points": 40,
	}
	truth := mustPost(t, router.URL+"/sweep", sweepBody)
	primary := byProxyURL(t, fleet, rt.ring.Primary(info.ID))
	primary.proxy.SetFallback(chaos.Rule{TruncateAfterBytes: 400})
	retriesBefore := rt.metrics.retries.Value()
	chaosSweep := mustPost(t, router.URL+"/sweep", sweepBody)
	primary.proxy.SetFallback(chaos.Rule{})
	if !bytes.Equal(truth, chaosSweep) {
		t.Fatalf("sweep through a mid-stream replica death differs from ground truth:\n%.200s\nvs\n%.200s", truth, chaosSweep)
	}
	if rt.metrics.retries.Value() == retriesBefore {
		t.Error("mid-sweep kill did not register a retry — the fault was not exercised")
	}

	// --- session continuity: reference run, then a chaos run with the owner
	// killed between advances AND mid-stream, compared bit-exactly ---
	const advSteps, advances = 192, 6
	runSession := func(chaosFn func(advance int, e *sessionEntry)) []serveRow {
		var sess struct {
			Session string `json:"session"`
		}
		if err := json.Unmarshal(mustPost(t, router.URL+"/session",
			map[string]any{"model": info.ID, "dt": 1e-10}), &sess); err != nil || sess.Session == "" {
			t.Fatalf("session create: %v", err)
		}
		var rows []serveRow
		for a := 0; a < advances; a++ {
			if chaosFn != nil {
				rt.sessMu.Lock()
				e := rt.sessions[sess.Session]
				rt.sessMu.Unlock()
				chaosFn(a, e)
			}
			rows = append(rows, advanceRows(t, router.URL, sess.Session, advSteps)...)
		}
		// Delete through the router (also removes the persisted snapshot).
		req, _ := http.NewRequest(http.MethodDelete, router.URL+"/session/"+sess.Session, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("DELETE session: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE session status = %d", resp.StatusCode)
		}
		return rows
	}

	reference := runSession(nil)
	wantRows := advances*advSteps + 1 // + the t=0 row from the first advance
	if len(reference) != wantRows {
		t.Fatalf("reference session emitted %d rows, want %d", len(reference), wantRows)
	}

	failoversBefore := rt.metrics.failovers.Value()
	var killed *fleetReplica
	chaotic := runSession(func(advance int, e *sessionEntry) {
		switch advance {
		case 3:
			// Kill the session's owner outright between advances: every new
			// connection refused, in-flight ones reset.
			e.mu.Lock()
			killed = byProxyURL(t, fleet, e.replica.addr)
			e.mu.Unlock()
			killed.proxy.SetFallback(chaos.Rule{Refuse: true})
			killed.proxy.KillActive()
		case 4:
			// The previous failover picked a new owner; now that owner dies
			// MID-STREAM: the advance truncates partway through the NDJSON
			// rows and must be replayed elsewhere, invisibly.
			killed.proxy.SetFallback(chaos.Rule{}) // the first victim "recovers"
			e.mu.Lock()
			owner := byProxyURL(t, fleet, e.replica.addr)
			e.mu.Unlock()
			owner.proxy.SetRule(owner.proxy.Accepted(), chaos.Rule{TruncateAfterBytes: 600})
		}
	})
	if len(chaotic) != wantRows {
		t.Fatalf("chaos session emitted %d rows, want %d", len(chaotic), wantRows)
	}
	for i := range reference {
		if reference[i].T != chaotic[i].T {
			t.Fatalf("row %d: t=%v (chaos) vs t=%v (reference) — step continuity broken", i, chaotic[i].T, reference[i].T)
		}
		if len(reference[i].Y) != len(chaotic[i].Y) {
			t.Fatalf("row %d: y width differs", i)
		}
		for j := range reference[i].Y {
			if reference[i].Y[j] != chaotic[i].Y[j] {
				t.Fatalf("row %d col %d: %v (chaos) != %v (reference) — failover is not bit-exact", i, j, chaotic[i].Y[j], reference[i].Y[j])
			}
		}
	}
	if rt.metrics.failovers.Value() < failoversBefore+2 {
		t.Errorf("failovers = %d (was %d); both kills should have failed over",
			rt.metrics.failovers.Value(), failoversBefore)
	}
	if rt.metrics.replays.Value() == 0 {
		t.Error("no advance was replayed — the mid-stream kill path was not exercised")
	}
}
