package serve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/store"
)

// newStoreServer builds a server backed by a persistent store in dir with the
// given snapshot cadence.
func newStoreServer(t *testing.T, dir string, snapshotEvery int) (*Server, *httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("Open store: %v", err)
	}
	srv := New(Config{Workers: 2, Store: st, SnapshotEvery: snapshotEvery})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts, st
}

// TestRetryAfterHeaders: every 429/503 the server can emit carries a
// Retry-After header with the policy's whole-second value — session cap,
// repository full, preload 503, and drain 503.
func TestRetryAfterHeaders(t *testing.T) {
	t.Run("session cap", func(t *testing.T) {
		_, ts := newTestServer(t)
		info := reduceTestModel(t, ts)
		for i := 0; i < maxSessions; i++ {
			resp := postJSON(t, ts.URL+"/session", sessionCreateRequest{Model: info.ID, Dt: 1e-10})
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("create %d status = %d", i, resp.StatusCode)
			}
		}
		resp := postJSON(t, ts.URL+"/session", sessionCreateRequest{Model: info.ID, Dt: 1e-10})
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("over-cap create status = %d, want 429", resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "2" {
			t.Fatalf("session-cap Retry-After = %q, want \"2\"", ra)
		}
	})

	t.Run("repository full", func(t *testing.T) {
		srv, ts := newTestServer(t)
		fillRepository(srv.Repo(), 1)
		resp := postJSON(t, ts.URL+"/reduce", ModelKey{Benchmark: "ckt1", Scale: 0.1})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("first reduce status = %d", resp.StatusCode)
		}
		resp = postJSON(t, ts.URL+"/reduce", ModelKey{Benchmark: "ckt1", Scale: 0.2})
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("over-bound reduce status = %d, want 429", resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "10" {
			t.Fatalf("repo-full Retry-After = %q, want \"10\"", ra)
		}
		// The same policy applies on the resolveModel path (/eval by key).
		resp = postJSON(t, ts.URL+"/eval", evalRequest{
			ModelKey: ModelKey{Benchmark: "ckt1", Scale: 0.3}, Omegas: []float64{1e9},
		})
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "10" {
			t.Fatalf("/eval repo-full status %d Retry-After %q, want 429 / \"10\"",
				resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	})

	t.Run("healthz preload and drain", func(t *testing.T) {
		srv, ts := newTestServer(t)
		healthz := func() *http.Response {
			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Fatalf("GET /healthz: %v", err)
			}
			resp.Body.Close()
			return resp
		}
		srv.SetNotReady("store preload in progress")
		resp := healthz()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("preload healthz status = %d, want 503", resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "1" {
			t.Fatalf("preload Retry-After = %q, want \"1\"", ra)
		}

		srv.SetNotReadyFor("draining: shutdown in progress", RetryAfterDrain)
		resp = healthz()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("drain healthz status = %d, want 503", resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "10" {
			t.Fatalf("drain Retry-After = %q, want \"10\"", ra)
		}

		srv.SetReady()
		resp = healthz()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Retry-After") != "" {
			t.Fatalf("ready healthz status %d Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	})
}

// TestSessionSnapshotOnAdvance: with SnapshotEvery=1, every completed advance
// leaves a persisted snapshot at exactly the step the client saw.
func TestSessionSnapshotOnAdvance(t *testing.T) {
	srv, ts, st := newStoreServer(t, t.TempDir(), 1)
	info := reduceTestModel(t, ts)
	sess := decode[sessionInfo](t, postJSON(t, ts.URL+"/session", sessionCreateRequest{Model: info.ID, Dt: 1e-10}))
	input := sourceSpec{Kind: "sine", Amplitude: 1e-3, Freq: 1e9}

	advanceSession(t, ts.URL, sess.Session, 10, input)
	meta, _, err := st.GetSnapshot(sess.Session)
	if err != nil {
		t.Fatalf("GetSnapshot after first advance: %v", err)
	}
	if meta.Step != 10 || !meta.Emitted0 || meta.Advances != 1 {
		t.Fatalf("snapshot meta %+v, want step 10, emitted0, 1 advance", meta)
	}
	if meta.ModelID != info.ID || meta.Method != "be" || meta.Dt != 1e-10 {
		t.Fatalf("snapshot meta %+v does not pin the session config", meta)
	}

	advanceSession(t, ts.URL, sess.Session, 7, input)
	meta, _, err = st.GetSnapshot(sess.Session)
	if err != nil {
		t.Fatalf("GetSnapshot after second advance: %v", err)
	}
	if meta.Step != 17 || meta.Advances != 2 {
		t.Fatalf("snapshot meta %+v, want step 17 after 2 advances", meta)
	}
	if s := srv.Sessions().Stats(); s.SnapshotsSaved != 2 || s.SnapshotErrors != 0 {
		t.Fatalf("session stats %+v, want 2 snapshots saved", s)
	}

	// Deleting the session deletes its snapshot: no resurrection elsewhere.
	resp, err := http.NewRequest(http.MethodDelete, ts.URL+"/session/"+sess.Session, nil)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := http.DefaultClient.Do(resp)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	dr.Body.Close()
	if dr.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d", dr.StatusCode)
	}
	if _, _, err := st.GetSnapshot(sess.Session); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("snapshot survived session delete: %v", err)
	}
}

// TestSessionResumeAcrossServers is the failover acceptance check: a session
// advanced on one server resumes on a second server sharing the store
// directory and streams bit-identical rows to an uninterrupted session.
func TestSessionResumeAcrossServers(t *testing.T) {
	dir := t.TempDir()
	_, ts1, _ := newStoreServer(t, dir, 1)
	info := reduceTestModel(t, ts1)
	input := sourceSpec{Kind: "pulse", Low: 0, High: 1e-3, Delay: 2e-10, Rise: 1e-10, Fall: 1e-10, Width: 5e-10, Period: 2e-9}
	const dt = 1e-10

	// Uninterrupted reference on server 1.
	ref := decode[sessionInfo](t, postJSON(t, ts1.URL+"/session", sessionCreateRequest{Model: info.ID, Dt: dt}))
	refRows := advanceSession(t, ts1.URL, ref.Session, 30, input)
	refRows = append(refRows, advanceSession(t, ts1.URL, ref.Session, 40, input)...)

	// Failover path: advance 30 on server 1, then resume on server 2 (its
	// own Server over the same store — the model loads from disk, the
	// session state from its snapshot).
	sess := decode[sessionInfo](t, postJSON(t, ts1.URL+"/session", sessionCreateRequest{Model: info.ID, Dt: dt}))
	got := advanceSession(t, ts1.URL, sess.Session, 30, input)

	_, ts2, _ := newStoreServer(t, dir, 1)
	resp := postJSON(t, ts2.URL+"/session", sessionCreateRequest{Resume: sess.Session})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume status = %d", resp.StatusCode)
	}
	resumed := decode[sessionInfo](t, resp)
	if resumed.Session != sess.Session || resumed.Step != 30 {
		t.Fatalf("resumed info %+v, want same id at step 30", resumed)
	}
	if !resumed.Created.Equal(sess.Created) || !resumed.ExpiresAt.Equal(sess.ExpiresAt) {
		t.Fatalf("resume changed the session lifetime: %+v vs %+v", resumed, sess)
	}
	got = append(got, advanceSession(t, ts2.URL, sess.Session, 40, input)...)

	if len(got) != len(refRows) {
		t.Fatalf("failover streamed %d rows, reference %d", len(got), len(refRows))
	}
	for i := range refRows {
		if got[i].T != refRows[i].T {
			t.Fatalf("row %d: t=%g, want %g", i, got[i].T, refRows[i].T)
		}
		for j := range refRows[i].Y {
			if got[i].Y[j] != refRows[i].Y[j] {
				t.Fatalf("row %d output %d: %g, want %g (not bit-exact)", i, j, got[i].Y[j], refRows[i].Y[j])
			}
		}
	}

	// The resumed t=0 row is not re-emitted: 31 + 40 rows total.
	if want := 30 + 1 + 40; len(got) != want {
		t.Fatalf("row count %d, want %d", len(got), want)
	}
}

// TestSessionResumeAtStep: resume_step pins the resume to an exact retained
// step — the lost-response failover path. After two advances the store holds
// generations at steps 30 and 50; a router that only saw the first advance
// complete resumes at 30 on another replica and replays the second advance
// bit-exactly.
func TestSessionResumeAtStep(t *testing.T) {
	dir := t.TempDir()
	_, ts1, _ := newStoreServer(t, dir, 1)
	info := reduceTestModel(t, ts1)
	input := sourceSpec{Kind: "sine", Amplitude: 1e-3, Freq: 2e9}
	const dt = 1e-10

	sess := decode[sessionInfo](t, postJSON(t, ts1.URL+"/session", sessionCreateRequest{Model: info.ID, Dt: dt}))
	advanceSession(t, ts1.URL, sess.Session, 30, input)
	second := advanceSession(t, ts1.URL, sess.Session, 20, input)

	// Model the crash: the second advance's response never reached the
	// client, so the client-observed step is 30 while the latest snapshot is
	// at 50. A pinned resume rewinds to the previous generation.
	_, ts2, _ := newStoreServer(t, dir, 1)
	resp := postJSON(t, ts2.URL+"/session", sessionCreateRequest{Resume: sess.Session, ResumeStep: 30})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pinned resume status = %d, want 200", resp.StatusCode)
	}
	resumed := decode[sessionInfo](t, resp)
	if resumed.Session != sess.Session || resumed.Step != 30 {
		t.Fatalf("pinned resume info %+v, want same id at step 30", resumed)
	}
	replayed := advanceSession(t, ts2.URL, sess.Session, 20, input)
	if len(replayed) != len(second) {
		t.Fatalf("replay streamed %d rows, original %d", len(replayed), len(second))
	}
	for i := range second {
		if replayed[i].T != second[i].T {
			t.Fatalf("replay row %d: t=%g, want %g", i, replayed[i].T, second[i].T)
		}
		for j := range second[i].Y {
			if replayed[i].Y[j] != second[i].Y[j] {
				t.Fatalf("replay row %d output %d: %g, want %g (not bit-exact)", i, j, replayed[i].Y[j], second[i].Y[j])
			}
		}
	}

	// A step no retained generation captures is 409 (session alive, not
	// replayable from there), distinct from the 404 of a missing session.
	_, ts3, _ := newStoreServer(t, dir, 1)
	resp = postJSON(t, ts3.URL+"/session", sessionCreateRequest{Resume: sess.Session, ResumeStep: 7})
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("unreachable-step resume status = %d, want 409", resp.StatusCode)
	}

	// resume_step without resume is malformed.
	resp = postJSON(t, ts3.URL+"/session", sessionCreateRequest{Model: info.ID, Dt: dt, ResumeStep: 30})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("resume_step without resume status = %d, want 400", resp.StatusCode)
	}
}

// TestSnapshotSessionsDrain: the drain hook persists every live session even
// when periodic snapshots are disabled.
func TestSnapshotSessionsDrain(t *testing.T) {
	srv, ts, st := newStoreServer(t, t.TempDir(), 0)
	info := reduceTestModel(t, ts)
	input := sourceSpec{Kind: "dc", Value: 1e-3}
	s1 := decode[sessionInfo](t, postJSON(t, ts.URL+"/session", sessionCreateRequest{Model: info.ID, Dt: 1e-10}))
	s2 := decode[sessionInfo](t, postJSON(t, ts.URL+"/session", sessionCreateRequest{Model: info.ID, Dt: 1e-10}))
	advanceSession(t, ts.URL, s1.Session, 12, input)
	advanceSession(t, ts.URL, s2.Session, 5, input)

	// Periodic snapshots are off: nothing persisted yet.
	if _, _, err := st.GetSnapshot(s1.Session); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("unexpected snapshot before drain: %v", err)
	}
	if n := srv.SnapshotSessions(); n != 2 {
		t.Fatalf("SnapshotSessions = %d, want 2", n)
	}
	m1, _, err := st.GetSnapshot(s1.Session)
	if err != nil || m1.Step != 12 {
		t.Fatalf("drained snapshot 1: %+v, %v", m1, err)
	}
	m2, _, err := st.GetSnapshot(s2.Session)
	if err != nil || m2.Step != 5 {
		t.Fatalf("drained snapshot 2: %+v, %v", m2, err)
	}
}

// TestSessionResumeRejections: unusable resumes are 404 (fresh-session
// recovery), malformed resume requests are 400.
func TestSessionResumeRejections(t *testing.T) {
	_, ts, st := newStoreServer(t, t.TempDir(), 1)
	info := reduceTestModel(t, ts)

	resp := postJSON(t, ts.URL+"/session", sessionCreateRequest{Resume: "no-such-session"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("resume of missing snapshot status = %d, want 404", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/session", sessionCreateRequest{Resume: "x", Model: info.ID, Dt: 1e-10})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("resume with extra fields status = %d, want 400", resp.StatusCode)
	}

	// A session still live on this replica cannot be resumed again: 409.
	sess := decode[sessionInfo](t, postJSON(t, ts.URL+"/session", sessionCreateRequest{Model: info.ID, Dt: 1e-10}))
	advanceSession(t, ts.URL, sess.Session, 3, sourceSpec{Kind: "dc", Value: 1})
	resp = postJSON(t, ts.URL+"/session", sessionCreateRequest{Resume: sess.Session})
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("resume of live session status = %d, want 409", resp.StatusCode)
	}

	// An expired snapshot is deleted on the resume attempt.
	meta, payload, err := st.GetSnapshot(sess.Session)
	if err != nil {
		t.Fatalf("GetSnapshot: %v", err)
	}
	meta.Deadline = time.Now().Add(-time.Minute)
	if err := st.PutSnapshot(meta, payload); err != nil {
		t.Fatalf("PutSnapshot: %v", err)
	}
	srv2 := New(Config{Workers: 2, Store: st})
	ts2 := newServerForTest(t, srv2)
	resp = postJSON(t, ts2.URL+"/session", sessionCreateRequest{Resume: sess.Session})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("resume of expired snapshot status = %d, want 404", resp.StatusCode)
	}
	if _, _, err := st.GetSnapshot(sess.Session); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("expired snapshot not cleaned up: %v", err)
	}

	// A server without a store cannot resume at all.
	srv3, ts3 := newTestServer(t)
	_ = srv3
	resp = postJSON(t, ts3.URL+"/session", sessionCreateRequest{Resume: "whatever"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("storeless resume status = %d, want 400", resp.StatusCode)
	}
}
