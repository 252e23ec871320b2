package serve

import (
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

// interpAnchorScales sit inside one grid-size plateau of ckt1 (NX plateau
// [18/77, 19/77), ports plateau [12/51, 13/51)), so only the continuously
// scaled electrical parameters vary between them — the regime Δ-scale
// interpolation targets.
var interpAnchorScales = []float64{0.236, 0.241, 0.246}

// reduceAnchors builds the library anchors through the repository.
func reduceAnchors(t *testing.T, repo *Repository, rcOnly bool) {
	t.Helper()
	for _, s := range interpAnchorScales {
		if _, _, err := repo.Get(ModelKey{Benchmark: "ckt1", Scale: s, RCOnly: rcOnly}); err != nil {
			t.Fatalf("anchor %g: %v", s, err)
		}
	}
}

// The acceptance scenario: with anchors stored, an unstored Scale is served
// purely by interpolation — zero new reductions, asserted via
// RepoStats.Builds — and repeat requests hit the interpolated-model cache.
func TestGetInterpolatedZeroBuilds(t *testing.T) {
	repo := NewRepository()
	reduceAnchors(t, repo, false)
	base := repo.Stats()
	if base.Builds != int64(len(interpAnchorScales)) {
		t.Fatalf("anchor builds = %d", base.Builds)
	}

	key := ModelKey{Benchmark: "ckt1", Scale: 0.2385}
	m, outcome, err := repo.GetInterpolated(key, 0)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeInterp {
		t.Fatalf("outcome = %v, want interp", outcome)
	}
	if m.Interp == nil || m.Interp.Scales != [2]float64{0.236, 0.241} {
		t.Fatalf("interp info = %+v", m.Interp)
	}
	if m.Interp.CheckErr < 0 || m.Interp.CheckErr > interpTol {
		t.Fatalf("leave-one-out check err = %g (budget %g)", m.Interp.CheckErr, interpTol)
	}
	if m.Modal == nil || m.ModalBlocks != m.Blocks {
		t.Fatalf("interpolated model not fully modal: %d/%d", m.ModalBlocks, m.Blocks)
	}

	// Second request: resident interpolant, still zero new reductions.
	m2, outcome2, err := repo.GetInterpolated(key, 0)
	if err != nil || outcome2 != OutcomeInterp || m2 != m {
		t.Fatalf("repeat: m2==m %v outcome %v err %v", m2 == m, outcome2, err)
	}

	st := repo.Stats()
	if st.Builds != base.Builds {
		t.Fatalf("interpolation triggered %d reductions", st.Builds-base.Builds)
	}
	if st.InterpServed != 2 || st.InterpFallbacks != 0 || st.InterpModels != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// The interpolant is resolvable by ID like any model.
	got, err := repo.Lookup(key.ID())
	if err != nil || got != m {
		t.Fatalf("Lookup(%q) = %v, %v", key.ID(), got, err)
	}
}

// Exact anchor scales must be served as themselves, not interpolated.
func TestGetInterpolatedExactScalePassesThrough(t *testing.T) {
	repo := NewRepository()
	reduceAnchors(t, repo, false)
	m, outcome, err := repo.GetInterpolated(ModelKey{Benchmark: "ckt1", Scale: 0.241}, 0)
	if err != nil || outcome != OutcomeMemHit || m.Interp != nil {
		t.Fatalf("outcome %v err %v interp %v", outcome, err, m.Interp)
	}
}

// Property test (RC and RLC): the interpolant at a held-out Scale stays
// within the configured budget of a direct reduction, and an unmeetable
// budget falls back to a real build, counted in RepoStats.
func TestInterpolationAccuracyWithinBudgetElseFallback(t *testing.T) {
	const budget = 0.03
	for _, rcOnly := range []bool{false, true} {
		repo := NewRepository()
		reduceAnchors(t, repo, rcOnly)
		base := repo.Stats()

		key := ModelKey{Benchmark: "ckt1", Scale: 0.2435, RCOnly: rcOnly}
		m, outcome, err := repo.GetInterpolated(key, budget)
		if err != nil {
			t.Fatalf("rc=%v: %v", rcOnly, err)
		}
		if outcome != OutcomeInterp {
			t.Fatalf("rc=%v: outcome = %v", rcOnly, outcome)
		}
		if st := repo.Stats(); st.Builds != base.Builds {
			t.Fatalf("rc=%v: interpolation reduced", rcOnly)
		}

		// Reference: a direct reduction of the same key in a fresh repository
		// (so the comparison itself cannot perturb the build counters).
		ref := NewRepository()
		direct, _, err := ref.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		e, err := relTransferErr(m.Modal, direct.Modal)
		if err != nil {
			t.Fatal(err)
		}
		if e > budget {
			t.Errorf("rc=%v: interpolant vs direct reduction: %g > budget %g", rcOnly, e, budget)
		}

		// An impossible budget must reduce for real instead of serving an
		// out-of-budget interpolant.
		key2 := ModelKey{Benchmark: "ckt1", Scale: 0.2445, RCOnly: rcOnly}
		m2, outcome2, err := repo.GetInterpolated(key2, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		if outcome2 != OutcomeBuilt || m2.Interp != nil {
			t.Fatalf("rc=%v: tiny budget served outcome %v", rcOnly, outcome2)
		}
		st := repo.Stats()
		if st.InterpFallbacks != 1 || st.Builds != base.Builds+1 {
			t.Fatalf("rc=%v: fallback stats = %+v", rcOnly, st)
		}
	}
}

// Without bracketing anchors — or with dimension-incompatible ones — the
// request falls back to a real reduction and still succeeds.
func TestGetInterpolatedFallsBackWithoutUsableAnchors(t *testing.T) {
	repo := NewRepository()
	// One anchor only: nothing to bracket with.
	if _, _, err := repo.Get(ModelKey{Benchmark: "ckt1", Scale: 0.236}); err != nil {
		t.Fatal(err)
	}
	m, outcome, err := repo.GetInterpolated(ModelKey{Benchmark: "ckt1", Scale: 0.24}, 0)
	if err != nil || outcome != OutcomeBuilt {
		t.Fatalf("outcome %v err %v", outcome, err)
	}
	if m.Interp != nil {
		t.Fatal("fallback model carries interp info")
	}

	// Anchors at 0.2 and 0.3 have different port counts (10 vs 15): the
	// structures cannot be matched, so interpolation must refuse and reduce.
	repo2 := NewRepository()
	for _, s := range []float64{0.2, 0.3} {
		if _, _, err := repo2.Get(ModelKey{Benchmark: "ckt1", Scale: s}); err != nil {
			t.Fatal(err)
		}
	}
	_, outcome2, err := repo2.GetInterpolated(ModelKey{Benchmark: "ckt1", Scale: 0.25}, 0)
	if err != nil || outcome2 != OutcomeBuilt {
		t.Fatalf("incompatible anchors: outcome %v err %v", outcome2, err)
	}
	if st := repo2.Stats(); st.InterpFallbacks != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// The interpolated-model cache is bounded: a continuum sweep cannot grow
// memory without limit.
func TestInterpCacheEviction(t *testing.T) {
	repo := NewRepository()
	repo.maxInterp = 2
	reduceAnchors(t, repo, false)
	scales := []float64{0.2372, 0.2384, 0.2396, 0.2408}
	for _, s := range scales {
		if _, _, err := repo.GetInterpolated(ModelKey{Benchmark: "ckt1", Scale: s}, 0); err != nil {
			t.Fatalf("scale %g: %v", s, err)
		}
	}
	st := repo.Stats()
	if st.InterpModels != 2 {
		t.Fatalf("resident interpolants = %d, want 2", st.InterpModels)
	}
	if st.Builds != int64(len(interpAnchorScales)) {
		t.Fatalf("continuum sweep reduced: builds = %d", st.Builds)
	}
	// The two oldest were evicted; their IDs no longer resolve.
	if _, err := repo.Lookup(ModelKey{Benchmark: "ckt1", Scale: scales[0]}.ID()); err == nil {
		t.Fatal("evicted interpolant still resolvable")
	}
	if _, err := repo.Lookup(ModelKey{Benchmark: "ckt1", Scale: scales[3]}.ID()); err != nil {
		t.Fatalf("fresh interpolant not resolvable: %v", err)
	}
}

// Warm restart: a second process over the same store directory serves a
// Δ-scale continuum with zero reductions ever — anchors preload from disk,
// interpolation covers the gaps.
func TestInterpWarmRestartZeroBuilds(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := New(Config{Workers: 2, Store: st1})
	reduceAnchors(t, srv1.Repo(), false)
	srv1.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(Config{Workers: 2, Store: st2})
	defer srv2.Close()
	n, err := srv2.PreloadStore()
	if err != nil || n != len(interpAnchorScales) {
		t.Fatalf("preload = %d, %v", n, err)
	}
	m, outcome, err := srv2.Repo().GetInterpolated(ModelKey{Benchmark: "ckt1", Scale: 0.2443}, 0)
	if err != nil || outcome != OutcomeInterp {
		t.Fatalf("outcome %v err %v", outcome, err)
	}
	if m.Interp == nil || m.Interp.Scales != [2]float64{0.241, 0.246} {
		t.Fatalf("interp info = %+v", m.Interp)
	}
	if got := srv2.Repo().Stats(); got.Builds != 0 {
		t.Fatalf("warm restart reduced %d times", got.Builds)
	}
}

// HTTP: /interp serves an unstored scale, reports the interpolation record,
// and the model is immediately usable by /sweep and /eval; benchmark+scale
// on /sweep resolves through the same path.
func TestInterpHTTPEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t)
	for _, s := range interpAnchorScales {
		resp := postJSON(t, ts.URL+"/reduce", ModelKey{Benchmark: "ckt1", Scale: s})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/reduce %g: %d", s, resp.StatusCode)
		}
		resp.Body.Close()
	}
	builds := srv.Repo().Stats().Builds

	resp := postJSON(t, ts.URL+"/interp", map[string]any{"benchmark": "ckt1", "scale": 0.2389})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/interp status = %d", resp.StatusCode)
	}
	info := decode[reduceResponse](t, resp)
	if info.Source != "interp" || !info.Cached {
		t.Fatalf("source = %q cached = %v", info.Source, info.Cached)
	}
	if info.Interp == nil || info.Interp.CheckErr < 0 {
		t.Fatalf("interp record missing: %+v", info.Interp)
	}

	// The interpolant serves sweeps by ID…
	resp = postJSON(t, ts.URL+"/sweep", map[string]any{"model": info.ID, "points": 20})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/sweep by id: %d", resp.StatusCode)
	}
	resp.Body.Close()
	// …and by benchmark+scale, at yet another unstored scale.
	resp = postJSON(t, ts.URL+"/sweep", map[string]any{"benchmark": "ckt1", "scale": 0.2401, "points": 20})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/sweep by key: %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/eval", map[string]any{"benchmark": "ckt1", "scale": 0.2401, "omegas": []float64{1e9}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/eval by key: %d", resp.StatusCode)
	}
	resp.Body.Close()

	if got := srv.Repo().Stats(); got.Builds != builds {
		t.Fatalf("Δ-scale HTTP traffic reduced %d times", got.Builds-builds)
	}

	// Bad inputs are client errors.
	for _, body := range []map[string]any{
		{"benchmark": "nope", "scale": 0.24},
		{"benchmark": "ckt1", "scale": 7.0},
		{"benchmark": "ckt1", "scale": 0.24, "tol": -1.0},
	} {
		resp := postJSON(t, ts.URL+"/interp", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%v: status %d, want 400", body, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// A cached interpolant admitted under the default budget must not satisfy a
// later request with a stricter budget: the stricter request re-decides and
// reduces for real.
func TestInterpCacheHonorsPerRequestTol(t *testing.T) {
	repo := NewRepository()
	reduceAnchors(t, repo, false)
	key := ModelKey{Benchmark: "ckt1", Scale: 0.2389}
	m, outcome, err := repo.GetInterpolated(key, 0)
	if err != nil || outcome != OutcomeInterp {
		t.Fatalf("outcome %v err %v", outcome, err)
	}
	if m.Interp.CheckErr <= 1e-9 {
		t.Fatalf("check err %g unexpectedly tiny; test needs a stricter budget", m.Interp.CheckErr)
	}
	m2, outcome2, err := repo.GetInterpolated(key, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if outcome2 != OutcomeBuilt || m2.Interp != nil {
		t.Fatalf("strict-tol request served cached interpolant (outcome %v)", outcome2)
	}
	if st := repo.Stats(); st.InterpFallbacks != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// One structurally incompatible anchor elsewhere in the library (different
// port count at scale 0.3) must not defeat interpolation between two good
// bracketing anchors: the leave-one-out check falls back to the other outer
// candidate.
func TestInterpSurvivesIncompatibleOuterAnchor(t *testing.T) {
	repo := NewRepository()
	reduceAnchors(t, repo, false)
	if _, _, err := repo.Get(ModelKey{Benchmark: "ckt1", Scale: 0.3}); err != nil {
		t.Fatal(err)
	}
	base := repo.Stats()
	// Bracket (0.241, 0.246): the upper outer anchor is the incompatible
	// 0.3; the lower outer candidate (0.236) must carry the check.
	m, outcome, err := repo.GetInterpolated(ModelKey{Benchmark: "ckt1", Scale: 0.2442}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeInterp {
		t.Fatalf("outcome = %v, want interp", outcome)
	}
	if m.Interp.CheckScale != 0.241 || m.Interp.CheckErr < 0 {
		t.Fatalf("check used %g (err %g), want held-out 0.241", m.Interp.CheckScale, m.Interp.CheckErr)
	}
	if st := repo.Stats(); st.Builds != base.Builds || st.InterpFallbacks != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// Anchors are loaded read-only: a library entry whose backing store file is
// gone (or stale) must cost exactly the one fallback reduction of the
// requested model — never hidden anchor rebuilds.
func TestInterpStaleLibraryCostsOneBuild(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	seed := NewRepositoryWithStore(st1)
	reduceAnchors(t, seed, false)

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	repo := NewRepositoryWithStore(st2)
	if err := repo.RefreshLibrary(); err != nil {
		t.Fatal(err)
	}
	if got := len(repo.ScalePoints(ModelKey{Benchmark: "ckt1", Scale: 1})); got != len(interpAnchorScales) {
		t.Fatalf("library scales = %d", got)
	}

	// Disk-backed anchors: interpolation reads them through, zero builds.
	if _, outcome, err := repo.GetInterpolated(ModelKey{Benchmark: "ckt1", Scale: 0.2385}, 0); err != nil || outcome != OutcomeInterp {
		t.Fatalf("outcome %v err %v", outcome, err)
	}
	if st := repo.Stats(); st.Builds != 0 {
		t.Fatalf("disk-backed interpolation built %d models", st.Builds)
	}

	// Now the store vanishes out from under the library: the Δ-scale request
	// must fall back with exactly one reduction (the requested model).
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		os.Remove(filepath.Join(dir, ent.Name()))
	}
	repo2 := NewRepositoryWithStore(st2)
	repo2.RefreshLibrary() // scans the now-empty dir: empty library
	// Re-point a poisoned library at the empty store: inject the stale
	// scales directly, as a pre-wipe RefreshLibrary would have left them.
	repo2.mu.Lock()
	for _, s := range interpAnchorScales {
		repo2.libraryAdd(ModelKey{Benchmark: "ckt1", Scale: s, Moments: 6, S0: 1e9})
	}
	repo2.mu.Unlock()
	m, outcome, err := repo2.GetInterpolated(ModelKey{Benchmark: "ckt1", Scale: 0.2385}, 0)
	if err != nil || outcome != OutcomeBuilt || m.Interp != nil {
		t.Fatalf("outcome %v err %v", outcome, err)
	}
	if st := repo2.Stats(); st.Builds != 1 || st.InterpFallbacks != 1 {
		t.Fatalf("stale library stats = %+v", st)
	}
}

// Resident interpolants appear in Models() alongside reduced models.
func TestModelsListsInterpolants(t *testing.T) {
	repo := NewRepository()
	reduceAnchors(t, repo, false)
	key := ModelKey{Benchmark: "ckt1", Scale: 0.2385}
	if _, _, err := repo.GetInterpolated(key, 0); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range repo.Models() {
		if m.ID == key.ID() {
			found = m.Interp != nil
		}
	}
	if !found {
		t.Fatal("interpolated model missing from Models()")
	}
}

// A real reduction of a key that was previously interpolated supersedes the
// cached interpolant: one ID, one model, no shadowed LRU slot.
func TestReduceSupersedesInterpolant(t *testing.T) {
	repo := NewRepository()
	reduceAnchors(t, repo, false)
	key := ModelKey{Benchmark: "ckt1", Scale: 0.2385}
	if _, _, err := repo.GetInterpolated(key, 0); err != nil {
		t.Fatal(err)
	}
	real1, outcome, err := repo.Get(key)
	if err != nil || outcome != OutcomeBuilt {
		t.Fatalf("outcome %v err %v", outcome, err)
	}
	if st := repo.Stats(); st.InterpModels != 0 {
		t.Fatalf("shadowed interpolant still resident: %+v", st)
	}
	seen := 0
	for _, m := range repo.Models() {
		if m.ID == key.ID() {
			seen++
			if m != real1 {
				t.Fatal("Models() lists the superseded interpolant")
			}
		}
	}
	if seen != 1 {
		t.Fatalf("ID listed %d times", seen)
	}
	// Lookup and GetInterpolated now resolve to the real model.
	if m, _, err := repo.GetInterpolated(key, 0); err != nil || m != real1 {
		t.Fatalf("GetInterpolated after reduce: %v %v", m, err)
	}
}

// A full repository must still serve Δ-scale traffic: interpolants need no
// repository slot, so only the fallback reduction can hit the bound.
func TestInterpServesWhenRepositoryFull(t *testing.T) {
	repo := NewRepository()
	fillRepository(repo, len(interpAnchorScales)) // room for exactly the anchors
	reduceAnchors(t, repo, false)
	m, outcome, err := repo.GetInterpolated(ModelKey{Benchmark: "ckt1", Scale: 0.2385}, 0)
	if err != nil || outcome != OutcomeInterp {
		t.Fatalf("full repo: outcome %v err %v", outcome, err)
	}
	if m.Interp == nil {
		t.Fatal("missing interp record")
	}
	// The fallback path (impossible budget) does need a slot and must
	// surface the bound.
	_, _, err = repo.GetInterpolated(ModelKey{Benchmark: "ckt1", Scale: 0.2443}, 1e-12)
	if err == nil {
		t.Fatal("fallback on a full repository must fail with ErrRepositoryFull")
	}
}
