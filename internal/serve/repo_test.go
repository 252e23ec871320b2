package serve

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/store"
)

// NewRepository returns an empty, memory-only model repository bounded to
// maxModels entries; maxModels <= 0 selects DefaultMaxModels.
func NewRepository(maxModels int) *Repository {
	return NewRepositoryWithStore(maxModels, nil)
}

// Store returns the attached persistent store (nil for memory-only).
func (r *Repository) Store() *store.Store { return r.store }

// Sessions exposes the session manager.
func (s *Server) Sessions() *SessionManager { return s.sessions }

func TestModelKeyNormalize(t *testing.T) {
	cases := []struct {
		name        string
		in          ModelKey
		wantMoments int
		wantS0      float64
	}{
		{"all defaulted ckt1", ModelKey{Benchmark: "ckt1", Scale: 0.25}, grid.MatchedMoments("ckt1"), core.DefaultS0},
		{"all defaulted ckt2", ModelKey{Benchmark: "ckt2", Scale: 0.1}, grid.MatchedMoments("ckt2"), core.DefaultS0},
		{"all defaulted ckt4", ModelKey{Benchmark: "ckt4", Scale: 0.1}, grid.MatchedMoments("ckt4"), core.DefaultS0},
		{"explicit moments kept", ModelKey{Benchmark: "ckt1", Scale: 0.25, Moments: 9}, 9, core.DefaultS0},
		{"explicit s0 kept", ModelKey{Benchmark: "ckt1", Scale: 0.25, S0: 5e8}, grid.MatchedMoments("ckt1"), 5e8},
		{"spelled-out defaults", ModelKey{Benchmark: "ckt1", Scale: 0.25, Moments: 6, S0: core.DefaultS0}, 6, core.DefaultS0},
		{"unknown benchmark gets fallback", ModelKey{Benchmark: "nope", Scale: 0.25}, grid.MatchedMoments("nope"), core.DefaultS0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := tc.in
			k.Normalize()
			if k.Moments != tc.wantMoments || k.S0 != tc.wantS0 {
				t.Fatalf("Normalize(%+v) = moments %d, s0 %g; want %d, %g",
					tc.in, k.Moments, k.S0, tc.wantMoments, tc.wantS0)
			}
			// Normalize is idempotent.
			again := k
			again.Normalize()
			if again != k {
				t.Fatalf("Normalize not idempotent: %+v then %+v", k, again)
			}
		})
	}
}

func TestModelKeyValidate(t *testing.T) {
	cases := []struct {
		name    string
		in      ModelKey
		wantErr string // empty = valid
	}{
		{"defaults valid", ModelKey{Benchmark: "ckt1", Scale: 0.25}, ""},
		{"explicit valid", ModelKey{Benchmark: "ckt2", Scale: 0.1, Moments: 10, S0: 1e9, RCOnly: true}, ""},
		{"max moments valid", ModelKey{Benchmark: "ckt1", Scale: 0.25, Moments: MaxMoments}, ""},
		{"negative moments", ModelKey{Benchmark: "ckt1", Scale: 0.25, Moments: -3}, "moments"},
		{"excessive moments", ModelKey{Benchmark: "ckt1", Scale: 0.25, Moments: MaxMoments + 1}, "moments"},
		{"negative s0", ModelKey{Benchmark: "ckt1", Scale: 0.25, S0: -1e9}, "s0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.in.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate(%+v) = %v, want nil", tc.in, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate(%+v) = %v, want error mentioning %q", tc.in, err, tc.wantErr)
			}
		})
	}
	// Bad benchmark names and scales are rejected at build time with
	// specific errors (Validate leaves them to grid.Benchmark).
	for _, key := range []ModelKey{
		{Benchmark: "ckt9", Scale: 0.25},
		{Benchmark: "ckt1", Scale: 0},
		{Benchmark: "ckt1", Scale: -1},
		{Benchmark: "ckt1", Scale: 1.5},
	} {
		if _, _, err := NewRepository(0).Get(key); err == nil {
			t.Errorf("Get(%+v) succeeded, want benchmark/scale rejection", key)
		}
	}
}

func TestModelKeyIDCollisions(t *testing.T) {
	// Defaulted and spelled-out keys must collide onto one ID (one model,
	// one store entry).
	collide := [][2]ModelKey{
		{{Benchmark: "ckt1", Scale: 0.25}, {Benchmark: "ckt1", Scale: 0.25, Moments: 6}},
		{{Benchmark: "ckt1", Scale: 0.25}, {Benchmark: "ckt1", Scale: 0.25, S0: core.DefaultS0}},
		{{Benchmark: "ckt1", Scale: 0.25}, {Benchmark: "ckt1", Scale: 0.25, Moments: 6, S0: 1e9}},
		{{Benchmark: "ckt4", Scale: 0.1}, {Benchmark: "ckt4", Scale: 0.1, Moments: 8}},
	}
	for i, pair := range collide {
		if a, b := pair[0].ID(), pair[1].ID(); a != b {
			t.Errorf("pair %d: %q != %q, want defaulted and spelled-out keys to collide", i, a, b)
		}
	}

	// Distinct keys must never collide.
	distinct := []ModelKey{
		{Benchmark: "ckt1", Scale: 0.25},
		{Benchmark: "ckt2", Scale: 0.25},
		{Benchmark: "ckt1", Scale: 0.1},
		{Benchmark: "ckt1", Scale: 0.25, Moments: 7},
		{Benchmark: "ckt1", Scale: 0.25, S0: 2e9},
		{Benchmark: "ckt1", Scale: 0.25, RCOnly: true},
		{Benchmark: "ckt1", Scale: 0.25, Moments: 7, S0: 2e9},
		{Benchmark: "ckt2", Scale: 0.1, RCOnly: true},
	}
	seen := make(map[string]ModelKey, len(distinct))
	for _, k := range distinct {
		id := k.ID()
		if prev, ok := seen[id]; ok {
			t.Errorf("keys %+v and %+v collide on ID %q", prev, k, id)
		}
		seen[id] = k
		// IDs are URL/query-safe: no '+', no spaces.
		if strings.ContainsAny(id, "+ /?&#%") {
			t.Errorf("ID %q contains URL-unsafe characters", id)
		}
	}
	// ID is stable against pre-normalized input.
	k := ModelKey{Benchmark: "ckt1", Scale: 0.25}
	k.Normalize()
	if k.ID() != (ModelKey{Benchmark: "ckt1", Scale: 0.25}).ID() {
		t.Error("ID differs between normalized and raw key")
	}
}

// TestModelKeyIDAdversarialNames pins the injectivity of the ID encoding
// against hostile benchmark names. The previous "%s-%g-…" encoding collided
// for names containing '+' (stripped away: "a+b" and "ab" shared an ID) and
// left '-'-laden names free to mimic other keys' field boundaries; the
// escaped encoding must keep every distinct normalized key on a distinct ID.
func TestModelKeyIDAdversarialNames(t *testing.T) {
	// The historical collision: '+' was stripped after formatting.
	plus := ModelKey{Benchmark: "a+b", Scale: 0.25}
	flat := ModelKey{Benchmark: "ab", Scale: 0.25}
	if plus.ID() == flat.ID() {
		t.Fatalf("%q and %q still collide on %q", plus.Benchmark, flat.Benchmark, plus.ID())
	}

	benches := []string{
		"ckt1", "ckt1-0.25", "ckt1-0.25-l6-s01e09", "ckt1-0.25-l6-s01e09-rc",
		"a", "a-b", "a+b", "ab", "a%b", "a%2Db", "x-1e", "x", "a-0.25-l6",
		"-", "--", "rc", "-rc", "l6", "s01e09",
	}
	scales := []float64{0.25, 1e-7, 2.5}
	moments := []int{0, 7}
	seen := make(map[string]ModelKey)
	for _, b := range benches {
		for _, s := range scales {
			for _, l := range moments {
				for _, rc := range []bool{false, true} {
					k := ModelKey{Benchmark: b, Scale: s, Moments: l, RCOnly: rc}
					id := k.ID()
					norm := k
					norm.Normalize()
					if prev, ok := seen[id]; ok && prev != norm {
						t.Fatalf("distinct keys share ID %q:\n  %+v\n  %+v", id, prev, norm)
					}
					seen[id] = norm
				}
			}
		}
	}

	// Store-key compatibility: the standard benchmarks contain no escaped
	// characters, so their IDs (and store addresses) are unchanged from the
	// previous encoding.
	if id := (ModelKey{Benchmark: "ckt1", Scale: 0.25}).ID(); id != "ckt1-0.25-l6-s01e09" {
		t.Fatalf("standard ID changed: %q", id)
	}
	if id := (ModelKey{Benchmark: "ckt2", Scale: 0.1, RCOnly: true}).ID(); id != "ckt2-0.1-l10-s01e09-rc" {
		t.Fatalf("standard RC ID changed: %q", id)
	}
}

// TestBuildPhaseContract pins the serving layer's OnPhase contract: a default
// build reports each of the six phase labels exactly once — grid_build, the
// four core phases, and modalize. Zeros for skipped stages are pinned by
// core's own phase-contract test.
func TestBuildPhaseContract(t *testing.T) {
	key := ModelKey{Benchmark: "ckt1", Scale: 0.1}
	key.Normalize()
	t.Run("default", func(t *testing.T) {
		counts := map[string]int{}
		durs := map[string]time.Duration{}
		m, err := buildModel(key, func(ph string, d time.Duration) {
			counts[ph]++
			durs[ph] += d
		})
		if err != nil {
			t.Fatal(err)
		}
		want := append([]string{"grid_build"}, core.Phases...)
		want = append(want, "modalize")
		for _, ph := range want {
			if counts[ph] != 1 {
				t.Errorf("phase %q reported %d times, want exactly 1 (counts: %v)", ph, counts[ph], counts)
			}
		}
		if len(counts) != len(want) {
			t.Errorf("got %d phase labels %v, want exactly %v", len(counts), counts, want)
		}
		if durs["modalize"] <= 0 {
			t.Errorf("modalize reported %v, want the measured stage time", durs["modalize"])
		}
		if m.WardEliminated <= 0 {
			t.Errorf("RLC benchmark build eliminated %d states via Ward, want > 0", m.WardEliminated)
		}
	})
}

// TestRepositoryWardCounters verifies builds feed the ward counter exposed
// through RepoStats (and from there pgserve_ward_eliminated_states_total).
func TestRepositoryWardCounters(t *testing.T) {
	r := NewRepository(4)
	m, outcome, err := r.Get(ModelKey{Benchmark: "ckt1", Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeBuilt {
		t.Fatalf("outcome = %v, want built", outcome)
	}
	if st := r.Stats(); st.WardEliminatedStates != int64(m.WardEliminated) || m.WardEliminated <= 0 {
		t.Errorf("WardEliminatedStates = %d, model WardEliminated = %d, want equal and > 0",
			st.WardEliminatedStates, m.WardEliminated)
	}
}
