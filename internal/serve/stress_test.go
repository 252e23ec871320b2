package serve

import (
	"errors"
	"sync"
	"testing"
)

// TestRepositorySingleFlight hammers Get with identical and distinct keys
// from many goroutines and checks every caller of a key receives the same
// immutable *Model, built exactly once.
func TestRepositorySingleFlight(t *testing.T) {
	repo := NewRepository(0)
	keys := []ModelKey{
		{Benchmark: "ckt1", Scale: 0.08},
		{Benchmark: "ckt1", Scale: 0.08, Moments: 6}, // normalizes to the same entry
		{Benchmark: "ckt1", Scale: 0.12},
	}
	const goroutines = 24
	models := make([]*Model, goroutines)
	built := make([]bool, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, outcome, err := repo.Get(keys[g%len(keys)])
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			models[g] = m
			built[g] = outcome == OutcomeBuilt
		}()
	}
	wg.Wait()
	byID := make(map[string]*Model)
	builds := 0
	for g := 0; g < goroutines; g++ {
		if models[g] == nil {
			t.Fatalf("goroutine %d got no model", g)
		}
		if prev, ok := byID[models[g].ID]; ok && prev != models[g] {
			t.Fatalf("model %s has two distinct handles", models[g].ID)
		}
		byID[models[g].ID] = models[g]
		if built[g] {
			builds++
		}
	}
	if len(byID) != 2 {
		t.Fatalf("got %d distinct models, want 2 (keys 0 and 1 normalize together)", len(byID))
	}
	if builds != 2 {
		t.Fatalf("%d goroutines performed builds, want exactly 2", builds)
	}
	if got := len(repo.Models()); got != 2 {
		t.Fatalf("repository lists %d models, want 2", got)
	}
}

// TestRepositoryBound checks the admission limit: the repository refuses new
// keys once full but keeps serving the models it holds.
func TestRepositoryBound(t *testing.T) {
	repo := NewRepository(2)
	for _, scale := range []float64{0.08, 0.1} {
		if _, _, err := repo.Get(ModelKey{Benchmark: "ckt1", Scale: scale}); err != nil {
			t.Fatalf("admitting scale %g: %v", scale, err)
		}
	}
	if _, _, err := repo.Get(ModelKey{Benchmark: "ckt1", Scale: 0.12}); !errors.Is(err, ErrRepositoryFull) {
		t.Fatalf("third model: err = %v, want ErrRepositoryFull", err)
	}
	if _, outcome, err := repo.Get(ModelKey{Benchmark: "ckt1", Scale: 0.1}); err != nil || outcome != OutcomeMemHit {
		t.Fatalf("resident model after full: outcome=%v err=%v", outcome, err)
	}
}
