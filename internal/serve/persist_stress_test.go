package serve

import (
	"reflect"
	"sync"
	"testing"
)

// TestStoreRestartContentionStress hammers one store directory the way a
// fleet of restarting servers would: two repositories write through
// concurrently while builds race, then successive "restarts" open fresh
// repositories whose concurrent Gets and Preloads must all be served from
// disk — zero reductions, no torn reads, every ROM bit-identical to the
// first build, and nothing quarantined. Run with -race.
func TestStoreRestartContentionStress(t *testing.T) {
	dir := t.TempDir()
	keys := []ModelKey{
		{Benchmark: "ckt1", Scale: 0.08},
		{Benchmark: "ckt1", Scale: 0.1},
	}

	// Round 0: two repositories on one directory, concurrent Gets on every
	// key from both — concurrent builds and write-throughs of the same
	// files collide at the rename level and must both survive.
	repoA := NewRepositoryWithStore(openStore(t, dir))
	repoB := NewRepositoryWithStore(openStore(t, dir))
	refs := make([]*Model, len(keys))
	var wg sync.WaitGroup
	for _, repo := range []*Repository{repoA, repoB} {
		for ki := range keys {
			for dup := 0; dup < 3; dup++ {
				repo, ki := repo, ki
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, _, err := repo.Get(keys[ki]); err != nil {
						t.Errorf("round 0 Get(%s): %v", keys[ki].ID(), err)
					}
				}()
			}
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for ki, k := range keys {
		m, _, err := repoA.Get(k)
		if err != nil {
			t.Fatalf("reference Get(%s): %v", k.ID(), err)
		}
		refs[ki] = m
	}

	// Rounds 1..n: simulated restarts. Fresh store handle + repository;
	// concurrent Gets race a concurrent Preload on the same directory.
	const rounds, goroutines = 3, 12
	for round := 1; round <= rounds; round++ {
		repo := NewRepositoryWithStore(openStore(t, dir))
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := repo.Preload(); err != nil {
				t.Errorf("round %d Preload: %v", round, err)
			}
		}()
		for g := 0; g < goroutines; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				ki := g % len(keys)
				m, _, err := repo.Get(keys[ki])
				if err != nil {
					t.Errorf("round %d Get(%s): %v", round, keys[ki].ID(), err)
					return
				}
				if !reflect.DeepEqual(m.ROM, refs[ki].ROM) {
					t.Errorf("round %d: restored ROM for %s differs from reference", round, keys[ki].ID())
				}
			}()
		}
		wg.Wait()
		if st := repo.Stats(); st.Builds != 0 {
			t.Fatalf("round %d performed %d reductions, want 0 (store should satisfy everything)", round, st.Builds)
		}
	}

	// Checksums held under all that contention: every file is still valid.
	final := openStore(t, dir)
	metas, err := final.Scan()
	if err != nil {
		t.Fatalf("final Scan: %v", err)
	}
	if len(metas) != len(keys) {
		t.Fatalf("store holds %d entries after stress, want %d", len(metas), len(keys))
	}
	if st := final.Stats(); st.Quarantined != 0 {
		t.Fatalf("store stats = %+v, want nothing quarantined", st)
	}
}
