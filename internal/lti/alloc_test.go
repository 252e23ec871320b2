package lti

import "testing"

// modalFixture builds the fully-modal RC system every alloc test shares.
func modalFixture(t *testing.T) *ModalSystem {
	t.Helper()
	ms, err := rcBlockDiag().Modalize()
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// TestModalEvalAllocBound pins Eval's deliberate allocations: the result
// matrix and one column of scratch, a fixed count that must not scale with
// the number of blocks or frequencies evaluated.
//
//pgmor:alloctest ModalSystem.Eval
func TestModalEvalAllocBound(t *testing.T) {
	ms := modalFixture(t)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ms.Eval(complex(0, 3)); err != nil {
			t.Fatal(err)
		}
	})
	// NewMat (header + backing) plus the scratch column; one of slack for
	// runtime noise.
	if allocs > 4 {
		t.Fatalf("Eval allocates %.1f times per call, want the fixed result+scratch count ≤ 4", allocs)
	}
}

// TestModalSweepEntryIntoAllocs: the vectorized per-entry sweep is
// allocation-free on a fully-modal system (the lazy scratch is only for
// fallback blocks).
//
//pgmor:alloctest ModalSystem.SweepEntryInto
func TestModalSweepEntryIntoAllocs(t *testing.T) {
	ms := modalFixture(t)
	omegas := []float64{0.1, 1, 10, 100}
	dst := make([]complex128, len(omegas))
	allocs := testing.AllocsPerRun(100, func() {
		if err := ms.SweepEntryInto(dst, 0, 0, omegas); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SweepEntryInto allocates %.1f times per call, want 0", allocs)
	}
}

// TestPackedSweepEntriesIntoAllocBound: the batched sweep's deliberate
// allocations (column grouping map, reciprocal row) are O(columns), never
// O(entries × frequencies) — the same bound must hold as the grid grows.
//
//pgmor:alloctest ModalPacked.SweepEntriesInto
func TestPackedSweepEntriesIntoAllocBound(t *testing.T) {
	ms := modalFixture(t)
	mp := ms.Pack()
	_, m, p := ms.Dims()
	var entries [][2]int
	for r := 0; r < p; r++ {
		for c := 0; c < m; c++ {
			entries = append(entries, [2]int{r, c})
		}
	}
	for _, nw := range []int{8, 128} {
		omegas := make([]float64, nw)
		for i := range omegas {
			omegas[i] = 0.1 * float64(i+1)
		}
		dst := make([]complex128, len(entries)*nw)
		allocs := testing.AllocsPerRun(50, func() {
			if err := mp.SweepEntriesInto(dst, entries, omegas); err != nil {
				t.Fatal(err)
			}
		})
		// Map + per-column index slices + reciprocal row, independent of
		// the frequency count.
		if allocs > 10 {
			t.Fatalf("SweepEntriesInto(%d freqs) allocates %.1f times per call, want O(columns) ≤ 10", nw, allocs)
		}
	}
}
