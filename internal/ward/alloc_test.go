package ward

import (
	"testing"

	"repro/internal/sparse"
)

// The Schur scatter runs once per boundary column per panel solve; like the
// triangular solves it feeds, it must not allocate.

//pgmor:alloctest schurScatter
func TestSchurScatterAllocs(t *testing.T) {
	x := make([]float64, 64*sparse.PanelWidth)
	rows := []int{1, 5, 9, 33, 5}
	vals := []float64{0.5, -1, 2, 3, 0.25}
	const k = 3
	allocs := testing.AllocsPerRun(100, func() {
		schurScatter(x[k:], rows, vals)
	})
	if allocs != 0 {
		t.Fatalf("schurScatter allocates %.1f times per call, want 0", allocs)
	}
	if x[5*sparse.PanelWidth+k] == 0 || x[5*sparse.PanelWidth] != 0 {
		t.Fatal("scatter did not accumulate into lane k alone")
	}
}
