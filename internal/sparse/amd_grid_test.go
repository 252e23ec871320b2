package sparse_test

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/sparse"
)

// exactDegreeLUFill is the LU fill of the ckt1..ckt3 pencils at scale 0.25
// (RLC and RC-only variants) under the minimum-degree ordering with exact
// external degrees that AMD replaced.
var exactDegreeLUFill = map[string][2]int{
	grid.Ckt1: {6692, 6618},
	grid.Ckt2: {36272, 34874},
	grid.Ckt3: {227688, 235306},
}

// TestAMDFillNearExactDegreeOnPencils bounds the fill of the default
// (AMD-ordered) LU of each benchmark pencil by 1.10 × its exact-degree fill.
func TestAMDFillNearExactDegreeOnPencils(t *testing.T) {
	for name, exact := range exactDegreeLUFill {
		for v, rcOnly := range []bool{false, true} {
			cfg, err := grid.Benchmark(name, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			cfg.RCOnly = rcOnly
			m, err := cfg.Build()
			if err != nil {
				t.Fatal(err)
			}
			lu, err := sparse.FactorLU(gridPencil(t, m).ToCSC(), sparse.LUOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s rcOnly=%v: fill %d, exact-degree ordering %d", name, rcOnly, lu.NNZ(), exact[v])
			if 10*lu.NNZ() > 11*exact[v] {
				t.Errorf("%s rcOnly=%v: AMD fill %d exceeds 1.10 × exact-degree fill %d", name, rcOnly, lu.NNZ(), exact[v])
			}
		}
	}
}
