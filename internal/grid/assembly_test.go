package grid

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

// MaxDenseBuildNodes caps BuildDense: the dense shim exists to cross-check
// the sparse assembly on small instances, not to assemble real grids.
const MaxDenseBuildNodes = 4096

// BuildDense assembles the same model as Build into dense row-major n×n
// arrays (paper sign convention, G = −G_std): the reference of the small-n
// property tests below. The sparse and dense paths replay the identical
// stamping sequence, so Build's compiled matrices must match these arrays
// exactly, entry for entry, with no floating-point tolerance. Instances
// beyond MaxDenseBuildNodes states are refused.
func (c *Config) BuildDense() (g, cm []float64, portNodes []int, err error) {
	if err := c.Validate(); err != nil {
		return nil, nil, nil, err
	}
	n := c.NumNodes()
	if n > MaxDenseBuildNodes {
		return nil, nil, nil, fmt.Errorf("grid: BuildDense is a small-n test shim (n = %d > %d); use Build", n, MaxDenseBuildNodes)
	}
	g = make([]float64, n*n)
	cm = make([]float64, n*n)
	rng := rand.New(rand.NewSource(c.Seed))
	portNodes = c.stampSeq(rng,
		func(i, j int, v float64) { g[i*n+j] -= v }, // dense side applies G = −G_std directly
		func(i, j int, v float64) { cm[i*n+j] += v },
	)
	return g, cm, portNodes, nil
}

// TestSparseDenseAssemblyExactEquality cross-checks the sparse fast path
// against the dense small-n shim on every seed benchmark, in both RC and RLC
// variants: identical nonzero pattern and bit-identical values, no
// tolerance. This is only possible because COO compilation is a stable sort
// — duplicate stamps sum in insertion order on both paths.
func TestSparseDenseAssemblyExactEquality(t *testing.T) {
	for _, name := range Names() {
		for _, rcOnly := range []bool{false, true} {
			cfg, err := Benchmark(name, 0.04)
			if err != nil {
				t.Fatal(err)
			}
			cfg.RCOnly = rcOnly
			m, err := cfg.Build()
			if err != nil {
				t.Fatal(err)
			}
			dg, dc, dports, err := cfg.BuildDense()
			if err != nil {
				t.Fatal(err)
			}
			n := m.N
			if len(dg) != n*n {
				t.Fatalf("%s rc=%t: dense shim has %d entries, want %d", name, rcOnly, len(dg), n*n)
			}
			for k, pn := range m.PortNodes {
				if dports[k] != pn {
					t.Fatalf("%s rc=%t: port %d node %d vs dense %d", name, rcOnly, k, pn, dports[k])
				}
			}
			checkExact(t, name+"/G", m.G, dg, n)
			checkExact(t, name+"/C", m.C, dc, n)
		}
	}
}

// checkExact verifies the CSR holds exactly the nonzeros of the dense
// row-major array: same pattern, same bits.
func checkExact(t *testing.T, label string, a *sparse.CSR[float64], d []float64, n int) {
	t.Helper()
	denseNNZ := 0
	for _, v := range d {
		if v != 0 {
			denseNNZ++
		}
	}
	if a.NNZ() != denseNNZ {
		t.Fatalf("%s: sparse nnz %d != dense nonzero count %d", label, a.NNZ(), denseNNZ)
	}
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if got, want := a.Val[k], d[i*n+j]; got != want {
				t.Fatalf("%s: entry (%d,%d) = %g, dense %g (must be bit-identical)", label, i, j, got, want)
			}
		}
	}
}

func TestBuildDenseRefusesLargeGrids(t *testing.T) {
	cfg, err := Benchmark(Ckt5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := cfg.BuildDense(); err == nil {
		t.Fatal("BuildDense must refuse million-node instances")
	}
}
