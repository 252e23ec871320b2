package ward

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/lti"
	"repro/internal/sparse"
)

// columnSchurG returns G′ = G_KK − G_KE·N⁻¹·G_EK as the elimination builds
// it when it solves one boundary column at a time: G_EK's column scattered
// into a zero vector, one SolveBuf, each boundary row of G_KE gathered from
// +0 in order, the correction symmetrized when dense and G is symmetric,
// and nonzero corrections stamped after G_KK.
func columnSchurG(t *testing.T, sys *lti.SparseSystem, part *Partition, opts Options) *sparse.CSR[float64] {
	t.Helper()
	g := sys.G
	n, _, _ := sys.Dims()
	ext, keep := make([]int, n), make([]int, n)
	for i := range ext {
		ext[i], keep[i] = -1, -1
	}
	for e, i := range part.External {
		ext[i] = e
	}
	for k, i := range part.Keep {
		keep[i] = k
	}
	nE, nB := len(part.External), len(part.Boundary)
	negEE := sparse.NewCOO[float64](nE, nE)
	gOut := sparse.NewCOO[float64](len(part.Keep), len(part.Keep))
	for i := 0; i < n; i++ {
		for k := g.RowPtr[i]; k < g.RowPtr[i+1]; k++ {
			j := g.ColIdx[k]
			switch {
			case ext[i] >= 0 && ext[j] >= 0:
				negEE.Add(ext[i], ext[j], -g.Val[k])
			case ext[i] < 0 && ext[j] < 0:
				gOut.Add(keep[i], keep[j], g.Val[k])
			}
		}
	}
	solver, err := sparse.Factor(negEE.ToCSR(), sparse.LUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	corr := make([]float64, nB*nB) // corr[b*nB+bi]: row bi of column b
	x, w := make([]float64, nE), make([]float64, nE)
	for b, kb := range part.Boundary {
		clear(x)
		coupled := false
		for i := 0; i < n; i++ { // G_EK column kb in row order
			if ext[i] < 0 {
				continue
			}
			for k := g.RowPtr[i]; k < g.RowPtr[i+1]; k++ {
				if g.ColIdx[k] == kb {
					x[ext[i]] += g.Val[k]
					coupled = true
				}
			}
		}
		if !coupled {
			continue
		}
		solver.SolveBuf(x, x, w)
		for bi, ki := range part.Boundary {
			var sum float64
			for k := g.RowPtr[ki]; k < g.RowPtr[ki+1]; k++ {
				if e := ext[g.ColIdx[k]]; e >= 0 {
					sum += g.Val[k] * x[e]
				}
			}
			corr[b*nB+bi] = sum
		}
	}
	dense := nB <= opts.MaxDenseBoundary
	if dense && sparse.IsSymmetric(g, 1e-12) {
		for b := 0; b < nB; b++ {
			for bi := 0; bi < b; bi++ {
				avg := (corr[b*nB+bi] + corr[bi*nB+b]) / 2
				corr[b*nB+bi], corr[bi*nB+b] = avg, avg
			}
		}
	}
	for b, kb := range part.Boundary {
		for bi, ki := range part.Boundary {
			if v := corr[b*nB+bi]; v != 0 {
				gOut.Add(keep[ki], keep[kb], v)
			}
		}
	}
	return gOut.ToCSR()
}

// TestSchurPanelsMatchColumnSolves pins the panelled Schur solves and the
// direct assembly of the reduced system: Reduce's C′, G′, B′ and L′ have
// the pointers, indices and bit-identical values of cooReduced, which
// solves one column at a time and compiles triplets. It runs in the dense
// and in the streaming correction path, on the multiscale grids (Cholesky
// external block, dozens of boundary columns) and on ckt1–ckt3 (pad
// midpoints; the RC-only variants eliminate nothing).
func TestSchurPanelsMatchColumnSolves(t *testing.T) {
	type instance struct {
		name string
		m    *grid.Model
	}
	var cases []instance
	for _, nodes := range []int{5000, 50000} {
		cfg, err := grid.MultiscaleBenchmark(nodes)
		if err != nil {
			t.Fatal(err)
		}
		m, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, instance{fmt.Sprintf("multiscale%d", nodes), m})
	}
	for _, c := range []struct {
		name   string
		scale  float64
		rcOnly bool
	}{
		{grid.Ckt1, 1, false},
		{grid.Ckt1, 0.25, false}, {grid.Ckt1, 0.25, true},
		{grid.Ckt2, 0.25, false}, {grid.Ckt2, 0.25, true},
		{grid.Ckt3, 0.25, false}, {grid.Ckt3, 0.25, true},
	} {
		cfg, err := grid.Benchmark(c.name, c.scale)
		if err != nil {
			t.Fatal(err)
		}
		cfg.RCOnly = c.rcOnly
		m, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, instance{fmt.Sprintf("%s@%g rc=%v", c.name, c.scale, c.rcOnly), m})
	}
	for _, c := range cases {
		sys, err := lti.NewSparseSystem(c.m.C, c.m.G, c.m.B, c.m.L)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{
			{Workers: 2, MaxDenseBoundary: DefaultMaxDenseBoundary},
			{Workers: 3, MaxDenseBoundary: 1},
		} {
			res, err := Reduce(sys, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Fallback != "" {
				t.Fatalf("%s: fallback %s", c.name, res.Stats.Fallback)
			}
			if res.Stats.External == 0 {
				if res.Sys != sys {
					t.Fatalf("%s: nothing eliminated, but the input was not returned", c.name)
				}
				continue
			}
			if res.Stats.Solves == 0 {
				t.Fatalf("%s: no Schur solves (stats %+v)", c.name, res.Stats)
			}
			want := cooReduced(t, sys, res.Part, opts)
			for _, mat := range []struct {
				name      string
				got, want *sparse.CSR[float64]
			}{
				{"C′", res.Sys.C, want.C},
				{"G′", res.Sys.G, want.G},
				{"B′ᵀ", cscAsCSR(res.Sys.B), cscAsCSR(want.B)},
				{"L′", res.Sys.L, want.L},
			} {
				if !equalCSRBits(mat.got, mat.want) {
					t.Fatalf("%s (dense boundary ≤ %d): %s differs from the column-at-a-time COO assembly",
						c.name, opts.MaxDenseBoundary, mat.name)
				}
			}
			t.Logf("%s: %d boundary columns, %d solves, backend %s", c.name,
				res.Stats.Boundary, res.Stats.Solves, res.Stats.Backend)
		}
	}
}

func equalCSRBits(a, b *sparse.CSR[float64]) bool {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.Val {
		if a.ColIdx[k] != b.ColIdx[k] || math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
			return false
		}
	}
	return true
}

// cooReduced assembles the reduced system the way the elimination did
// through triplet builders: G′ from columnSchurG, and C′, B′, L′ by stamping
// every kept entry, renumbered, into a COO and compiling it.
func cooReduced(t *testing.T, sys *lti.SparseSystem, part *Partition, opts Options) *lti.SparseSystem {
	t.Helper()
	n, m, p := sys.Dims()
	keep := make([]int, n)
	for i := range keep {
		keep[i] = -1
	}
	for k, i := range part.Keep {
		keep[i] = k
	}
	nK := len(part.Keep)
	c := sparse.NewCOO[float64](nK, nK)
	for i := 0; i < n; i++ {
		if keep[i] < 0 {
			continue
		}
		for k := sys.C.RowPtr[i]; k < sys.C.RowPtr[i+1]; k++ {
			c.Add(keep[i], keep[sys.C.ColIdx[k]], sys.C.Val[k])
		}
	}
	b := sparse.NewCOO[float64](nK, m)
	for j := 0; j < m; j++ {
		for k := sys.B.ColPtr[j]; k < sys.B.ColPtr[j+1]; k++ {
			b.Add(keep[sys.B.RowIdx[k]], j, sys.B.Val[k])
		}
	}
	l := sparse.NewCOO[float64](p, nK)
	for i := 0; i < p; i++ {
		for k := sys.L.RowPtr[i]; k < sys.L.RowPtr[i+1]; k++ {
			l.Add(i, keep[sys.L.ColIdx[k]], sys.L.Val[k])
		}
	}
	red, err := lti.NewSparseSystem(c.ToCSR(), columnSchurG(t, sys, part, opts), b.ToCSR(), l.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	return red
}

// cscAsCSR views a CSC matrix's arrays as the CSR of its transpose.
func cscAsCSR(a *sparse.CSC[float64]) *sparse.CSR[float64] {
	r, c := a.Dims()
	return sparse.NewCSR(c, r, a.ColPtr, a.RowIdx, a.Val)
}
