package ward

import (
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

// TestSchurPanelsMatchColumnSolves pins the panelled Schur solves: on the
// multiscale grid (Cholesky external block, dozens of boundary columns) and
// on RLC ckt1 (pad midpoints), Reduce's G′ equals the column-at-a-time
// elimination bit for bit, in the dense and in the streaming path.
func TestSchurPanelsMatchColumnSolves(t *testing.T) {
	ms, err := grid.MultiscaleBenchmark(50000)
	if err != nil {
		t.Fatal(err)
	}
	msModel, err := ms.Build()
	if err != nil {
		t.Fatal(err)
	}
	ckt1, err := grid.Benchmark("ckt1", 1)
	if err != nil {
		t.Fatal(err)
	}
	ckt1Model, err := ckt1.Build()
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*grid.Model{"multiscale": msModel, "ckt1": ckt1Model} {
		sys, err := lti.NewSparseSystem(m.C, m.G, m.B, m.L)
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
			if res.Stats.Fallback != "" || res.Stats.Solves == 0 {
				t.Fatalf("%s: no Schur solves (stats %+v)", name, res.Stats)
			}
			want := columnSchurG(t, sys, res.Part, opts)
			got := res.Sys.G
			if !equalCSRBits(got, want) {
				t.Fatalf("%s (dense boundary ≤ %d): panelled G′ differs from column-at-a-time G′",
					name, opts.MaxDenseBoundary)
			}
			t.Logf("%s: %d boundary columns, %d solves, backend %s", name,
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
