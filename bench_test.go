// Benchmarks regenerating every table and figure of the paper plus the
// ablations called out in DESIGN.md. Run:
//
//	go test -bench=. -benchmem
//
// Scales default to small grids so the suite completes quickly; use
// cmd/pgbench -scale 1 for paper-size instances. Custom metrics expose the
// paper's cost quantities (orthonormalization dot products, ROM nonzeros,
// pencil solves) alongside wall-clock time.
package repro

import (
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/krylov"
	"repro/internal/lti"
	"repro/internal/sparse"
)

const benchScale = 0.2

func buildBench(b *testing.B, name string, scale float64) *lti.SparseSystem {
	b.Helper()
	cfg, err := Benchmark(name, scale)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := BuildGrid(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkTableI regenerates the measured Table I scheme comparison.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.TableI(bench.Config{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 4 {
			b.Fatal("incomplete Table I")
		}
	}
}

// BenchmarkTableII regenerates Table II rows; each sub-benchmark is one
// circuit so `-bench TableII/ckt1` isolates a row.
func BenchmarkTableII(b *testing.B) {
	for _, ckt := range []string{"ckt1", "ckt2", "ckt3"} {
		b.Run(ckt, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bench.TableII(bench.Config{Scale: benchScale}, []string{ckt})
				if err != nil {
					b.Fatal(err)
				}
				row := res.Rows[0]
				bdsm := row.Scheme("BDSM")
				prima := row.Scheme("PRIMA")
				if bdsm.Err != nil {
					b.Fatal(bdsm.Err)
				}
				b.ReportMetric(float64(bdsm.MORTime.Microseconds()), "bdsm-µs")
				if !prima.BrokeDown {
					b.ReportMetric(float64(prima.MORTime.Microseconds()), "prima-µs")
				}
			}
		})
	}
}

// BenchmarkFig4 regenerates the ROM structure comparison.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig4(bench.Config{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.BDSMGrPct, "bdsm-Gr-%")
		b.ReportMetric(res.PRIMAGrPct, "prima-Gr-%")
	}
}

// BenchmarkFig5 regenerates the accuracy sweep (both panels).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig5(bench.Config{Scale: benchScale, SweepPoints: 21})
		if err != nil {
			b.Fatal(err)
		}
		e, err := res.MaxRelErrBelow("BDSM", 1e10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(e, "bdsm-relerr")
	}
}

// BenchmarkAblationOrthoCost isolates the paper's central cost claim: the
// clustered orthonormalization of BDSM versus PRIMA's global one, measured
// in long-vector dot products on identical systems.
func BenchmarkAblationOrthoCost(b *testing.B) {
	sys := buildBench(b, "ckt1", benchScale)
	b.Run("BDSM", func(b *testing.B) {
		var dots int64
		for i := 0; i < b.N; i++ {
			var st core.Stats
			if _, err := core.Reduce(sys, core.Options{Moments: 6, Stats: &st}); err != nil {
				b.Fatal(err)
			}
			dots = st.Ortho.DotProducts
		}
		b.ReportMetric(float64(dots), "dots")
	})
	b.Run("PRIMA", func(b *testing.B) {
		var dots int64
		for i := 0; i < b.N; i++ {
			var st baseline.Stats
			if _, err := baseline.PRIMA(sys, baseline.Options{Moments: 6, MemoryBudget: -1, Stats: &st}); err != nil {
				b.Fatal(err)
			}
			dots = st.Ortho.DotProducts
		}
		b.ReportMetric(float64(dots), "dots")
	})
}

// BenchmarkAblationROMStorage measures the m·l² versus O(m²l²) nonzero
// storage claim.
func BenchmarkAblationROMStorage(b *testing.B) {
	sys := buildBench(b, "ckt1", benchScale)
	bdsm, err := core.Reduce(sys, core.Options{Moments: 6})
	if err != nil {
		b.Fatal(err)
	}
	prima, err := baseline.PRIMA(sys, baseline.Options{Moments: 6, MemoryBudget: -1})
	if err != nil {
		b.Fatal(err)
	}
	_, gb, _, _ := bdsm.NNZ()
	_, gp, _, _ := prima.NNZ()
	for i := 0; i < b.N; i++ {
		_, _, _, _ = bdsm.NNZ()
	}
	b.ReportMetric(float64(gb), "bdsm-Gr-nnz")
	b.ReportMetric(float64(gp), "prima-Gr-nnz")
}

// BenchmarkAblationROMSolve measures per-frequency ROM evaluation: the
// O(m·l³) block solve versus the O(m³l³) dense solve, swept over port count.
func BenchmarkAblationROMSolve(b *testing.B) {
	for _, ports := range []int{8, 16, 32} {
		cfg, err := Benchmark("ckt1", 0.3)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Ports = ports
		sys, err := BuildGrid(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rom, err := core.Reduce(sys, core.Options{Moments: 4})
		if err != nil {
			b.Fatal(err)
		}
		denseROM := rom.ToDense()
		s := complex(0, 1e9)
		b.Run(fmt.Sprintf("block/m=%d", ports), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rom.Eval(s); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("dense/m=%d", ports), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := denseROM.Eval(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationReuse compares answering a new input pattern with a
// reusable BDSM ROM (evaluate only) versus EKS (rebuild then evaluate) —
// the Table I reusability row in time units.
func BenchmarkAblationReuse(b *testing.B) {
	sys := buildBench(b, "ckt1", benchScale)
	_, m, _ := sys.Dims()
	rom, err := core.Reduce(sys, core.Options{Moments: 6})
	if err != nil {
		b.Fatal(err)
	}
	s := complex(0, 1e9)
	b.Run("BDSM-reuse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rom.Eval(s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("EKS-rebuild", func(b *testing.B) {
		pattern := make([]float64, m)
		for i := 0; i < b.N; i++ {
			pattern[i%m] = float64(i%3 + 1) // the input changed → rebuild
			eks, err := baseline.EKS(sys, pattern, baseline.Options{Moments: 6})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eks.ResponseEval(s); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationMultipoint compares single-point and multi-point BDSM.
func BenchmarkAblationMultipoint(b *testing.B) {
	sys := buildBench(b, "ckt1", benchScale)
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Reduce(sys, core.Options{S0: 1e9, Moments: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("threepoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Reduce(sys, core.Options{Points: []float64{1e8, 1e10, 1e12}, Moments: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationAMD compares sparse LU fill and time in natural and AMD
// order on the MNA pencil — the substrate choice that keeps factorization
// feasible.
func BenchmarkAblationAMD(b *testing.B) {
	sys := buildBench(b, "ckt3", benchScale)
	pencil := sys.Pencil(1e9)
	for _, ord := range []sparse.Ordering{sparse.OrderNatural, sparse.OrderAMD} {
		b.Run(ord.String(), func(b *testing.B) {
			var fill int
			for i := 0; i < b.N; i++ {
				lu, err := sparse.FactorLU(pencil, sparse.LUOptions{Ordering: ord})
				if err != nil {
					b.Fatal(err)
				}
				fill = lu.NNZ()
			}
			b.ReportMetric(float64(fill), "fill-nnz")
		})
	}
}

// BenchmarkAMD times the fill-reducing ordering alone on the pencils the
// Krylov operator factors in the two reduce workloads: full-scale ckt1 and
// the 50k-node multiscale grid, each after Ward pre-reduction. fill-nnz is
// the fill of the factor the operator builds under that ordering.
func BenchmarkAMD(b *testing.B) {
	ms, err := MultiscaleBenchmark(50000)
	if err != nil {
		b.Fatal(err)
	}
	gm, err := ms.Build()
	if err != nil {
		b.Fatal(err)
	}
	multiscale, err := lti.NewSparseSystem(gm.C, gm.G, gm.B, gm.L)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		sys  *lti.SparseSystem
	}{{"ckt1", buildBench(b, "ckt1", 1)}, {"multiscale50000", multiscale}} {
		wres, err := ReduceWard(c.sys, WardOptions{})
		if err != nil {
			b.Fatal(err)
		}
		pencil := wres.Sys.Pencil(core.DefaultS0)
		b.Run(c.name, func(b *testing.B) {
			for b.Loop() {
				sparse.AMD(pencil)
			}
			op, err := krylov.NewOperator(wres.Sys, core.DefaultS0, krylov.OperatorOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(op.FactorNNZ), "fill-nnz")
		})
	}
}

// BenchmarkAblationBackend compares the direct and iterative (streaming)
// pencil backends inside BDSM — the paper's skip-the-factorization mode.
func BenchmarkAblationBackend(b *testing.B) {
	sys := buildBench(b, "ckt1", benchScale)
	n, _, _ := sys.Dims()
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Reduce(sys, core.Options{Moments: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bicgstab", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opts := core.Options{Moments: 4, Backend: krylov.BackendIterative,
				Iter: sparse.IterOptions{Tol: 1e-12, MaxIter: 20 * n}}
			if _, err := core.Reduce(sys, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkROMSerialization measures ROM save/load round-trips.
func BenchmarkROMSerialization(b *testing.B) {
	sys := buildBench(b, "ckt1", benchScale)
	rom, err := core.Reduce(sys, core.Options{Moments: 6})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if err := lti.SaveBlockDiag(io.Discard, rom); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSparseLU is the substrate microbenchmark: factor+solve of a
// power-grid pencil.
func BenchmarkSparseLU(b *testing.B) {
	sys := buildBench(b, "ckt2", benchScale)
	pencil := sys.Pencil(1e9)
	n, _ := pencil.Dims()
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1
	}
	b.Run("factor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sparse.FactorLU(pencil, sparse.LUOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	lu, err := sparse.FactorLU(pencil, sparse.LUOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("solve", func(b *testing.B) {
		x := make([]float64, n)
		for i := 0; i < b.N; i++ {
			if err := lu.Solve(x, rhs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSolvePanel compares eight single-vector solves with one panel
// solve over the ckt1 pencil's LU factor: the Krylov phase's unit of work
// before and after panelling. ns/op is per eight right-hand sides.
func BenchmarkSolvePanel(b *testing.B) {
	sys := buildBench(b, "ckt1", 1)
	lu, err := sparse.FactorLU(sys.Pencil(core.DefaultS0), sparse.LUOptions{})
	if err != nil {
		b.Fatal(err)
	}
	n := lu.N()
	rhs := make([]float64, n*sparse.PanelWidth)
	for i := range rhs {
		rhs[i] = float64(i%7) - 3
	}
	x := make([]float64, len(rhs))
	w := make([]float64, len(rhs))
	b.Run("solvebuf-x8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := 0; k < sparse.PanelWidth; k++ {
				lu.SolveBuf(x[k*n:(k+1)*n], rhs[k*n:(k+1)*n], w[:n])
			}
		}
	})
	b.Run("panel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(x, rhs)
			lu.SolvePanel(x, w)
		}
	})
}

// BenchmarkPencilFactor compares sparse LU with the factor the automatic
// backend picks — the signed Cholesky factor of the quasi-definite pencil —
// on full-scale ckt1's pencil after Ward pre-reduction: "factor" times the
// factorization from the assembled CSR pencil, "panel" one 8-lane
// SolvePanel over it. fill-nnz is the factor's stored entries.
func BenchmarkPencilFactor(b *testing.B) {
	wres, err := ReduceWard(buildBench(b, "ckt1", 1), WardOptions{})
	if err != nil {
		b.Fatal(err)
	}
	pencil := wres.Sys.C.Add(core.DefaultS0, wres.Sys.G, -1)
	for _, c := range []struct {
		name   string
		factor func() (sparse.Direct, error)
	}{
		{"lu", func() (sparse.Direct, error) { return sparse.FactorLU(pencil.ToCSC(), sparse.LUOptions{}) }},
		{"auto", func() (sparse.Direct, error) { return sparse.Factor(pencil, sparse.LUOptions{}) }},
	} {
		f, err := c.factor()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/factor", func(b *testing.B) {
			for b.Loop() {
				if _, err := c.factor(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(f.NNZ()), "fill-nnz")
		})
		b.Run(c.name+"/panel", func(b *testing.B) {
			x := make([]float64, f.N()*sparse.PanelWidth)
			w := make([]float64, len(x))
			for b.Loop() {
				for i := range x {
					x[i] = float64(i%7) - 3
				}
				f.SolvePanel(x, w)
			}
			b.ReportMetric(float64(f.NNZ()), "fill-nnz")
		})
	}
}

// BenchmarkKrylovPhase times BDSM's Krylov phase (steps 3–5 of Algorithm 1)
// on the grids of the two reduce workloads, full-scale ckt1 (l = 6) and
// the 50k-node multiscale grid (l = 4), each after Ward pre-reduction and
// with the automatic backend. One worker makes the Stats split of the
// phase — solve-ms, ortho-ms and congruence-ms per op — add up to its
// wall clock; ns/op also includes the factorization.
func BenchmarkKrylovPhase(b *testing.B) {
	ms, err := MultiscaleBenchmark(50000)
	if err != nil {
		b.Fatal(err)
	}
	gm, err := ms.Build()
	if err != nil {
		b.Fatal(err)
	}
	multiscale, err := lti.NewSparseSystem(gm.C, gm.G, gm.B, gm.L)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		sys     *lti.SparseSystem
		moments int
	}{{"ckt1", buildBench(b, "ckt1", 1), 6}, {"multiscale50000", multiscale, 4}} {
		wres, err := ReduceWard(c.sys, WardOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			var st core.Stats
			for b.Loop() {
				if _, err := core.Reduce(wres.Sys, core.Options{Moments: c.moments,
					Backend: krylov.BackendAuto, Workers: 1, Stats: &st}); err != nil {
					b.Fatal(err)
				}
			}
			perOp := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
			b.ReportMetric(perOp(st.SolveTime), "solve-ms")
			b.ReportMetric(perOp(st.OrthoTime), "ortho-ms")
			b.ReportMetric(perOp(st.CongruenceTime), "congruence-ms")
		})
	}
}
