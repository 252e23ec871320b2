package bench

import (
	"fmt"
	"io"
	"math"
	"math/cmplx"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/krylov"
	"repro/internal/lti"
	"repro/internal/ward"
)

// ScaleRung is one instance of the scale ladder: a multiscale grid of
// roughly Nodes states reduced end-to-end through the sparse-first pipeline
// (Ward pre-reduction + BDSM), with the per-phase wall clock split out.
type ScaleRung struct {
	Nodes int `json:"nodes"`
	NNZ   int `json:"nnz"` // G + C nonzeros of the assembled system
	Ports int `json:"ports"`
	// Ward partition shape: External states eliminated exactly, Boundary
	// kept states carrying the Schur correction.
	External int `json:"external"`
	Boundary int `json:"boundary"`
	Kept     int `json:"kept"`
	// Order is the final ROM order (Σ block sizes).
	Order int `json:"order"`

	BuildSeconds     float64 `json:"build_seconds"`
	PartitionSeconds float64 `json:"partition_seconds"`
	SchurSeconds     float64 `json:"schur_seconds"`
	FactorSeconds    float64 `json:"factor_seconds"`
	KrylovSeconds    float64 `json:"krylov_seconds"`
	// The Krylov phase split into pencil solves, Gram–Schmidt and
	// congruence: core.Stats worker time summed over workers, so with
	// several workers the three add up to more than KrylovSeconds.
	KrylovSolveSeconds      float64 `json:"krylov_solve_seconds"`
	KrylovOrthoSeconds      float64 `json:"krylov_ortho_seconds"`
	KrylovCongruenceSeconds float64 `json:"krylov_congruence_seconds"`
	// ReduceSeconds is the total core.Reduce wall clock (all phases).
	ReduceSeconds float64 `json:"reduce_seconds"`
}

// ScaleResult is the machine-readable record of `pgbench -exp scale`
// (BENCH_scale.json) — the reduction-time-vs-n trajectory every scaling
// change is measured against.
type ScaleResult struct {
	Name       string `json:"name"`
	MaxNodes   int    `json:"max_nodes"`
	Moments    int    `json:"moments"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`

	Rungs []ScaleRung `json:"rungs"`

	// FitExponent is the least-squares slope of log(reduce_seconds) against
	// log(nnz) across the rungs: ≈1 means reduction cost scales with nnz,
	// ≈2 would mean the dense-era n² behavior has crept back in.
	FitExponent float64 `json:"fit_exponent"`

	// WardMaxError is the worst relative transfer-function deviation of the
	// Ward-reduced system vs the full system at the load ports, measured on
	// the smallest rung (full-system evaluation is O(n) LU solves, so only
	// the smallest rung is checked). The elimination is exact; anything
	// above 1e-8 fails the run.
	WardMaxError        float64 `json:"ward_max_error"`
	WardErrorCheckNodes int     `json:"ward_error_check_nodes"`
}

// WardTolerance is the acceptance bar for the Ward equivalence check: the
// Schur elimination is exact in exact arithmetic, so anything beyond solver
// roundoff signals a defect.
const WardTolerance = 1e-8

// Scale runs the scale ladder: multiscale grids of maxNodes, maxNodes/2,
// maxNodes/4 and maxNodes/8 states, each assembled sparsely and reduced
// end-to-end with Ward pre-reduction enabled. The smallest rung additionally
// verifies Ward exactness against the unreduced system.
func Scale(cfg Config, maxNodes int) (*ScaleResult, error) {
	cfg.defaults()
	if maxNodes < 1000 {
		return nil, fmt.Errorf("bench: scale ladder needs maxNodes ≥ 1000, got %d", maxNodes)
	}
	const moments = 4
	res := &ScaleResult{
		Name:       "scale",
		MaxNodes:   maxNodes,
		Moments:    moments,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}

	var sizes []int
	for d := 8; d >= 1; d /= 2 {
		sizes = append(sizes, maxNodes/d)
	}
	for _, nodes := range sizes {
		mcfg, err := grid.MultiscaleBenchmark(nodes)
		if err != nil {
			return nil, err
		}
		tBuild := time.Now()
		model, err := mcfg.Build()
		if err != nil {
			return nil, err
		}
		buildSec := time.Since(tBuild).Seconds()
		sys, err := lti.NewSparseSystem(model.C, model.G, model.B, model.L)
		if err != nil {
			return nil, err
		}

		rung := ScaleRung{
			Nodes:        model.N,
			NNZ:          sys.G.NNZ() + sys.C.NNZ(),
			Ports:        mcfg.NumPorts(),
			BuildSeconds: buildSec,
		}
		var stats core.Stats
		phases := map[string]time.Duration{}
		tReduce := time.Now()
		rom, err := core.Reduce(sys, core.Options{
			Moments:    moments,
			Backend:    krylov.BackendAuto,
			Workers:    cfg.Workers,
			WardReduce: true,
			Stats:      &stats,
			OnPhase:    func(ph string, d time.Duration) { phases[ph] += d },
		})
		if err != nil {
			return nil, fmt.Errorf("bench: scale rung %d nodes: %w", model.N, err)
		}
		rung.ReduceSeconds = time.Since(tReduce).Seconds()
		rung.PartitionSeconds = phases["partition"].Seconds()
		rung.SchurSeconds = phases["schur"].Seconds()
		rung.FactorSeconds = phases["factor"].Seconds()
		rung.KrylovSeconds = phases["krylov"].Seconds()
		rung.KrylovSolveSeconds = stats.SolveTime.Seconds()
		rung.KrylovOrthoSeconds = stats.OrthoTime.Seconds()
		rung.KrylovCongruenceSeconds = stats.CongruenceTime.Seconds()
		rung.External = stats.Ward.External
		rung.Boundary = stats.Ward.Boundary
		rung.Kept = stats.Ward.Internal + stats.Ward.Boundary
		romN, _, _ := rom.Dims()
		rung.Order = romN
		res.Rungs = append(res.Rungs, rung)
	}

	// Ward exactness on the smallest rung: reduce with ward alone and
	// compare full transfer matrices.
	small, err := grid.MultiscaleBenchmark(sizes[0])
	if err != nil {
		return nil, err
	}
	model, err := small.Build()
	if err != nil {
		return nil, err
	}
	sys, err := lti.NewSparseSystem(model.C, model.G, model.B, model.L)
	if err != nil {
		return nil, err
	}
	wres, err := ward.Reduce(sys, ward.Options{Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	if wres.Stats.External == 0 {
		return nil, fmt.Errorf("bench: multiscale rung eliminated no states; backbone is not static")
	}
	res.WardErrorCheckNodes = model.N
	for _, w := range []float64{1e5, 1e8, 1e11} {
		s := complex(0, w)
		hFull, err := sys.Eval(s)
		if err != nil {
			return nil, err
		}
		hWard, err := wres.Sys.Eval(s)
		if err != nil {
			return nil, err
		}
		_, m, p := sys.Dims()
		for i := 0; i < p; i++ {
			for j := 0; j < m; j++ {
				d := cmplx.Abs(hFull.At(i, j)-hWard.At(i, j)) / (1 + cmplx.Abs(hFull.At(i, j)))
				if d > res.WardMaxError {
					res.WardMaxError = d
				}
			}
		}
	}
	if res.WardMaxError > WardTolerance {
		return nil, fmt.Errorf("bench: ward-reduced transfer function deviates by %.3g (> %g) on the %d-node rung",
			res.WardMaxError, WardTolerance, model.N)
	}

	res.FitExponent = fitLogLogSlope(res.Rungs)
	return res, nil
}

// fitLogLogSlope returns the least-squares slope of log(reduce_seconds)
// vs log(nnz) over the rungs; 0 when degenerate (too few rungs or
// unmeasurably fast runs).
func fitLogLogSlope(rungs []ScaleRung) float64 {
	var xs, ys []float64
	for _, r := range rungs {
		if r.NNZ <= 0 || r.ReduceSeconds <= 0 {
			continue
		}
		xs = append(xs, math.Log(float64(r.NNZ)))
		ys = append(ys, math.Log(r.ReduceSeconds))
	}
	if len(xs) < 2 {
		return 0
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(len(xs))
	my /= float64(len(ys))
	var num, den float64
	for i := range xs {
		num += (xs[i] - mx) * (ys[i] - my)
		den += (xs[i] - mx) * (xs[i] - mx)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Render prints the ladder as a table.
func (r *ScaleResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Sparse-first scale ladder (moments=%d, %d workers)\n", r.Moments, r.GoMaxProcs)
	fmt.Fprintf(w, "%10s %10s %9s %9s %6s %8s %8s %8s %8s %8s %8s %8s %8s %8s\n",
		"nodes", "nnz", "external", "kept", "order", "build", "part", "schur", "factor", "krylov",
		"solve", "ortho", "congr", "reduce")
	for _, rg := range r.Rungs {
		fmt.Fprintf(w, "%10d %10d %9d %9d %6d %7.2fs %7.3fs %7.3fs %7.2fs %7.2fs %7.2fs %7.2fs %7.2fs %7.2fs\n",
			rg.Nodes, rg.NNZ, rg.External, rg.Kept, rg.Order,
			rg.BuildSeconds, rg.PartitionSeconds, rg.SchurSeconds,
			rg.FactorSeconds, rg.KrylovSeconds, rg.KrylovSolveSeconds, rg.KrylovOrthoSeconds,
			rg.KrylovCongruenceSeconds, rg.ReduceSeconds)
	}
	fmt.Fprintln(w, "solve/ortho/congr: Krylov worker time summed over workers")
	fmt.Fprintf(w, "log-log fit: reduce_seconds ∝ nnz^%.2f\n", r.FitExponent)
	fmt.Fprintf(w, "ward exactness: max relative deviation %.3g on %d nodes (bar %g)\n",
		r.WardMaxError, r.WardErrorCheckNodes, WardTolerance)
}
