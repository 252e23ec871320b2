package baseline

import (
	"fmt"
	"time"

	"repro/internal/dense"
	"repro/internal/krylov"
	"repro/internal/lti"
)

// PRIMAMultipoint runs PRIMA with rational (multi-point) Krylov projection:
// the basis is the union of the block Krylov spaces at each expansion point
// (Elfadel & Ling's block rational Arnoldi, ref. [15] of the paper), giving
// wideband accuracy at the cost of one factorization per point. The ROM
// matches opts.Moments block moments at every point in points.
func PRIMAMultipoint(sys *lti.SparseSystem, points []float64, opts Options) (*lti.DenseSystem, error) {
	opts.defaults()
	if len(points) == 0 {
		points = []float64{opts.S0}
	}
	n, m, _ := sys.Dims()
	q := m * opts.Moments * len(points)
	if opts.MemoryBudget > 0 {
		if need := basisBudgetBytes(n, q); need > opts.MemoryBudget {
			return nil, fmt.Errorf("%w: multipoint PRIMA needs ≈%d MiB (n=%d, q=%d), budget %d MiB",
				ErrBudgetExceeded, need>>20, n, q, opts.MemoryBudget>>20)
		}
	}
	var ortho *dense.OrthoStats
	if opts.Stats != nil {
		ortho = &opts.Stats.Ortho
	}
	basis := dense.NewBasis[float64](n, ortho)
	tr := time.Now()
	for _, s0 := range points {
		tf := time.Now()
		op, err := krylov.NewOperator(sys, s0, krylov.OperatorOptions{
			Backend: opts.Backend, Iter: opts.Iter,
		})
		if err != nil {
			return nil, fmt.Errorf("baseline: multipoint PRIMA at s0=%g: %w", s0, err)
		}
		if opts.Stats != nil {
			opts.Stats.FactorTime += time.Since(tf)
			opts.Stats.FactorNNZ += op.FactorNNZ
		}
		r, err := op.StartBlock()
		if err != nil {
			return nil, err
		}
		// Grow the shared basis with this point's block Krylov chain: the
		// per-point recurrence iterates on this point's accepted columns.
		if err := krylov.ExtendArnoldi(op, basis, r, opts.Moments); err != nil {
			return nil, err
		}
		if opts.Stats != nil {
			opts.Stats.PencilSolves += op.Solves()
		}
	}
	if basis.Len() == 0 {
		return nil, krylov.ErrEmptyBasis
	}
	rom := krylov.Congruence(sys, basis)
	if opts.Stats != nil {
		opts.Stats.ReduceTime += time.Since(tr)
		opts.Stats.BasisColumns += basis.Len()
		opts.Stats.PeakBasisBytes = basisBudgetBytes(n, basis.Len())
	}
	return rom, nil
}
