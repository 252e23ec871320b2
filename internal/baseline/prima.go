// Package baseline implements the competing multi-port reduction schemes the
// paper evaluates BDSM against (Table I, Table II, Fig. 5): PRIMA (standard
// block Krylov congruence), EKS (input-dependent extended Krylov subspace),
// and SVDMOR (SVD-based terminal reduction). The implementations share the
// krylov substrate with BDSM so cost comparisons are apples-to-apples.
package baseline

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/dense"
	"repro/internal/krylov"
	"repro/internal/lti"
	"repro/internal/sparse"
)

// ErrBudgetExceeded is returned when a scheme's projected dense working set
// exceeds Options.MemoryBudget. This reproduces the "break down" entries of
// Table II: PRIMA and SVDMOR hold an n×(m·l) dense basis plus a dense ROM,
// which no longer fits on the paper's 4 GB workstation for ckt4 and ckt5.
var ErrBudgetExceeded = errors.New("baseline: projected memory exceeds budget (scheme breaks down)")

// DefaultMemoryBudget mirrors the paper's 4 GB analysis workstation.
const DefaultMemoryBudget = int64(4) << 30

// Options configures the baseline reductions.
type Options struct {
	// S0 is the real expansion point (default core.DefaultS0 = 1e9).
	S0 float64
	// Moments is the matched moment count l (default 6).
	Moments int
	// Backend and Iter configure pencil solves as in package core.
	Backend krylov.Backend
	Iter    sparse.IterOptions
	// MemoryBudget bounds the dense working set in bytes; 0 means
	// DefaultMemoryBudget, negative means unlimited.
	MemoryBudget int64
	// Stats, when non-nil, receives cost accounting.
	Stats *Stats
}

// Stats mirrors core.Stats for the baseline schemes.
type Stats struct {
	Ortho          dense.OrthoStats
	PencilSolves   int
	FactorNNZ      int
	FactorTime     time.Duration
	ReduceTime     time.Duration
	BasisColumns   int
	PeakBasisBytes int64
}

func (o *Options) defaults() {
	if o.S0 == 0 {
		o.S0 = 1e9
	}
	if o.Moments == 0 {
		o.Moments = 6
	}
	if o.MemoryBudget == 0 {
		o.MemoryBudget = DefaultMemoryBudget
	}
}

// basisBudgetBytes estimates the dense working set of a full-basis scheme:
// the n×q orthonormal basis, the n×q congruence workspace (C·V and G·V
// panels), and the dense q×q ROM matrices.
func basisBudgetBytes(n, q int) int64 {
	return int64(n)*int64(q)*8*2 + int64(q)*int64(q)*8*3
}

// PRIMA reduces the system with the standard block Arnoldi congruence
// projection of Odabasioglu et al., matching l block moments (eq. 4–5).
// The result is a dense size-(m·l) descriptor ROM.
func PRIMA(sys *lti.SparseSystem, opts Options) (*lti.DenseSystem, error) {
	opts.defaults()
	n, m, _ := sys.Dims()
	q := m * opts.Moments
	if opts.MemoryBudget > 0 {
		if need := basisBudgetBytes(n, q); need > opts.MemoryBudget {
			return nil, fmt.Errorf("%w: PRIMA needs ≈%d MiB for an n=%d, q=%d basis, budget %d MiB",
				ErrBudgetExceeded, need>>20, n, q, opts.MemoryBudget>>20)
		}
	}
	tf := time.Now()
	op, err := krylov.NewOperator(sys, opts.S0, krylov.OperatorOptions{
		Backend: opts.Backend, Iter: opts.Iter,
	})
	if err != nil {
		return nil, fmt.Errorf("baseline: PRIMA: %w", err)
	}
	factorTime := time.Since(tf)

	tr := time.Now()
	r, err := op.StartBlock()
	if err != nil {
		return nil, fmt.Errorf("baseline: PRIMA: %w", err)
	}
	var ortho *dense.OrthoStats
	if opts.Stats != nil {
		ortho = &opts.Stats.Ortho
	}
	basis, err := krylov.BlockArnoldi(op, r, opts.Moments, ortho)
	if err != nil {
		return nil, fmt.Errorf("baseline: PRIMA: %w", err)
	}
	rom := krylov.Congruence(sys, basis)
	if opts.Stats != nil {
		st := opts.Stats
		st.PencilSolves += op.Solves()
		st.FactorNNZ += op.FactorNNZ
		st.FactorTime += factorTime
		st.ReduceTime += time.Since(tr)
		st.BasisColumns += basis.Len()
		st.PeakBasisBytes = basisBudgetBytes(n, basis.Len())
	}
	return rom, nil
}
