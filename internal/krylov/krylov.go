// Package krylov implements the Krylov-subspace projection machinery shared
// by all reduction schemes in this library: a pencil operator abstraction
// A = (s0·C - G)⁻¹C backed by either a direct sparse factorization or an
// iterative solver, and a block Arnoldi process with deflation.
//
// The two kinds of backend mirror the paper's experimental setup: a direct
// factor is the fast path, while the iterative backend reproduces the
// "factorization is skipped … to save memory" regime used for the largest
// benchmarks (ckt3–ckt5). The direct factor is sparse.Factor's: for MNA
// grids, RC and RLC alike, one symmetric factor — the signed Cholesky
// factorization of the pencil with its inductor-current rows negated, a
// symmetric quasi-definite matrix (sparse.Cholesky) — and sparse LU for
// pencils that no row signing makes symmetric.
package krylov

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/dense"
	"repro/internal/lti"
	"repro/internal/sparse"
)

// Backend selects how the pencil (s0·C - G) is inverted.
type Backend int

const (
	// BackendAuto factors the pencil once with sparse.Factor: the signed
	// Cholesky factor when a row signing makes the pencil symmetric
	// quasi-definite (every RC and RLC grid), sparse LU otherwise. The
	// zero value.
	BackendAuto Backend = iota
	// BackendIterative solves with Jacobi-preconditioned BiCGStab,
	// trading time for memory on very large grids.
	BackendIterative
)

// OperatorOptions configures construction of a pencil operator.
type OperatorOptions struct {
	// Backend selects direct or iterative solves. Default BackendAuto.
	Backend Backend
	// Iter configures the iterative backend.
	Iter sparse.IterOptions
}

// Operator applies A = (s0·C - G)⁻¹ C and exposes the underlying pencil
// solve. It also counts solves for cost accounting. The Operator itself is
// not safe for concurrent use; obtain per-goroutine views with Worker.
type Operator struct {
	sys    *lti.SparseSystem
	s0     float64
	solver sparse.Solver[float64]
	direct sparse.Direct // non-nil for the direct backend
	buf    []float64
	solves atomic.Int64
	// FactorNNZ is the direct-factor fill (0 for the iterative backend).
	FactorNNZ int
}

// NewOperator builds the expansion-point operator for sys at s0. The pencil
// s0·C - G is assembled exactly once, in sparse form, and shared by the
// symmetry probe and the chosen factorization — on million-node grids the
// assembly itself is a measurable fraction of factor time, so it is never
// repeated. No dense n×n intermediate is formed on any path.
func NewOperator(sys *lti.SparseSystem, s0 float64, opts OperatorOptions) (*Operator, error) {
	pencil := sys.C.Add(s0, sys.G, -1)
	switch opts.Backend {
	case BackendAuto:
		f, err := sparse.Factor(pencil, sparse.LUOptions{})
		if err != nil {
			return nil, fmt.Errorf("krylov: factoring pencil at s0=%g: %w", s0, err)
		}
		return newDirectOperator(sys, s0, f), nil
	case BackendIterative:
		it, err := sparse.NewBiCGStab(pencil, opts.Iter)
		if err != nil {
			return nil, fmt.Errorf("krylov: building iterative solver: %w", err)
		}
		n, _, _ := sys.Dims()
		return &Operator{sys: sys, s0: s0, solver: it, buf: make([]float64, n)}, nil
	}
	return nil, fmt.Errorf("krylov: unknown backend %d", opts.Backend)
}

// newDirectOperator builds the operator over f, a factor of s0·C - G.
func newDirectOperator(sys *lti.SparseSystem, s0 float64, f sparse.Direct) *Operator {
	n, _, _ := sys.Dims()
	return &Operator{sys: sys, s0: s0, solver: f, direct: f, buf: make([]float64, n), FactorNNZ: f.NNZ()}
}

// N returns the state dimension.
func (op *Operator) N() int { n, _, _ := op.sys.Dims(); return n }

// S0 returns the expansion point.
func (op *Operator) S0() float64 { return op.s0 }

// Solves reports how many pencil solves were performed through this
// operator and all of its workers.
func (op *Operator) Solves() int { return int(op.solves.Load()) }

// SolvePencil computes dst = (s0·C - G)⁻¹ b. dst and b may alias.
func (op *Operator) SolvePencil(dst, b []float64) error {
	op.solves.Add(1)
	return op.solver.Solve(dst, b)
}

// Apply computes dst = (s0·C - G)⁻¹ C x. dst and x may alias.
func (op *Operator) Apply(dst, x []float64) error {
	op.sys.C.MatVec(op.buf, x)
	op.solves.Add(1)
	return op.solver.Solve(dst, op.buf)
}

// Worker returns a view of the operator that is safe to use concurrently
// with other workers: it shares the factorization (read-only) but owns its
// scratch buffers. Solve counts are merged into the parent atomically.
func (op *Operator) Worker() *Worker {
	n := op.N()
	return &Worker{op: op, buf: make([]float64, n), w: make([]float64, n)}
}

// Worker is a goroutine-local view of an Operator. Each worker may be used
// by one goroutine at a time.
type Worker struct {
	op     *Operator
	buf, w []float64
	// panel is two interleaved panels of n·PanelWidth, allocated on first
	// use: the panel solve's scratch, and congruence's C·V and G·V.
	panel  []float64
	lpanel []float64 // congruence's L·V, p·PanelWidth
}

// panels returns the worker's two panel scratch buffers.
func (wk *Worker) panels() (a, b []float64) {
	size := wk.op.N() * sparse.PanelWidth
	if wk.panel == nil {
		wk.panel = make([]float64, 2*size)
	}
	return wk.panel[:size:size], wk.panel[size:]
}

// SolvePencil computes dst = (s0·C - G)⁻¹ b. dst and b may alias.
func (wk *Worker) SolvePencil(dst, b []float64) error {
	wk.op.solves.Add(1)
	if d := wk.op.direct; d != nil {
		d.SolveBuf(dst, b, wk.w)
		return nil
	}
	return wk.op.solver.Solve(dst, b)
}

// Apply computes dst = (s0·C - G)⁻¹ C x. dst and x may alias.
func (wk *Worker) Apply(dst, x []float64) error {
	wk.op.sys.C.MatVec(wk.buf, x)
	return wk.SolvePencil(dst, wk.buf)
}

// StartColumn returns r = (s0·C - G)⁻¹ bⱼ.
func (wk *Worker) StartColumn(j int) ([]float64, error) {
	r := wk.op.sys.BColumn(j)
	if err := wk.SolvePencil(r, r); err != nil {
		return nil, fmt.Errorf("krylov: start column %d: %w", j, err)
	}
	return r, nil
}

// StartLanes sets lane k of the panel x (n·PanelWidth, interleaved as
// sparse.PanelWidth describes) to the start vector (s0·C - G)⁻¹ b_{first+k}
// for every k < lanes, in one pass over the factor, and the remaining lanes
// to zero. Each lane equals StartColumn(first+k) under ==; a zero bⱼ yields
// a zero lane.
func (wk *Worker) StartLanes(x []float64, first, lanes int) error {
	const pw = sparse.PanelWidth
	b := wk.op.sys.B
	clear(x)
	var live [pw]bool
	for k := 0; k < lanes; k++ {
		j := first + k
		for p := b.ColPtr[j]; p < b.ColPtr[j+1]; p++ {
			x[b.RowIdx[p]*pw+k] = b.Val[p]
		}
		live[k] = true
	}
	if err := wk.solveLanes(x, &live); err != nil {
		return fmt.Errorf("krylov: start columns %d..%d: %w", first, first+lanes-1, err)
	}
	return nil
}

// ApplyLanes sets lane k of the panel dst to (s0·C - G)⁻¹ C (lane k of
// src) for every lane with live[k], in one pass over C and one over the
// factor, counting one solve per live lane. Each such lane equals Apply on
// that lane under ==. Lanes that are not live must be zero in src; they
// come back zero in dst. dst and src must not alias.
func (wk *Worker) ApplyLanes(dst, src []float64, live *[sparse.PanelWidth]bool) error {
	wk.op.sys.C.MulPanel(dst, src)
	return wk.solveLanes(dst, live)
}

// solveLanes overwrites each live lane of the panel x with its pencil
// solve, counting one solve per live lane. The direct backend solves all
// lanes in one pass over the factor; the iterative backend unpacks, solves
// and packs back lane by lane.
func (wk *Worker) solveLanes(x []float64, live *[sparse.PanelWidth]bool) error {
	const pw = sparse.PanelWidth
	for _, ok := range live {
		if ok {
			wk.op.solves.Add(1)
		}
	}
	if d := wk.op.direct; d != nil {
		scratch, _ := wk.panels()
		d.SolvePanel(x, scratch)
		return nil
	}
	for k, ok := range live {
		if !ok {
			continue
		}
		for i := range wk.buf {
			wk.buf[i] = x[i*pw+k]
		}
		if err := wk.op.solver.Solve(wk.w, wk.buf); err != nil {
			return err
		}
		for i, v := range wk.w {
			x[i*pw+k] = v
		}
	}
	return nil
}

// StartBlock returns R = (s0·C - G)⁻¹ B as dense columns — the first block
// of every Krylov recurrence (eq. 4/10 of the paper) — solved
// sparse.PanelWidth columns per pass over the factor.
func (op *Operator) StartBlock() ([][]float64, error) {
	n, m, _ := op.sys.Dims()
	wk := op.Worker()
	x := make([]float64, n*sparse.PanelWidth)
	r := make([][]float64, m)
	for j := range r {
		r[j] = make([]float64, n)
	}
	for j := 0; j < m; j += sparse.PanelWidth {
		cols := r[j:min(j+sparse.PanelWidth, m)]
		if err := wk.StartLanes(x, j, len(cols)); err != nil {
			return nil, fmt.Errorf("krylov: start block: %w", err)
		}
		sparse.UnpackPanel(cols, x)
	}
	return r, nil
}

// StartColumn returns r = (s0·C - G)⁻¹ bⱼ for a single input column.
func (op *Operator) StartColumn(j int) ([]float64, error) {
	r := op.sys.BColumn(j)
	if err := op.SolvePencil(r, r); err != nil {
		return nil, fmt.Errorf("krylov: start column %d: %w", j, err)
	}
	return r, nil
}

// ErrEmptyBasis is returned when Arnoldi deflates every candidate vector —
// e.g. a zero input matrix.
var ErrEmptyBasis = errors.New("krylov: all candidate vectors deflated; empty basis")

// BlockArnoldi builds an orthonormal basis of the block Krylov subspace
// K_l(A, R) = span{R, AR, …, A^{l-1}R} with modified Gram–Schmidt and
// deflation, following the PRIMA construction: each new block is A applied
// to the previously orthonormalized block. Deflated directions stop
// propagating. The result spans at most l·len(r) columns.
func BlockArnoldi(op *Operator, r [][]float64, l int, stats *dense.OrthoStats) (*dense.Basis[float64], error) {
	if l < 1 {
		return nil, fmt.Errorf("krylov: moment count l must be ≥ 1, got %d", l)
	}
	basis := dense.NewBasis[float64](op.N(), stats)
	if err := ExtendArnoldi(op, basis, r, l); err != nil {
		return nil, err
	}
	if basis.Len() == 0 {
		return nil, ErrEmptyBasis
	}
	return basis, nil
}

// ExtendArnoldi appends the block Krylov chain K_l(A, R) to basis: R first,
// then l-1 rounds, each applying A to the columns the previous round
// accepted and appending the results in order. A round's sources are fixed
// before any of its appends, so the round advances them
// sparse.PanelWidth at a time through one panel apply each.
func ExtendArnoldi(op *Operator, basis *dense.Basis[float64], r [][]float64, l int) error {
	const pw = sparse.PanelWidth
	var cur []int
	for _, col := range r {
		if basis.Append(col) {
			cur = append(cur, basis.Len()-1)
		}
	}
	if l < 2 || len(cur) == 0 {
		return nil
	}
	n := op.N()
	wk := op.Worker()
	src, dst := make([]float64, n*pw), make([]float64, n*pw)
	out := make([][]float64, pw)
	for k := range out {
		out[k] = make([]float64, n)
	}
	var in [pw][]float64
	for j := 1; j < l && len(cur) > 0; j++ {
		var next []int
		for c := 0; c < len(cur); c += pw {
			group := cur[c:min(c+pw, len(cur))]
			var live [pw]bool
			for k, idx := range group {
				in[k], live[k] = basis.Col(idx), true
			}
			sparse.PackPanel(src, in[:len(group)])
			if err := wk.ApplyLanes(dst, src, &live); err != nil {
				return fmt.Errorf("krylov: Arnoldi step %d: %w", j, err)
			}
			sparse.UnpackPanel(out[:len(group)], dst)
			for k := range group {
				if basis.Append(out[k]) {
					next = append(next, basis.Len()-1)
				}
			}
		}
		cur = next
	}
	return nil
}
