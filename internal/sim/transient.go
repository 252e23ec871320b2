package sim

import (
	"fmt"

	"repro/internal/dense"
	"repro/internal/lti"
	"repro/internal/sparse"
)

// Method selects the fixed-step integration rule.
type Method int

const (
	// BackwardEuler is L-stable first order — robust default for stiff
	// power-grid models.
	BackwardEuler Method = iota
	// Trapezoidal is A-stable second order — more accurate for smooth
	// waveforms at equal step.
	Trapezoidal
)

func (m Method) String() string {
	switch m {
	case BackwardEuler:
		return "be"
	case Trapezoidal:
		return "trap"
	}
	return "unknown"
}

// TransientOptions configures a fixed-step transient run of
// C dx/dt = G x + B u from x(0) = 0.
type TransientOptions struct {
	// Method is the integration rule. Default BackwardEuler.
	Method Method
	// Dt is the fixed time step (required, > 0).
	Dt float64
	// T is the end time (required, > 0); steps = round(T/Dt).
	T float64
	// Input drives the ports (required).
	Input Input
}

func (o *TransientOptions) Validate() error {
	if o.Dt <= 0 || o.T <= 0 {
		return fmt.Errorf("sim: Dt and T must be positive, got %g, %g", o.Dt, o.T)
	}
	if o.Input == nil {
		return fmt.Errorf("sim: Input waveform is required")
	}
	return nil
}

// Result holds a transient waveform: Y[k] are the outputs at T[k].
type Result struct {
	T []float64
	Y [][]float64
}

// Steps computes the fixed step count of the run.
func (o *TransientOptions) Steps() int {
	n := int(o.T/o.Dt + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// integration constants: the step equation for C x' = G x + B u is
//
//	(C - β·h·G) x_{k+1} = (C + (h-β·h)·G) x_k + h·[β·B·u_{k+1} + (1-β)·B·u_k]
//
// with β = 1 (BE) or β = 1/2 (trapezoidal); see methodBeta.
func (o *TransientOptions) beta() float64 { return methodBeta(o.Method) }

// SimulateSparse integrates the full sparse descriptor model with one sparse
// factorization of (C - β·h·G) (sparse.Factor: the same quasi-definite
// structure as the Krylov pencil) and one solve per step.
func SimulateSparse(sys *lti.SparseSystem, opts TransientOptions) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n, m, _ := sys.Dims()
	h, beta := opts.Dt, opts.beta()
	f, err := sparse.Factor(sys.C.Add(1, sys.G, -beta*h), sparse.LUOptions{})
	if err != nil {
		return nil, fmt.Errorf("sim: transient pencil singular (C - βhG): %w", err)
	}
	rhsMat := sys.C.Add(1, sys.G, (1-beta)*h)

	x := make([]float64, n)
	rhs := make([]float64, n)
	w := make([]float64, n)
	uNow := make([]float64, m)
	uNext := make([]float64, m)
	bu := make([]float64, n)
	steps := opts.Steps()
	res := &Result{T: make([]float64, 0, steps+1), Y: make([][]float64, 0, steps+1)}
	record := func(t float64) {
		res.T = append(res.T, t)
		res.Y = append(res.Y, sys.ApplyL(x))
	}
	opts.Input(0, uNow)
	record(0)
	bcsr := sys.B.ToCSR()
	for k := 1; k <= steps; k++ {
		t := float64(k) * h
		opts.Input(t, uNext)
		rhsMat.MatVec(rhs, x)
		// rhs += h·(β·B·u_{k+1} + (1-β)·B·u_k)
		for i := range bu {
			bu[i] = 0
		}
		for j := 0; j < m; j++ {
			c := h * (beta*uNext[j] + (1-beta)*uNow[j])
			if c == 0 {
				continue
			}
			for p := sys.B.ColPtr[j]; p < sys.B.ColPtr[j+1]; p++ {
				bu[sys.B.RowIdx[p]] += sys.B.Val[p] * c
			}
		}
		sparse.Axpy(rhs, 1, bu)
		f.SolveBuf(x, rhs, w)
		record(t)
		copy(uNow, uNext)
	}
	_ = bcsr
	return res, nil
}

// SimulateDense integrates a dense descriptor ROM with one dense LU
// factorization and an O(q²) solve per step — the O(m³l³)-flavored cost the
// paper attributes to PRIMA ROM simulation.
func SimulateDense(d *lti.DenseSystem, opts TransientOptions) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	q, m, _ := d.Dims()
	h, beta := opts.Dt, opts.beta()
	lhs := d.C.Clone().Add(d.G.Clone().Scale(-beta * h))
	lu, err := dense.FactorLU(lhs)
	if err != nil {
		return nil, fmt.Errorf("sim: ROM transient pencil singular: %w", err)
	}
	rhsMat := d.C.Clone().Add(d.G.Clone().Scale((1 - beta) * h))

	x := make([]float64, q)
	rhs := make([]float64, q)
	uNow := make([]float64, m)
	uNext := make([]float64, m)
	bu := make([]float64, q)
	uw := make([]float64, m)
	steps := opts.Steps()
	res := &Result{T: make([]float64, 0, steps+1), Y: make([][]float64, 0, steps+1)}
	opts.Input(0, uNow)
	res.T = append(res.T, 0)
	res.Y = append(res.Y, d.ApplyOutput(x))
	for k := 1; k <= steps; k++ {
		t := float64(k) * h
		opts.Input(t, uNext)
		for i := 0; i < q; i++ {
			rhs[i] = sparse.Dot(rhsMat.Row(i), x)
		}
		for j := 0; j < m; j++ {
			uw[j] = h * (beta*uNext[j] + (1-beta)*uNow[j])
		}
		d.ApplyInput(bu, uw)
		sparse.Axpy(rhs, 1, bu)
		if err := lu.Solve(x, rhs); err != nil {
			return nil, err
		}
		res.T = append(res.T, t)
		res.Y = append(res.Y, d.ApplyOutput(x))
		copy(uNow, uNext)
	}
	return res, nil
}

// implicitBlockState is the per-block fixed-step implicit integrator state
// shared by SimulateBlockDiag and (for non-modal fallback blocks)
// SimulateModal: one LU of (C − βhG) per run, one O(l²) solve per step.
type implicitBlockState struct {
	lu      *dense.LU[float64]
	rhsMat  *dense.Mat[float64]
	x, rhs  []float64
	b       []float64 // input vector
	l       *dense.Mat[float64]
	input   int
	h, beta float64
}

func newImplicitBlockState(blk *lti.Block, h, beta float64) (*implicitBlockState, error) {
	lhs := blk.C.Clone().Add(blk.G.Clone().Scale(-beta * h))
	lu, err := dense.FactorLU(lhs)
	if err != nil {
		return nil, fmt.Errorf("sim: transient pencil singular: %w", err)
	}
	lsz := blk.Order()
	return &implicitBlockState{
		lu:     lu,
		rhsMat: blk.C.Clone().Add(blk.G.Clone().Scale((1 - beta) * h)),
		x:      make([]float64, lsz),
		rhs:    make([]float64, lsz),
		b:      blk.B,
		l:      blk.L,
		input:  blk.Input,
		h:      h,
		beta:   beta,
	}, nil
}

// step advances one implicit step with endpoint inputs u0, u1.
func (st *implicitBlockState) step(u0, u1 float64) {
	for i := range st.rhs {
		st.rhs[i] = sparse.Dot(st.rhsMat.Row(i), st.x)
	}
	c := st.h * (st.beta*u1 + (1-st.beta)*u0)
	for i := range st.rhs {
		st.rhs[i] += c * st.b[i]
	}
	// Factored solve never fails after successful factorization.
	_ = st.lu.Solve(st.x, st.rhs)
}

// addOutput accumulates y += L·x.
func (st *implicitBlockState) addOutput(y []float64) {
	for r := range y {
		y[r] += sparse.Dot(st.l.Row(r), st.x)
	}
}

// SimulateBlockDiag integrates a BDSM block-diagonal ROM: each l×l block is
// factored once and solved independently per step, at O(m·l²) per step
// versus O(m²l²) for the dense ROM.
func SimulateBlockDiag(bd *lti.BlockDiagSystem, opts TransientOptions) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	st, err := NewImplicitStepper(bd, StepperOptions{Method: opts.Method, Dt: opts.Dt})
	if err != nil {
		return nil, err
	}
	return runStepper(st, opts)
}

// runStepper drives a freshly built Stepper through one complete transient:
// the t = 0 row, then every remaining step in a single Advance.
func runStepper(st *Stepper, opts TransientOptions) (*Result, error) {
	steps := opts.Steps()
	res := &Result{T: make([]float64, 0, steps+1), Y: make([][]float64, 0, steps+1)}
	y0, err := st.Output(opts.Input)
	if err != nil {
		return nil, err
	}
	res.T = append(res.T, 0)
	res.Y = append(res.Y, y0)
	chunk, err := st.Advance(steps, opts.Input)
	if err != nil {
		return nil, err
	}
	res.T = append(res.T, chunk.T...)
	res.Y = append(res.Y, chunk.Y...)
	return res, nil
}
