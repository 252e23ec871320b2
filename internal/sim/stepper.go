package sim

import (
	"fmt"

	"repro/internal/lti"
)

// StepperOptions configures a resumable fixed-step integrator.
type StepperOptions struct {
	// Method is the implicit rule used by non-modal fallback blocks.
	// Default BackwardEuler. Modal blocks advance by exact per-mode
	// exponentials regardless.
	Method Method
	// Dt is the fixed time step (required, > 0). It is baked into the
	// per-block propagators at construction and cannot change mid-session.
	Dt float64
}

// stepperBlock is one block of a Stepper: exactly one of the two states is
// non-nil.
type stepperBlock struct {
	modal    *modalBlockState
	implicit *implicitBlockState
}

// Stepper is a resumable fixed-step transient integrator over a
// block-diagonal (optionally modal) ROM: the pause/resume core that
// SimulateModal and SimulateBlockDiag run to completion in one call, exposed
// so long-lived sessions can advance incrementally, change the drive waveform
// between advances, and snapshot/restore their tiny per-mode state without
// ever recomputing from t = 0.
//
// The integration state is x(0) = 0 at step 0; Advance moves the clock
// forward n steps at a time. A Stepper is not safe for concurrent use — wrap
// it in a mutex when shared (serve.Session does).
type Stepper struct {
	blocks      []stepperBlock
	uNow, uNext []float64
	h           float64
	k           int // current step index; time = k·h
	m, p        int
}

func (o *StepperOptions) validate() error {
	if o.Dt <= 0 {
		return fmt.Errorf("sim: stepper Dt must be positive, got %g", o.Dt)
	}
	return nil
}

// methodBeta is the implicit-rule weight β (see TransientOptions.beta).
func methodBeta(m Method) float64 {
	if m == Trapezoidal {
		return 0.5
	}
	return 1
}

// NewStepper builds a resumable integrator over a modal system: modal blocks
// advance by exact per-mode exponentials (exact for piecewise-linear drives),
// the rest by the implicit rule of opts.Method — the same split SimulateModal
// makes.
func NewStepper(ms *lti.ModalSystem, opts StepperOptions) (*Stepper, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	_, m, p := ms.Dims()
	h, beta := opts.Dt, methodBeta(opts.Method)
	blocks := make([]stepperBlock, len(ms.Blocks))
	for i := range ms.Blocks {
		mb := &ms.Blocks[i]
		if mb.Modal {
			blocks[i] = stepperBlock{modal: newModalBlockState(mb, h)}
			continue
		}
		st, err := newImplicitBlockState(&ms.BD.Blocks[i], h, beta)
		if err != nil {
			return nil, fmt.Errorf("sim: block %d: %w", i, err)
		}
		blocks[i] = stepperBlock{implicit: st}
	}
	return newStepper(blocks, opts, m, p), nil
}

// NewImplicitStepper builds a resumable integrator that steps every block of
// a block-diagonal ROM with the implicit rule of opts.Method — the resumable
// form of SimulateBlockDiag.
func NewImplicitStepper(bd *lti.BlockDiagSystem, opts StepperOptions) (*Stepper, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	_, m, p := bd.Dims()
	h, beta := opts.Dt, methodBeta(opts.Method)
	blocks := make([]stepperBlock, len(bd.Blocks))
	for i := range bd.Blocks {
		st, err := newImplicitBlockState(&bd.Blocks[i], h, beta)
		if err != nil {
			return nil, fmt.Errorf("sim: block %d: %w", i, err)
		}
		blocks[i] = stepperBlock{implicit: st}
	}
	return newStepper(blocks, opts, m, p), nil
}

func newStepper(blocks []stepperBlock, opts StepperOptions, m, p int) *Stepper {
	return &Stepper{
		blocks: blocks,
		uNow:   make([]float64, m),
		uNext:  make([]float64, m),
		h:      opts.Dt,
		m:      m,
		p:      p,
	}
}

// Step returns the current step index; the session clock is Step()·Dt.
func (st *Stepper) Step() int { return st.k }

// Time returns the current integration time.
func (st *Stepper) Time() float64 { return float64(st.k) * st.h }

// Dt returns the fixed step size.
func (st *Stepper) Dt() float64 { return st.h }

// Outputs returns the output row width.
func (st *Stepper) Outputs() int { return st.p }

// outputInto accumulates the output row from the current block states and
// the current left-endpoint inputs into y (length p), zeroing it first.
//
//pgmor:noalloc
func (st *Stepper) outputInto(y []float64) {
	for r := range y {
		y[r] = 0
	}
	for i := range st.blocks {
		if b := &st.blocks[i]; b.modal != nil {
			b.modal.addOutput(y, st.uNow[b.modal.input])
		} else {
			b.implicit.addOutput(y)
		}
	}
}

// output is the allocating form of outputInto, for the once-per-session
// Output call.
func (st *Stepper) output() []float64 {
	y := make([]float64, st.p)
	st.outputInto(y)
	return y
}

// stepAll advances every block one step with the staged endpoint inputs,
// one block after another.
//
//pgmor:noalloc
func (st *Stepper) stepAll() {
	for i := range st.blocks {
		if b := &st.blocks[i]; b.modal != nil {
			b.modal.step(st.uNow[b.modal.input], st.uNext[b.modal.input])
		} else {
			b.implicit.step(st.uNow[b.implicit.input], st.uNext[b.implicit.input])
		}
	}
}

// Output evaluates input at the current time and returns the output row —
// the t = Step()·Dt sample a caller emits before (or between) Advances. The
// initial row of a run is Output at step 0.
func (st *Stepper) Output(input Input) ([]float64, error) {
	if input == nil {
		return nil, fmt.Errorf("sim: stepper Input waveform is required")
	}
	input(st.Time(), st.uNow)
	return st.output(), nil
}

// Advance integrates n further steps driven by input and returns one row per
// step, at times (k+1)·Dt … (k+n)·Dt. The waveform is evaluated at absolute
// session time and may differ between calls — a switch takes effect from the
// left endpoint of the next step, with the block states carrying over
// untouched, so a drive change never restarts the transient. Advancing in
// any chunking is exact: the concatenated rows are bit-identical to one
// uninterrupted run with the same (deterministic) waveform.
func (st *Stepper) Advance(n int, input Input) (*Result, error) {
	if n < 0 {
		return nil, fmt.Errorf("sim: cannot advance %d steps", n)
	}
	if input == nil {
		return nil, fmt.Errorf("sim: stepper Input waveform is required")
	}
	res := newResult(n, st.p)
	if n > 0 {
		st.advanceInto(n, input, res)
	}
	return res, nil
}

// newResult allocates the n rows of a p-output advance. One backing array
// holds all n rows: an advance performs O(1) allocations regardless of step
// count, where a per-step make([]float64, p) would put n short-lived rows on
// the heap per call.
func newResult(n, p int) *Result {
	res := &Result{T: make([]float64, n), Y: make([][]float64, n)}
	yback := make([]float64, n*p)
	for i := range res.Y {
		res.Y[i] = yback[i*p : (i+1)*p : (i+1)*p]
	}
	return res
}

// advanceInto is Advance (n > 0) writing into the rows of res.
func (st *Stepper) advanceInto(n int, input Input, res *Result) {
	// Re-evaluate the left endpoint under the (possibly new) drive; for an
	// unchanged waveform this reproduces the value the previous Advance left
	// behind, because Input is a pure function of t.
	input(st.Time(), st.uNow)
	for i := 0; i < n; i++ {
		st.k++
		t := float64(st.k) * st.h
		input(t, st.uNext)
		st.stepAll()
		copy(st.uNow, st.uNext)
		st.outputInto(res.Y[i])
		res.T[i] = t
	}
}

// StepperState is a deep snapshot of a Stepper's integration state: the step
// counter plus the per-block coordinates — a few complex numbers per modal
// block, one real vector per implicit block. Slots are indexed by block;
// exactly one of Modal[i]/Implicit[i] is non-nil per block.
type StepperState struct {
	Step     int
	Modal    [][]complex128
	Implicit [][]float64
}

// Snapshot captures the current integration state. The snapshot is
// independent of the Stepper: later Advances do not mutate it.
func (st *Stepper) Snapshot() *StepperState {
	snap := &StepperState{
		Step:     st.k,
		Modal:    make([][]complex128, len(st.blocks)),
		Implicit: make([][]float64, len(st.blocks)),
	}
	for i := range st.blocks {
		if b := &st.blocks[i]; b.modal != nil {
			snap.Modal[i] = append([]complex128(nil), b.modal.z...)
		} else {
			snap.Implicit[i] = append([]float64(nil), b.implicit.x...)
		}
	}
	return snap
}

// Restore rewinds (or fast-forwards) the Stepper to a snapshot taken from a
// stepper of the same model and options. The next Advance resumes from the
// snapshot's step as if the intervening calls never happened.
func (st *Stepper) Restore(snap *StepperState) error {
	if snap == nil {
		return fmt.Errorf("sim: nil stepper snapshot")
	}
	if len(snap.Modal) != len(st.blocks) || len(snap.Implicit) != len(st.blocks) {
		return fmt.Errorf("sim: snapshot has %d/%d block slots, want %d", len(snap.Modal), len(snap.Implicit), len(st.blocks))
	}
	if snap.Step < 0 {
		return fmt.Errorf("sim: snapshot step %d is negative", snap.Step)
	}
	for i := range st.blocks {
		b := &st.blocks[i]
		switch {
		case b.modal != nil:
			if snap.Implicit[i] != nil || len(snap.Modal[i]) != len(b.modal.z) {
				return fmt.Errorf("sim: snapshot block %d does not match a modal block of %d modes", i, len(b.modal.z))
			}
		default:
			if snap.Modal[i] != nil || len(snap.Implicit[i]) != len(b.implicit.x) {
				return fmt.Errorf("sim: snapshot block %d does not match an implicit block of order %d", i, len(b.implicit.x))
			}
		}
	}
	for i := range st.blocks {
		if b := &st.blocks[i]; b.modal != nil {
			copy(b.modal.z, snap.Modal[i])
		} else {
			copy(b.implicit.x, snap.Implicit[i])
		}
	}
	st.k = snap.Step
	return nil
}
