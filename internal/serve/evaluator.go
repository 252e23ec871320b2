package serve

import (
	"context"
	"math/cmplx"
	"sync/atomic"

	"repro/internal/dense"
	"repro/internal/obs"
	"repro/internal/sim"
)

// SweepPoint is one frequency sample of a batched AC sweep.
type SweepPoint struct {
	Omega float64 `json:"omega"`
	Re    float64 `json:"re"`
	Im    float64 `json:"im"`
	Mag   float64 `json:"mag"`
}

// Entry addresses one transfer-matrix entry H[Row][Col] in a batched sweep.
type Entry struct {
	Row int `json:"row"`
	Col int `json:"col"`
}

// EntrySweep is the result of sweeping one entry over a frequency grid.
type EntrySweep struct {
	Row    int          `json:"row"`
	Col    int          `json:"col"`
	Points []SweepPoint `json:"points"`
}

// Evaluator runs evaluation requests on the engine pool through each
// model's modal (pole–residue) form. Fully modal models evaluate
// factorization-free in O(q) per entry — no locks, no allocations on the hot
// loop. Blocks that failed to diagonalize are evaluated inline by the same
// lti kernels: a per-frequency LU in sweeps and evals, the implicit rule in
// transients.
type Evaluator struct {
	eng *Engine

	modalEvals atomic.Int64
	canceled   atomic.Int64

	// batchKernelCalls counts multi-entry sweeps served by one fused
	// ModalPacked pass; batchEntriesObs, when instrumented, records how
	// many entries each such call carried.
	batchKernelCalls atomic.Int64
	batchEntriesObs  *obs.Histogram
}

// InstrumentBatch attaches the batched-kernel entry-count histogram.
func (ev *Evaluator) InstrumentBatch(entries *obs.Histogram) { ev.batchEntriesObs = entries }

// BatchKernelCalls reports how many fused multi-entry kernel calls ran.
func (ev *Evaluator) BatchKernelCalls() int64 { return ev.batchKernelCalls.Load() }

// FactorCache is an empty placeholder type; see NewEvaluator.
type FactorCache struct{}

// NewFactorCache returns nil; see NewEvaluator.
func NewFactorCache(int64) *FactorCache { return nil }

// NewEvaluator wires an evaluator over the shared engine. The ignored
// *FactorCache and bool parameters exist only so the benchmark harness
// (perfbench/ladder.go), which still passes them, keeps compiling; the next
// change to the benchmark drops them.
func NewEvaluator(eng *Engine, _ *FactorCache, _ bool) *Evaluator {
	return &Evaluator{eng: eng}
}

// ModalEvals reports how many evaluations the evaluator has served: one per
// sweep or eval point (per input column for evals), one per transient run.
func (ev *Evaluator) ModalEvals() int64 { return ev.modalEvals.Load() }

// CanceledEvals reports how many requests were aborted mid-evaluation by
// context cancellation (client disconnects, deadlines).
func (ev *Evaluator) CanceledEvals() int64 { return ev.canceled.Load() }

// finish folds a request's terminal error through the abort counter: work
// cut short by its context is accounted so /healthz shows how much pool time
// disconnected clients released.
func (ev *Evaluator) finish(ctx context.Context, err error) error {
	if err != nil && ctx.Err() != nil {
		ev.canceled.Add(1)
	}
	return err
}

// SweepEntries evaluates several transfer-matrix entries over one shared
// frequency grid as a single engine task. Cancelling ctx skips the task if
// it has not started.
func (ev *Evaluator) SweepEntries(ctx context.Context, m *Model, entries []Entry, wMin, wMax float64, points int) ([]EntrySweep, error) {
	if len(entries) == 0 {
		return nil, badRequest("no entries requested")
	}
	for _, e := range entries {
		if e.Row < 0 || e.Row >= m.Outputs || e.Col < 0 || e.Col >= m.Ports {
			return nil, badRequest("entry (%d,%d) out of range %d×%d", e.Row, e.Col, m.Outputs, m.Ports)
		}
	}
	grid, err := sim.LogGrid(wMin, wMax, points)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	dst := make([]complex128, len(entries)*points)
	if len(entries) > 1 {
		// Fused path: every entry in one pole-major kernel pass. The
		// per-pole reciprocal grid — the expensive part of a residue sweep —
		// is computed once and shared by all entries on the same input
		// column.
		ents := make([][2]int, len(entries))
		for i, e := range entries {
			ents[i] = [2]int{e.Row, e.Col}
		}
		err = ev.eng.MapCtx(ctx, 1, func(int) error {
			return m.Packed.SweepEntriesInto(dst, ents, grid)
		})
		if err == nil {
			ev.batchKernelCalls.Add(1)
			if ev.batchEntriesObs != nil {
				ev.batchEntriesObs.Observe(float64(len(entries)))
			}
		}
	} else {
		// Single entry: the scalar per-entry sweep divides directly instead
		// of multiplying by a shared reciprocal — measurably faster when
		// nothing shares the pass, so lone sweeps stay on it.
		err = ev.eng.MapCtx(ctx, 1, func(int) error {
			return m.Modal.SweepEntryInto(dst, entries[0].Row, entries[0].Col, grid)
		})
	}
	if err != nil {
		return nil, ev.finish(ctx, err)
	}
	out := make([]EntrySweep, len(entries))
	for i, e := range entries {
		pts := make([]SweepPoint, points)
		for k, h := range dst[i*points : (i+1)*points] {
			pts[k] = SweepPoint{Omega: grid[k], Re: real(h), Im: imag(h), Mag: cmplx.Abs(h)}
		}
		out[i] = EntrySweep{Row: e.Row, Col: e.Col, Points: pts}
	}
	ev.modalEvals.Add(int64(len(entries) * points))
	return out, nil
}

// EvalBatch computes the full p×m transfer matrix at each requested angular
// frequency, one engine task per frequency. Cancelling ctx skips the
// frequencies not yet started.
func (ev *Evaluator) EvalBatch(ctx context.Context, m *Model, omegas []float64) ([]*dense.Mat[complex128], error) {
	out := make([]*dense.Mat[complex128], len(omegas))
	err := ev.eng.MapCtx(ctx, len(omegas), func(k int) error {
		h, err := m.Modal.Eval(complex(0, omegas[k]))
		out[k] = h
		return err
	})
	if err != nil {
		return nil, ev.finish(ctx, err)
	}
	ev.modalEvals.Add(int64(len(omegas) * m.Ports))
	return out, nil
}

// transientChunkSteps is how many integration steps a transient advances
// between context checks: small enough that a disconnected client frees its
// pool slot within one chunk, large enough that the check is noise.
const transientChunkSteps = 256

// Transient runs a transient on the model's ROM as a single engine task, so
// the pool's worker count bounds total evaluation concurrency across sweeps,
// evals, and transients alike. Modal blocks integrate each mode exactly
// (per-mode exponentials, no implicit solves); blocks without a modal form
// run the fixed-step implicit rule. The block work inside the occupied slot
// runs serially, advancing in chunks so a canceled ctx (client disconnect)
// releases the slot within transientChunkSteps steps instead of integrating
// to completion.
func (ev *Evaluator) Transient(ctx context.Context, m *Model, opts sim.TransientOptions) (*sim.Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	var res *sim.Result
	err := ev.eng.MapCtx(ctx, 1, func(int) error {
		st, err := sim.NewStepper(m.Modal, sim.StepperOptions{Method: opts.Method, Dt: opts.Dt})
		if err != nil {
			return err
		}
		steps := opts.Steps()
		r := &sim.Result{T: make([]float64, 0, steps+1), Y: make([][]float64, 0, steps+1)}
		y0, err := st.Output(opts.Input)
		if err != nil {
			return err
		}
		r.T = append(r.T, 0)
		r.Y = append(r.Y, y0)
		for remaining := steps; remaining > 0; {
			if err := ctx.Err(); err != nil {
				return err
			}
			n := transientChunkSteps
			if n > remaining {
				n = remaining
			}
			chunk, err := st.Advance(n, opts.Input)
			if err != nil {
				return err
			}
			r.T = append(r.T, chunk.T...)
			r.Y = append(r.Y, chunk.Y...)
			remaining -= n
		}
		res = r
		return nil
	})
	if err != nil {
		return nil, ev.finish(ctx, err)
	}
	ev.modalEvals.Add(1)
	return res, nil
}
