package sim

import (
	"math"
	"testing"
)

// Inputs returns the input port count the drive waveform must fill.
func (st *Stepper) Inputs() int { return st.m }

// advanceChunked drives st through the same schedule as one full run: the
// t = 0 row, then the remaining steps split into chunks of at most n.
func advanceChunked(t *testing.T, st *Stepper, steps, n int, input Input) *Result {
	t.Helper()
	res := &Result{}
	y0, err := st.Output(input)
	if err != nil {
		t.Fatalf("Output: %v", err)
	}
	res.T = append(res.T, st.Time())
	res.Y = append(res.Y, y0)
	for steps > 0 {
		c := n
		if c > steps {
			c = steps
		}
		chunk, err := st.Advance(c, input)
		if err != nil {
			t.Fatalf("Advance(%d): %v", c, err)
		}
		if len(chunk.T) != c {
			t.Fatalf("Advance(%d) returned %d rows", c, len(chunk.T))
		}
		res.T = append(res.T, chunk.T...)
		res.Y = append(res.Y, chunk.Y...)
		steps -= c
	}
	return res
}

func requireSameResult(t *testing.T, got, want *Result, tol float64) {
	t.Helper()
	if len(got.T) != len(want.T) {
		t.Fatalf("row count %d, want %d", len(got.T), len(want.T))
	}
	for k := range want.T {
		if got.T[k] != want.T[k] {
			t.Fatalf("row %d: t=%g, want %g", k, got.T[k], want.T[k])
		}
		for r := range want.Y[k] {
			if d := math.Abs(got.Y[k][r] - want.Y[k][r]); d > tol*(1+math.Abs(want.Y[k][r])) {
				t.Fatalf("row %d output %d: %g vs %g (Δ=%g)", k, r, got.Y[k][r], want.Y[k][r], d)
			}
		}
	}
}

// TestStepperChunkedMatchesSimulateModal: a session advanced in N chunks of
// any size must match a single SimulateModal run to ≤1e-12 (in fact
// bit-exactly: the arithmetic is identical).
func TestStepperChunkedMatchesSimulateModal(t *testing.T) {
	_, ms := modalTestSystem(t)
	input := UniformInput(Pulse{Low: 0, High: 1, Delay: 0.1, Rise: 0.05, Fall: 0.05, Width: 0.3, Period: 1})
	opts := TransientOptions{Dt: 0.01, T: 2, Input: input}
	full, err := SimulateModal(ms, opts)
	if err != nil {
		t.Fatalf("SimulateModal: %v", err)
	}
	for _, chunk := range []int{1, 7, 50, 200, 1000} {
		st, err := NewStepper(ms, StepperOptions{Dt: opts.Dt})
		if err != nil {
			t.Fatalf("NewStepper: %v", err)
		}
		got := advanceChunked(t, st, opts.Steps(), chunk, input)
		requireSameResult(t, got, full, 1e-12)
	}
}

// TestStepperChunkedMatchesImplicit: the implicit-fallback path resumes to
// integrator tolerance too (bit-exact as well — same LU, same solves).
func TestStepperChunkedMatchesImplicit(t *testing.T) {
	bd, _ := modalTestSystem(t)
	input := UniformInput(Sine{Amplitude: 1, Freq: 0.5})
	opts := TransientOptions{Method: Trapezoidal, Dt: 0.005, T: 1, Input: input}
	full, err := SimulateBlockDiag(bd, opts)
	if err != nil {
		t.Fatalf("SimulateBlockDiag: %v", err)
	}
	st, err := NewImplicitStepper(bd, StepperOptions{Method: Trapezoidal, Dt: opts.Dt})
	if err != nil {
		t.Fatalf("NewImplicitStepper: %v", err)
	}
	got := advanceChunked(t, st, opts.Steps(), 13, input)
	requireSameResult(t, got, full, 1e-12)
}

// TestStepperWaveformSwitch: changing the drive between advances must equal
// one uninterrupted run under the equivalent composite waveform — the state
// carries over, nothing restarts. The waveforms agree at the switch instant
// (both 1 at t = 0.5); only then does a single composite run exist at all,
// since the boundary sample is the right endpoint of the last old-drive step
// and the left endpoint of the first new-drive step.
func TestStepperWaveformSwitch(t *testing.T) {
	_, ms := modalTestSystem(t)
	const dt, tSwitch = 0.01, 0.5
	first := UniformInput(Step{Amplitude: 1})
	second := UniformInput(Sine{Offset: 1, Amplitude: 0.5, Freq: 2, Delay: tSwitch})
	composite := func(tm float64, u []float64) {
		if tm < tSwitch {
			first(tm, u)
		} else {
			second(tm, u)
		}
	}

	full, err := SimulateModal(ms, TransientOptions{Dt: dt, T: 2, Input: composite})
	if err != nil {
		t.Fatalf("SimulateModal: %v", err)
	}

	st, err := NewStepper(ms, StepperOptions{Dt: dt})
	if err != nil {
		t.Fatalf("NewStepper: %v", err)
	}
	res := &Result{}
	y0, err := st.Output(first)
	if err != nil {
		t.Fatal(err)
	}
	res.T = append(res.T, 0)
	res.Y = append(res.Y, y0)
	a, err := st.Advance(50, first) // up to t = 0.5
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.Advance(150, second) // switched drive from t = 0.5 on
	if err != nil {
		t.Fatal(err)
	}
	res.T = append(append(res.T, a.T...), b.T...)
	res.Y = append(append(res.Y, a.Y...), b.Y...)
	requireSameResult(t, res, full, 1e-12)
}

// TestStepperSnapshotRestore: restoring a snapshot replays the exact same
// trajectory, and snapshots are isolated from later advances.
func TestStepperSnapshotRestore(t *testing.T) {
	bd, ms := modalTestSystem(t)
	input := UniformInput(Sine{Amplitude: 1, Freq: 1})
	for name, mk := range map[string]func() (*Stepper, error){
		"modal":    func() (*Stepper, error) { return NewStepper(ms, StepperOptions{Dt: 0.01}) },
		"implicit": func() (*Stepper, error) { return NewImplicitStepper(bd, StepperOptions{Dt: 0.01}) },
	} {
		st, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := st.Advance(37, input); err != nil {
			t.Fatal(err)
		}
		snap := st.Snapshot()
		if snap.Step != 37 {
			t.Fatalf("%s: snapshot step %d, want 37", name, snap.Step)
		}
		want, err := st.Advance(25, input)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Restore(snap); err != nil {
			t.Fatalf("%s: Restore: %v", name, err)
		}
		if st.Step() != 37 || st.Time() != 37*0.01 {
			t.Fatalf("%s: restored to step %d t=%g", name, st.Step(), st.Time())
		}
		got, err := st.Advance(25, input)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, got, want, 0) // bit-exact replay
	}
}

// TestStepperRestoreMismatch: snapshots from a different model shape are
// rejected, never silently applied.
func TestStepperRestoreMismatch(t *testing.T) {
	_, ms := modalTestSystem(t)
	st, err := NewStepper(ms, StepperOptions{Dt: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Restore(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	snap := st.Snapshot()
	snap.Modal = snap.Modal[:1]
	if err := st.Restore(snap); err == nil {
		t.Fatal("short snapshot accepted")
	}
	snap = st.Snapshot()
	snap.Modal[0] = snap.Modal[0][:1]
	if err := st.Restore(snap); err == nil {
		t.Fatal("wrong-width snapshot accepted")
	}
	snap = st.Snapshot()
	snap.Step = -1
	if err := st.Restore(snap); err == nil {
		t.Fatal("negative step accepted")
	}
}

// TestStepperValidation: constructor and Advance argument errors.
func TestStepperValidation(t *testing.T) {
	_, ms := modalTestSystem(t)
	if _, err := NewStepper(ms, StepperOptions{Dt: 0}); err == nil {
		t.Fatal("Dt=0 accepted")
	}
	if _, err := NewStepper(ms, StepperOptions{Dt: -1}); err == nil {
		t.Fatal("Dt<0 accepted")
	}
	st, err := NewStepper(ms, StepperOptions{Dt: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Advance(-1, UniformInput(DC(1))); err == nil {
		t.Fatal("negative step count accepted")
	}
	if _, err := st.Advance(1, nil); err == nil {
		t.Fatal("nil input accepted")
	}
	if _, err := st.Output(nil); err == nil {
		t.Fatal("nil input accepted by Output")
	}
	if got, err := st.Advance(0, UniformInput(DC(1))); err != nil || len(got.T) != 0 {
		t.Fatalf("Advance(0) = %v rows, err %v", len(got.T), err)
	}
	if st.Inputs() != 2 || st.Outputs() != 2 || st.Dt() != 0.01 {
		t.Fatalf("dims/dt accessors wrong: %d %d %g", st.Inputs(), st.Outputs(), st.Dt())
	}
}

// TestStepperAdvanceAllocs pins the hot-loop allocation fix: Advance(n)
// performs O(1) allocations — one Result, its T and Y headers, one shared
// row backing array — independent of n, where it used to allocate one row
// per step.
//
//pgmor:alloctest Stepper.stepAll
//pgmor:alloctest Stepper.outputInto
func TestStepperAdvanceAllocs(t *testing.T) {
	_, ms := modalTestSystem(t)
	st, err := NewStepper(ms, StepperOptions{Dt: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	input := UniformInput(Sine{Amplitude: 1, Freq: 0.5})
	for _, n := range []int{16, 256} {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := st.Advance(n, input); err != nil {
				t.Fatal(err)
			}
		})
		// 4 fixed allocations (Result, T, Y, row backing); allow one of
		// slack for runtime noise but never anything that scales with n.
		if allocs > 5 {
			t.Fatalf("Advance(%d) allocates %.1f times per call, want O(1) ≤ 5", n, allocs)
		}
	}
}
