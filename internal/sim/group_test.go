package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dense"
	"repro/internal/lti"
)

// wideModalSystem builds an m-input ROM of m blocks, each of q modes seen at
// p outputs: C = I, G a negative-definite tridiagonal, random B and L. It
// modalizes through the symmetric path.
func wideModalSystem(t *testing.T, m, q, p int) *lti.ModalSystem {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(m*1000 + q*100 + p)))
	bd := &lti.BlockDiagSystem{M: m, P: p}
	for i := 0; i < m; i++ {
		g := dense.NewMat[float64](q, q)
		for j := 0; j < q; j++ {
			g.Set(j, j, -(2 + rng.Float64()))
			if j > 0 {
				off := 0.5 * rng.Float64()
				g.Set(j, j-1, off)
				g.Set(j-1, j, off)
			}
		}
		b := make([]float64, q)
		for j := range b {
			b[j] = rng.NormFloat64()
		}
		l := dense.NewMat[float64](p, q)
		for j := range l.Data {
			l.Data[j] = rng.NormFloat64()
		}
		bd.Blocks = append(bd.Blocks, lti.Block{C: dense.Eye[float64](q), G: g, B: b, L: l, Input: i})
	}
	ms, err := bd.Modalize()
	if err != nil {
		t.Fatalf("Modalize: %v", err)
	}
	if modal, fb := ms.ModalCount(); fb != 0 || modal != m {
		t.Fatalf("wide system did not fully modalize (%d modal, %d fallback)", modal, fb)
	}
	return ms
}

// groupFixtures builds S steppers over ms plus S identically-configured
// twins, each pair pre-advanced to its own step offset so the group members
// sit at different session clocks.
func groupFixtures(t *testing.T, ms *lti.ModalSystem, s int) (members, twins []*Stepper, inputs []Input) {
	t.Helper()
	for i := 0; i < s; i++ {
		input := UniformInput(Sine{Amplitude: 1 + 0.1*float64(i), Freq: 0.25 + 0.5*float64(i%3)})
		inputs = append(inputs, input)
		a, err := NewStepper(ms, StepperOptions{Dt: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewStepper(ms, StepperOptions{Dt: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if off := 5 * (i % 4); off > 0 {
			if _, err := a.Advance(off, input); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Advance(off, input); err != nil {
				t.Fatal(err)
			}
		}
		members = append(members, a)
		twins = append(twins, b)
	}
	return members, twins, inputs
}

// TestStepperGroupBitIdentical: a group advance must produce rows
// bit-identical to each member advanced independently — distinct waveforms,
// distinct session clocks, repeated chunks.
func TestStepperGroupBitIdentical(t *testing.T) {
	_, ms := modalTestSystem(t)
	const size = 13
	members, twins, inputs := groupFixtures(t, ms, size)
	g, err := NewStepperGroup(members, GroupOptions{})
	if err != nil {
		t.Fatalf("NewStepperGroup: %v", err)
	}
	if g.Size() != size {
		t.Fatalf("Size = %d, want %d", g.Size(), size)
	}
	for _, n := range []int{1, 13, 64} {
		got, err := g.Advance(n, inputs)
		if err != nil {
			t.Fatalf("group Advance(%d): %v", n, err)
		}
		for s := range twins {
			want, err := twins[s].Advance(n, inputs[s])
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, got[s], want, 0) // bit-exact
			if members[s].Step() != twins[s].Step() {
				t.Fatalf("member %d clock %d, independent %d", s, members[s].Step(), twins[s].Step())
			}
		}
	}
	// Members stay fully owned between group advances: an independent
	// Advance after group advances continues the exact trajectory.
	for s := range members {
		got, err := members[s].Advance(9, inputs[s])
		if err != nil {
			t.Fatal(err)
		}
		want, err := twins[s].Advance(9, inputs[s])
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, got, want, 0)
	}
}

// TestStepperGroupImplicitBlocks: groups over implicit-rule steppers are
// bit-identical to a lone stepper as well.
func TestStepperGroupImplicitBlocks(t *testing.T) {
	bd, _ := modalTestSystem(t)
	input := UniformInput(Pulse{Low: 0, High: 1, Delay: 0.05, Rise: 0.02, Fall: 0.02, Width: 0.2, Period: 0.5})
	var members []*Stepper
	var inputs []Input
	for i := 0; i < 12; i++ {
		st, err := NewImplicitStepper(bd, StepperOptions{Method: Trapezoidal, Dt: 0.005})
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, st)
		inputs = append(inputs, input)
	}
	g, err := NewStepperGroup(members, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.Advance(40, inputs)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := NewImplicitStepper(bd, StepperOptions{Method: Trapezoidal, Dt: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	want, err := solo.Advance(40, input)
	if err != nil {
		t.Fatal(err)
	}
	for s := range got {
		requireSameResult(t, got[s], want, 0)
	}
}

// TestStepperGroupValidation: empty groups and nil or repeated members are
// rejected at construction, bad advances at call time. Members share no
// state, so members over different models, step sizes or block kinds are
// accepted.
func TestStepperGroupValidation(t *testing.T) {
	bd, ms := modalTestSystem(t)
	mk := func(dt float64) *Stepper {
		st, err := NewStepper(ms, StepperOptions{Dt: dt})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if _, err := NewStepperGroup(nil, GroupOptions{}); err == nil {
		t.Error("empty group accepted")
	}
	if _, err := NewStepperGroup([]*Stepper{mk(0.01), nil}, GroupOptions{}); err == nil {
		t.Error("nil member accepted")
	}
	st := mk(0.01)
	if _, err := NewStepperGroup([]*Stepper{st, st}, GroupOptions{}); err == nil {
		t.Error("duplicate member accepted")
	}
	other, err := bd.Modalize()
	if err != nil {
		t.Fatal(err)
	}
	stOther, err := NewStepper(other, StepperOptions{Dt: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	imp, err := NewImplicitStepper(bd, StepperOptions{Dt: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStepperGroup([]*Stepper{mk(0.01), stOther, imp}, GroupOptions{}); err != nil {
		t.Errorf("group over distinct models, step sizes and block kinds rejected: %v", err)
	}

	g, err := NewStepperGroup([]*Stepper{mk(0.01), mk(0.01)}, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	input := UniformInput(DC(1))
	if _, err := g.Advance(-1, []Input{input, input}); err == nil {
		t.Error("negative step count accepted")
	}
	if _, err := g.Advance(1, []Input{input}); err == nil {
		t.Error("short input slice accepted")
	}
	if _, err := g.Advance(1, []Input{input, nil}); err == nil {
		t.Error("nil input accepted")
	}
	if res, err := g.Advance(0, []Input{input, input}); err != nil || len(res) != 2 || len(res[0].T) != 0 {
		t.Errorf("Advance(0) = %v, %v", res, err)
	}
}

// TestStepperGroupMatchesIndependentAllSizes: groups of every width from
// one to 21 members produce the values of independent advances, on a model
// wide enough for the output kernel's 16-output chunks and their tails.
func TestStepperGroupMatchesIndependentAllSizes(t *testing.T) {
	ms := wideModalSystem(t, 3, 6, 21)
	for ns := 1; ns <= 21; ns++ {
		t.Run(fmt.Sprint(ns), func(t *testing.T) {
			members, twins, inputs := groupFixtures(t, ms, ns)
			g, err := NewStepperGroup(members, GroupOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 17} {
				got, err := g.Advance(n, inputs)
				if err != nil {
					t.Fatal(err)
				}
				for s := range twins {
					want, err := twins[s].Advance(n, inputs[s])
					if err != nil {
						t.Fatal(err)
					}
					requireSameResult(t, got[s], want, 0) // equal values
					if members[s].Step() != twins[s].Step() {
						t.Fatalf("member %d clock %d, independent %d", s, members[s].Step(), twins[s].Step())
					}
				}
			}
		})
	}
}

// TestNewStepperGroupAllocBytes: building a group copies nothing of the
// model — no q×p residues, no per-output staging — so its allocation does
// not grow with the output count.
func TestNewStepperGroupAllocBytes(t *testing.T) {
	const ns = 12
	bytesFor := func(p int) uint64 {
		ms := wideModalSystem(t, 3, 6, p)
		members, _, _ := groupFixtures(t, ms, ns)
		best := ^uint64(0)
		for rep := 0; rep < 5; rep++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := NewStepperGroup(members, GroupOptions{}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	const pSmall, pLarge = 4, 256
	small, large := bytesFor(pSmall), bytesFor(pLarge)
	// A little slack for allocator noise. A residue copy would add
	// 16·q·p bytes (72 KB here), output staging 8·ns·p (24 KB).
	if growth, allowed := int64(large)-int64(small), int64(1024); growth > allowed {
		t.Fatalf("NewStepperGroup allocates %d B at p=%d and %d B at p=%d: grows %d B, want ≤ %d",
			small, pSmall, large, pLarge, growth, allowed)
	}
}
