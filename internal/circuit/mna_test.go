package circuit

import (
	"math"
	"testing"
)

// NumOutputs returns the output count p.
func (m *MNA) NumOutputs() int { r, _ := m.L.Dims(); return r }

// buildRC returns the canonical single-node RC test circuit: current source
// into node 1 with R and C to ground. H(s) = R/(1+sRC).
func buildRC(t *testing.T, r, c float64) *MNA {
	t.Helper()
	nl := &Netlist{}
	if err := nl.AddResistor("R1", "1", "0", r); err != nil {
		t.Fatal(err)
	}
	if err := nl.AddCapacitor("C1", "1", "0", c); err != nil {
		t.Fatal(err)
	}
	if err := nl.AddCurrentSource("I1", "0", "1", 1); err != nil {
		t.Fatal(err)
	}
	m, err := BuildMNA(nl)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMNASingleNodeRC(t *testing.T) {
	r, c := 100.0, 1e-9
	m := buildRC(t, r, c)
	if m.N() != 1 || m.NumInputs() != 1 || m.NumOutputs() != 1 {
		t.Fatalf("dims n=%d m=%d p=%d, want 1/1/1", m.N(), m.NumInputs(), m.NumOutputs())
	}
	// Paper convention: C dx/dt = G x + B u with G = -1/R, C = c, B = +1
	// (source drives current into node 1).
	if got := m.C.At(0, 0); math.Abs(got-c) > 1e-20 {
		t.Errorf("C[0][0] = %g, want %g", got, c)
	}
	if got := m.G.At(0, 0); math.Abs(got+1/r) > 1e-15 {
		t.Errorf("G[0][0] = %g, want %g", got, -1/r)
	}
	if got := m.B.At(0, 0); got != 1 {
		t.Errorf("B[0][0] = %g, want 1 (current injected into node)", got)
	}
	if got := m.L.At(0, 0); got != 1 {
		t.Errorf("L[0][0] = %g, want 1", got)
	}
}

func TestMNADCTransferResistorDivider(t *testing.T) {
	// I1 injects into node 1; R1 = 2Ω node1–node2, R2 = 3Ω node2–gnd.
	// DC: v1 = 5V, v2 = 3V for 1A.
	nl := &Netlist{}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(nl.AddResistor("R1", "1", "2", 2))
	must(nl.AddResistor("R2", "2", "0", 3))
	must(nl.AddCurrentSource("I1", "0", "1", 1))
	nl.AddProbe("1")
	nl.AddProbe("2")
	m, err := BuildMNA(nl)
	must(err)

	// Solve 0 = G x + B u at DC: x = -G⁻¹ B u (dense 2×2 by hand).
	g11, g12 := m.G.At(0, 0), m.G.At(0, 1)
	g21, g22 := m.G.At(1, 0), m.G.At(1, 1)
	b1, b2 := m.B.At(0, 0), m.B.At(1, 0)
	det := g11*g22 - g12*g21
	v1 := -(g22*b1 - g12*b2) / det
	v2 := -(-g21*b1 + g11*b2) / det
	if math.Abs(v1-5) > 1e-12 || math.Abs(v2-3) > 1e-12 {
		t.Fatalf("DC solve v1=%g v2=%g, want 5, 3", v1, v2)
	}
}

func TestMNAInductorStamps(t *testing.T) {
	// V-L-R loop is overkill; check an L between two nodes produces the
	// branch row and skew coupling.
	nl := &Netlist{}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(nl.AddInductor("L1", "1", "2", 1e-9))
	must(nl.AddResistor("R1", "2", "0", 1))
	must(nl.AddResistor("R2", "1", "0", 1))
	must(nl.AddCurrentSource("I1", "0", "1", 1))
	m, err := BuildMNA(nl)
	must(err)
	if m.N() != 3 || m.NumInductors != 1 {
		t.Fatalf("n=%d inductors=%d, want 3, 1", m.N(), m.NumInductors)
	}
	// State order: v(1), v(2), i(L1). C[2][2] = L value.
	if got := m.C.At(2, 2); got != 1e-9 {
		t.Errorf("C branch row = %g, want 1e-9", got)
	}
	// Paper G = -G_std. G_std has +1 at (node1,branch), -1 at (node2,branch),
	// -1 at (branch,node1), +1 at (branch,node2).
	if m.G.At(0, 2) != -1 || m.G.At(1, 2) != 1 {
		t.Errorf("KCL coupling wrong: G[0][2]=%g G[1][2]=%g", m.G.At(0, 2), m.G.At(1, 2))
	}
	if m.G.At(2, 0) != 1 || m.G.At(2, 1) != -1 {
		t.Errorf("KVL row wrong: G[2][0]=%g G[2][1]=%g", m.G.At(2, 0), m.G.At(2, 1))
	}
	// G + Gᵀ must be symmetric negative semidefinite part only from
	// resistors: the inductor coupling is skew and cancels.
	sym00 := m.G.At(0, 2) + m.G.At(2, 0)
	if sym00 != 0 {
		t.Errorf("inductor coupling not skew-symmetric: %g", sym00)
	}
}

func TestMNAVoltageSource(t *testing.T) {
	nl := &Netlist{}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(nl.AddVoltageSource("V1", "1", "0", 1))
	must(nl.AddResistor("R1", "1", "0", 2))
	nl.AddProbe("1")
	m, err := BuildMNA(nl)
	must(err)
	if m.N() != 2 || m.NumVSources != 1 {
		t.Fatalf("n=%d nv=%d", m.N(), m.NumVSources)
	}
	// DC: v1 = u. Solve 0 = Gx + Bu → x = -G⁻¹Bu.
	g11, g12 := m.G.At(0, 0), m.G.At(0, 1)
	g21, g22 := m.G.At(1, 0), m.G.At(1, 1)
	b1, b2 := m.B.At(0, 0), m.B.At(1, 0)
	det := g11*g22 - g12*g21
	v1 := -(g22*b1 - g12*b2) / det
	iv := -(-g21*b1 + g11*b2) / det
	if math.Abs(v1-1) > 1e-12 {
		t.Errorf("v1 = %g, want 1 (voltage source forces node voltage)", v1)
	}
	// Source supplies v/R = 0.5A; branch current convention: current flows
	// from + terminal through the external circuit, so i(V1) = -0.5 in MNA.
	if math.Abs(iv+0.5) > 1e-12 {
		t.Errorf("i(V1) = %g, want -0.5", iv)
	}
}

func TestMNADefaultProbesAreSourceNodes(t *testing.T) {
	nl := &Netlist{}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(nl.AddResistor("R1", "a", "0", 1))
	must(nl.AddResistor("R2", "b", "0", 1))
	must(nl.AddResistor("R3", "a", "b", 1))
	must(nl.AddCurrentSource("I1", "a", "0", 1))
	must(nl.AddCurrentSource("I2", "b", "0", 1))
	m, err := BuildMNA(nl)
	must(err)
	if m.NumOutputs() != 2 {
		t.Fatalf("default outputs = %d, want 2", m.NumOutputs())
	}
	if m.OutputNames[0] != "a" || m.OutputNames[1] != "b" {
		t.Errorf("OutputNames = %v", m.OutputNames)
	}
}

func TestMNAErrors(t *testing.T) {
	nl := &Netlist{}
	if _, err := BuildMNA(nl); err == nil {
		t.Error("empty netlist must fail")
	}
	nl2 := &Netlist{}
	if err := nl2.AddResistor("R1", "1", "1", 5); err == nil {
		t.Error("self-loop must fail")
	}
	if err := nl2.AddResistor("R1", "1", "0", 0); err == nil {
		t.Error("zero resistance must fail")
	}
	if err := nl2.AddResistor("R1", "1", "0", 1); err != nil {
		t.Fatal(err)
	}
	if err := nl2.AddResistor("R1", "2", "0", 1); err == nil {
		t.Error("duplicate name must fail")
	}
	nl2.AddProbe("zzz")
	if _, err := BuildMNA(nl2); err == nil {
		t.Error("unknown probe node must fail")
	}
}

func TestNetlistStats(t *testing.T) {
	nl := &Netlist{}
	_ = nl.AddResistor("R1", "1", "2", 1)
	_ = nl.AddCapacitor("C1", "1", "0", 1)
	_ = nl.AddInductor("L1", "2", "0", 1)
	_ = nl.AddCurrentSource("I1", "0", "1", 1)
	_ = nl.AddVoltageSource("V1", "2", "0", 1)
	s := nl.Stats()
	if s.Nodes != 2 || s.Resistors != 1 || s.Capacitors != 1 || s.Inductors != 1 ||
		s.CurrentSources != 1 || s.VoltageSources != 1 {
		t.Errorf("Stats = %+v", s)
	}
}
