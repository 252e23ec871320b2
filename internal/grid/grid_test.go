package grid

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/sparse"
)

// NumPorts returns the input/output port count.
func (m *Model) NumPorts() int { _, mm := m.B.Dims(); return mm }

func smallConfig() Config {
	cfg := Config{Name: "test", NX: 6, NY: 5, Layers: 2, Ports: 4, Pads: 2}
	applyElectricalDefaults(&cfg, 1)
	return cfg
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.NX = 1 },
		func(c *Config) { c.Layers = 0 },
		func(c *Config) { c.Ports = 0 },
		func(c *Config) { c.Ports = c.NX*c.NY + 1 },
		func(c *Config) { c.Pads = 0 },
		func(c *Config) { c.SheetR = 0 },
		func(c *Config) { c.ViaPitch = 0 },
		func(c *Config) { c.Variation = 1.5 },
	}
	for i, mutate := range cases {
		bad := smallConfig()
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestBuildDimensions(t *testing.T) {
	cfg := smallConfig()
	m, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	wantN := 6*5*2 + 2 + 2 // grid + pad midpoints + inductor currents
	if m.N != wantN {
		t.Fatalf("N = %d, want %d", m.N, wantN)
	}
	if m.NumPorts() != 4 {
		t.Fatalf("ports = %d, want 4", m.NumPorts())
	}
	rows, cols := m.C.Dims()
	if rows != wantN || cols != wantN {
		t.Fatalf("C dims %d×%d", rows, cols)
	}
	p, n := m.L.Dims()
	if p != 4 || n != wantN {
		t.Fatalf("L dims %d×%d", p, n)
	}
}

func TestBuildDeterminism(t *testing.T) {
	cfg := smallConfig()
	a, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	if a.G.NNZ() != b.G.NNZ() {
		t.Fatal("non-deterministic structure")
	}
	for k := range a.G.Val {
		if a.G.Val[k] != b.G.Val[k] {
			t.Fatal("non-deterministic values")
		}
	}
	for k := range a.PortNodes {
		if a.PortNodes[k] != b.PortNodes[k] {
			t.Fatal("non-deterministic port placement")
		}
	}
}

func TestGridGMatrixProperties(t *testing.T) {
	cfg := smallConfig()
	m, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Paper convention: G = -G_std. The node-voltage block of -G must be a
	// symmetric M-matrix-like Laplacian: positive diagonal, nonpositive
	// off-diagonal; inductor coupling is skew.
	nGrid := 6*5*2 + 2
	for i := 0; i < nGrid; i++ {
		if -m.G.At(i, i) <= 0 {
			t.Fatalf("node %d: -G diagonal %g not positive", i, -m.G.At(i, i))
		}
	}
	// Symmetry of the resistive block.
	for i := 0; i < nGrid; i++ {
		for k := m.G.RowPtr[i]; k < m.G.RowPtr[i+1]; k++ {
			j := m.G.ColIdx[k]
			if j >= nGrid {
				continue
			}
			if math.Abs(m.G.Val[k]-m.G.At(j, i)) > 1e-12*math.Abs(m.G.Val[k]) {
				t.Fatalf("resistive block asymmetric at (%d,%d)", i, j)
			}
		}
	}
	// C is diagonal-positive on nodes and inductor rows.
	for i := 0; i < m.N; i++ {
		hasMass := m.C.At(i, i) > 0
		isPadMid := i >= 6*5*2 && i < 6*5*2+2
		if !hasMass && !isPadMid {
			t.Fatalf("state %d has no capacitance/inductance mass", i)
		}
	}
}

func TestGridConnectivitySolvableAtDC(t *testing.T) {
	// (s0·C - G) at s0 = 0 reduces to -G = G_std, which must be nonsingular
	// thanks to the grounded package branch and port placement.
	cfg := smallConfig()
	m, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	gstd := m.G.Clone()
	gstd.Scale(-1)
	if _, err := sparse.FactorLU(gstd.ToCSC(), sparse.LUOptions{}); err != nil {
		t.Fatalf("DC conductance matrix singular: %v", err)
	}
}

func TestNetlistMatchesBuildPortCount(t *testing.T) {
	cfg := smallConfig()
	nl, err := cfg.Netlist()
	if err != nil {
		t.Fatal(err)
	}
	mna, err := circuit.BuildMNA(nl)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	if mna.NumInputs() != direct.NumPorts() {
		t.Fatalf("netlist ports %d != direct ports %d", mna.NumInputs(), direct.NumPorts())
	}
	if mna.N() != direct.N {
		t.Fatalf("netlist states %d != direct states %d", mna.N(), direct.N)
	}
	st := nl.Stats()
	wantR := (5*5+6*4)*2 + 2*2 + 2 // mesh (per layer) + vias (6×5 pitch 4 → 2×2) + pad R
	if st.Resistors != wantR {
		t.Errorf("resistors = %d, want %d", st.Resistors, wantR)
	}
	if st.Capacitors != 60 {
		t.Errorf("capacitors = %d, want 60", st.Capacitors)
	}
	if st.Inductors != 2 || st.CurrentSources != 4 {
		t.Errorf("inductors=%d sources=%d", st.Inductors, st.CurrentSources)
	}
}

func TestBenchmarkSuite(t *testing.T) {
	for _, name := range Names() {
		cfg, err := Benchmark(name, 0.1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg.Name != name {
			t.Errorf("name %q", cfg.Name)
		}
		if l := MatchedMoments(name); l < 6 || l > 10 {
			t.Errorf("%s: moments %d out of Table II range", name, l)
		}
	}
	if _, err := Benchmark("nope", 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := Benchmark(Ckt1, 0); err == nil {
		t.Error("zero scale accepted")
	}
	// Full-scale ckt1 must hit the paper's node/port counts.
	cfg, err := Benchmark(Ckt1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := cfg.NumNodes(); n < 5900 || n > 6100 {
		t.Errorf("ckt1 nodes = %d, want ≈6k", n)
	}
	if cfg.Ports != 51 {
		t.Errorf("ckt1 ports = %d, want 51", cfg.Ports)
	}
}

func TestBenchmarkBuildSmallScale(t *testing.T) {
	cfg, err := Benchmark(Ckt1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The pencil s0·C - G at s0 = 1e9 must factor (regular pencil).
	s0 := 1e9
	pencil := m.C.Add(s0, m.G, -1).ToCSC()
	if _, err := sparse.FactorLU(pencil, sparse.LUOptions{}); err != nil {
		t.Fatalf("pencil singular: %v", err)
	}
}
