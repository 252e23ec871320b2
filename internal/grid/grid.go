// Package grid generates synthetic multi-layer RLC power delivery networks
// with package parasitics, substituting for the proprietary industrial
// benchmarks (ckt1–ckt5) used in the paper's evaluation.
//
// The generated topology follows Fig. 3 of the paper: VDD pads connect
// through a series package R–L branch to the top metal layer; metal layers
// are regular resistive meshes joined by via arrays; every grid node has a
// decoupling capacitance to ground; transistor-block load currents are
// modeled as current-source input ports on the bottom layer. Small-signal
// analysis treats the VDD supply as AC ground, so the package branch
// terminates at the reference node.
//
// All randomness is drawn from a seeded generator, making every benchmark
// instance reproducible bit-for-bit.
package grid

import (
	"fmt"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/sparse"
)

// Config parameterizes a synthetic power grid.
type Config struct {
	// Name labels the benchmark instance (e.g. "ckt1").
	Name string
	// NX, NY are the node counts per layer in x and y.
	NX, NY int
	// Layers is the number of metal layers (≥1). Layer 0 is the top
	// (package-facing) layer; layer Layers-1 is the bottom (load-facing).
	Layers int
	// Ports is the number of current-source load ports placed on the bottom
	// layer (distinct nodes, seeded placement).
	Ports int
	// Pads is the number of package pads on the top layer. Each pad adds a
	// series R–L branch to AC ground and one inductor-current state.
	Pads int

	// SheetR is the nominal segment resistance of the top layer in ohms;
	// deeper layers are scaled by LayerRScale per layer.
	SheetR float64
	// LayerRScale multiplies segment resistance per layer going down.
	LayerRScale float64
	// ViaR is the via resistance between adjacent layers in ohms.
	ViaR float64
	// ViaPitch is the spacing of the via array (every ViaPitch-th node in x
	// and y is connected through a via).
	ViaPitch int
	// NodeC is the nominal per-node decoupling capacitance in farads.
	NodeC float64
	// PadR and PadL are the package branch resistance and inductance.
	PadR, PadL float64
	// Variation is the relative uniform spread applied to R and C values
	// (0.2 means ±20%).
	Variation float64
	// Seed drives all randomized choices (values, port placement).
	Seed int64
	// RCOnly omits the package inductance: pads become a purely resistive
	// path to ground and no branch-current states are created. The MNA
	// pencil (s0·C - G) is then symmetric positive definite and its
	// symmetric factor is plain Cholesky; the signed Cholesky factor serves
	// RLC pencils alike.
	RCOnly bool
}

// Validate checks config consistency.
func (c *Config) Validate() error {
	if c.NX < 2 || c.NY < 2 {
		return fmt.Errorf("grid: NX, NY must be ≥ 2, got %d×%d", c.NX, c.NY)
	}
	if c.Layers < 1 {
		return fmt.Errorf("grid: Layers must be ≥ 1, got %d", c.Layers)
	}
	if c.Ports < 1 || c.Ports > c.NX*c.NY {
		return fmt.Errorf("grid: Ports must be in [1, %d], got %d", c.NX*c.NY, c.Ports)
	}
	if c.Pads < 1 || c.Pads > c.NX*c.NY {
		return fmt.Errorf("grid: Pads must be in [1, %d], got %d", c.NX*c.NY, c.Pads)
	}
	if c.SheetR <= 0 || c.ViaR <= 0 || c.NodeC <= 0 || c.PadR <= 0 || c.PadL <= 0 {
		return fmt.Errorf("grid: element values must be positive")
	}
	if c.ViaPitch < 1 {
		return fmt.Errorf("grid: ViaPitch must be ≥ 1, got %d", c.ViaPitch)
	}
	if c.Variation < 0 || c.Variation >= 1 {
		return fmt.Errorf("grid: Variation must be in [0, 1), got %g", c.Variation)
	}
	return nil
}

// Key returns a deterministic fingerprint of every generation parameter.
// Two configs with equal keys build bit-identical models (generation is
// seeded), so the key is safe to use for model-repository deduplication and
// as a component of ROM cache keys.
func (c *Config) Key() string {
	return fmt.Sprintf("%s|%dx%dx%d|ports%d|pads%d|r%g:%g:%g:%d|c%g|pad%g:%g|var%g|seed%d|rc%t",
		c.Name, c.NX, c.NY, c.Layers, c.Ports, c.Pads,
		c.SheetR, c.LayerRScale, c.ViaR, c.ViaPitch, c.NodeC,
		c.PadR, c.PadL, c.Variation, c.Seed, c.RCOnly)
}

// NumNodes returns the total state count of the generated MNA model:
// grid nodes plus, for RLC grids, one midpoint node and one inductor
// branch current per pad.
func (c *Config) NumNodes() int {
	if c.RCOnly {
		return c.NX * c.NY * c.Layers
	}
	// Grid nodes + one R–L midpoint node + one inductor current per pad.
	return c.NX*c.NY*c.Layers + 2*c.Pads
}

// vary returns v perturbed by the config's relative variation.
func vary(rng *rand.Rand, v, variation float64) float64 {
	if variation == 0 {
		return v
	}
	return v * (1 + variation*(2*rng.Float64()-1))
}

// nodeName labels grid node (layer, x, y) for netlist output.
func nodeName(l, x, y int) string {
	return fmt.Sprintf("n%d_%d_%d", l, x, y)
}

// padPositions spreads k pads evenly over the NX×NY top layer.
func (c *Config) padPositions() [][2]int {
	pos := make([][2]int, 0, c.Pads)
	// Roughly square arrangement.
	cols := 1
	for cols*cols < c.Pads {
		cols++
	}
	rows := (c.Pads + cols - 1) / cols
	k := 0
	for r := 0; r < rows && k < c.Pads; r++ {
		for q := 0; q < cols && k < c.Pads; q++ {
			x := (2*q + 1) * c.NX / (2 * cols)
			y := (2*r + 1) * c.NY / (2 * rows)
			if x >= c.NX {
				x = c.NX - 1
			}
			if y >= c.NY {
				y = c.NY - 1
			}
			pos = append(pos, [2]int{x, y})
			k++
		}
	}
	return pos
}

// portPositions picks Ports distinct bottom-layer nodes with a seeded shuffle.
func (c *Config) portPositions(rng *rand.Rand) []int {
	total := c.NX * c.NY
	perm := rng.Perm(total)
	return perm[:c.Ports]
}

// Netlist generates the power grid as a circuit netlist. Intended for small
// and medium grids (examples, parser round-trips); large benchmark instances
// should use Build, which stamps matrices directly.
func (c *Config) Netlist() (*circuit.Netlist, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	nl := &circuit.Netlist{Title: c.Name}

	// Mesh resistors per layer.
	for l := 0; l < c.Layers; l++ {
		layerR := c.SheetR
		for s := 0; s < l; s++ {
			layerR *= c.LayerRScale
		}
		for y := 0; y < c.NY; y++ {
			for x := 0; x < c.NX; x++ {
				if x+1 < c.NX {
					name := fmt.Sprintf("Rh%d_%d_%d", l, x, y)
					if err := nl.AddResistor(name, nodeName(l, x, y), nodeName(l, x+1, y), vary(rng, layerR, c.Variation)); err != nil {
						return nil, err
					}
				}
				if y+1 < c.NY {
					name := fmt.Sprintf("Rv%d_%d_%d", l, x, y)
					if err := nl.AddResistor(name, nodeName(l, x, y), nodeName(l, x, y+1), vary(rng, layerR, c.Variation)); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	// Via arrays between adjacent layers.
	for l := 0; l+1 < c.Layers; l++ {
		for y := 0; y < c.NY; y += c.ViaPitch {
			for x := 0; x < c.NX; x += c.ViaPitch {
				name := fmt.Sprintf("Rvia%d_%d_%d", l, x, y)
				if err := nl.AddResistor(name, nodeName(l, x, y), nodeName(l+1, x, y), vary(rng, c.ViaR, c.Variation)); err != nil {
					return nil, err
				}
			}
		}
	}
	// Node decoupling capacitance.
	for l := 0; l < c.Layers; l++ {
		for y := 0; y < c.NY; y++ {
			for x := 0; x < c.NX; x++ {
				name := fmt.Sprintf("Cd%d_%d_%d", l, x, y)
				if err := nl.AddCapacitor(name, nodeName(l, x, y), "0", vary(rng, c.NodeC, c.Variation)); err != nil {
					return nil, err
				}
			}
		}
	}
	// Package pads: node — Rpkg — mid — Lpkg — ground, or a plain resistor
	// to ground in RC-only mode.
	for k, p := range c.padPositions() {
		if c.RCOnly {
			if err := nl.AddResistor(fmt.Sprintf("Rpkg%d", k), nodeName(0, p[0], p[1]), "0", vary(rng, c.PadR, c.Variation)); err != nil {
				return nil, err
			}
			continue
		}
		mid := fmt.Sprintf("pad%d", k)
		if err := nl.AddResistor(fmt.Sprintf("Rpkg%d", k), nodeName(0, p[0], p[1]), mid, vary(rng, c.PadR, c.Variation)); err != nil {
			return nil, err
		}
		if err := nl.AddInductor(fmt.Sprintf("Lpkg%d", k), mid, "0", vary(rng, c.PadL, c.Variation)); err != nil {
			return nil, err
		}
	}
	// Load ports on the bottom layer.
	bottom := c.Layers - 1
	for k, pos := range c.portPositions(rng) {
		x, y := pos%c.NX, pos/c.NX
		if err := nl.AddCurrentSource(fmt.Sprintf("Iload%d", k), nodeName(bottom, x, y), "0", 1e-3); err != nil {
			return nil, err
		}
		nl.AddProbe(nodeName(bottom, x, y))
	}
	return nl, nil
}

// stampSeq drives the canonical direct-stamping sequence: every element
// value is drawn from rng in the same order as Netlist(), standard-sign
// conductance contributions go to addG, capacitance/inductance entries to
// addC, and the selected port nodes are returned. Both the sparse fast path
// (Build) and the tests' dense small-n reference (BuildDense) replay exactly
// this sequence, which is what makes their outputs comparable entry by
// entry.
//
// State ordering: grid nodes in (layer, y, x) raster order, one extra node
// per pad (the R–L midpoint), then pad inductor currents.
func (c *Config) stampSeq(rng *rand.Rand, addG, addC func(i, j int, v float64)) []int {
	perLayer := c.NX * c.NY
	nGrid := perLayer * c.Layers
	nPadMid := c.Pads
	if c.RCOnly {
		nPadMid = 0
	}
	node := func(l, x, y int) int { return l*perLayer + y*c.NX + x }
	stamp := func(a, b int, g float64) {
		addG(a, a, g)
		addG(b, b, g)
		addG(a, b, -g)
		addG(b, a, -g)
	}

	// Mesh resistors (same RNG consumption order as Netlist()).
	for l := 0; l < c.Layers; l++ {
		layerR := c.SheetR
		for s := 0; s < l; s++ {
			layerR *= c.LayerRScale
		}
		for y := 0; y < c.NY; y++ {
			for x := 0; x < c.NX; x++ {
				if x+1 < c.NX {
					stamp(node(l, x, y), node(l, x+1, y), 1/vary(rng, layerR, c.Variation))
				}
				if y+1 < c.NY {
					stamp(node(l, x, y), node(l, x, y+1), 1/vary(rng, layerR, c.Variation))
				}
			}
		}
	}
	for l := 0; l+1 < c.Layers; l++ {
		for y := 0; y < c.NY; y += c.ViaPitch {
			for x := 0; x < c.NX; x += c.ViaPitch {
				stamp(node(l, x, y), node(l+1, x, y), 1/vary(rng, c.ViaR, c.Variation))
			}
		}
	}
	for l := 0; l < c.Layers; l++ {
		for y := 0; y < c.NY; y++ {
			for x := 0; x < c.NX; x++ {
				addC(node(l, x, y), node(l, x, y), vary(rng, c.NodeC, c.Variation))
			}
		}
	}
	// Package pads.
	for k, p := range c.padPositions() {
		if c.RCOnly {
			addG(node(0, p[0], p[1]), node(0, p[0], p[1]), 1/vary(rng, c.PadR, c.Variation))
			continue
		}
		mid := nGrid + k
		ind := nGrid + nPadMid + k
		stamp(node(0, p[0], p[1]), mid, 1/vary(rng, c.PadR, c.Variation))
		// Inductor mid — ground with branch current state `ind`:
		// KCL at mid: current leaves mid; KVL row: L di/dt = v(mid).
		addG(mid, ind, 1)
		addG(ind, mid, -1)
		addC(ind, ind, vary(rng, c.PadL, c.Variation))
	}
	// Ports.
	ports := c.portPositions(rng)
	portNodes := make([]int, c.Ports)
	bottom := c.Layers - 1
	for k, pos := range ports {
		x, y := pos%c.NX, pos/c.NX
		portNodes[k] = node(bottom, x, y)
	}
	return portNodes
}

// Build stamps the power grid directly into sparse MNA descriptor matrices
// in the paper's convention, bypassing netlist string handling. This is the
// only assembly path used outside small-n tests: dense G/C matrices are
// never materialized, so assembly cost and memory are O(nnz) all the way to
// million-node instances. It produces the same model as
// circuit.BuildMNA(c.Netlist()) up to state ordering.
func (c *Config) Build() (*Model, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := c.NumNodes()
	gStd := sparse.NewCOO[float64](n, n)
	cst := sparse.NewCOO[float64](n, n)
	// Four triplets per two-terminal resistor, one per grounded element:
	// mesh segments + vias + pads, and node caps + pad L.
	segs := c.Layers*(2*c.NX*c.NY-c.NX-c.NY) +
		(c.Layers-1)*((c.NX+c.ViaPitch-1)/c.ViaPitch)*((c.NY+c.ViaPitch-1)/c.ViaPitch)
	if c.RCOnly {
		gStd.Reserve(4*segs + c.Pads)
		cst.Reserve(c.NX * c.NY * c.Layers)
	} else {
		gStd.Reserve(4*(segs+c.Pads) + 2*c.Pads)
		cst.Reserve(c.NX*c.NY*c.Layers + c.Pads)
	}

	rng := rand.New(rand.NewSource(c.Seed))
	portNodes := c.stampSeq(rng, gStd.Add, cst.Add)

	bStamp := sparse.NewCOO[float64](n, c.Ports)
	lStamp := sparse.NewCOO[float64](c.Ports, n)
	for k, i := range portNodes {
		// Load draws current out of the node (SPICE source node→ground).
		bStamp.Add(i, k, -1)
		lStamp.Add(k, i, 1)
	}

	g := gStd.ToCSR()
	g.Scale(-1)
	return &Model{
		Config:    *c,
		C:         cst.ToCSR(),
		G:         g,
		B:         bStamp.ToCSR(),
		L:         lStamp.ToCSR(),
		PortNodes: portNodes,
		N:         n,
	}, nil
}

// Model is a stamped power-grid descriptor model in the paper's convention
// C dx/dt = Gx + Bu, y = Lx.
type Model struct {
	Config    Config
	C, G      *sparse.CSR[float64]
	B         *sparse.CSR[float64] // n×m
	L         *sparse.CSR[float64] // p×n (p = m: port voltages)
	PortNodes []int
	N         int
}
