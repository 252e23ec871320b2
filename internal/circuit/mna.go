package circuit

import (
	"fmt"

	"repro/internal/sparse"
)

// MNA is the modified-nodal-analysis descriptor model of a netlist in the
// paper's sign convention:
//
//	C dx/dt = G x + B u,   y = L x.
//
// The state x stacks node voltages, then inductor branch currents, then
// voltage-source branch currents. Inputs u stack current sources then
// voltage sources in netlist order; outputs y are the probed node voltages.
type MNA struct {
	C *sparse.CSR[float64] // n×n: capacitances and inductances
	G *sparse.CSR[float64] // n×n: negated conductance/incidence stamps
	B *sparse.CSR[float64] // n×m: input incidence
	L *sparse.CSR[float64] // p×n: output selection

	// NodeIndex maps node name to state index; ground is absent.
	NodeIndex map[string]int
	// StateNames labels every state variable (v(node), i(Lxxx), i(Vxxx)).
	StateNames []string
	// InputNames labels every input port (source element names).
	InputNames []string
	// OutputNames labels every output (probed node names).
	OutputNames []string

	NumNodes     int
	NumInductors int
	NumVSources  int
}

// N returns the state dimension.
func (m *MNA) N() int { n, _ := m.C.Dims(); return n }

// NumInputs returns the port count m.
func (m *MNA) NumInputs() int { _, c := m.B.Dims(); return c }

// BuildMNA assembles the descriptor model of the netlist. Every non-ground
// node receives its MNA row; inductors and voltage sources append branch
// current rows. Probes default to the positive terminals of all current
// sources when the netlist declares none — the standard observation set for
// power-grid IR-drop analysis.
func BuildMNA(nl *Netlist) (*MNA, error) {
	nodeNames := nl.NodeNames()
	if len(nodeNames) == 0 {
		return nil, fmt.Errorf("circuit: netlist has no non-ground nodes")
	}
	nodeIdx := make(map[string]int, len(nodeNames))
	for i, name := range nodeNames {
		nodeIdx[name] = i
	}
	nv := len(nodeNames)

	// Assign branch-current state indices.
	nL, nV := 0, 0
	for _, e := range nl.Elements {
		switch e.Kind {
		case Inductor:
			nL++
		case VoltageSource:
			nV++
		}
	}
	n := nv + nL + nV

	stateNames := make([]string, 0, n)
	for _, name := range nodeNames {
		stateNames = append(stateNames, "v("+name+")")
	}

	// idx returns the state index for a node name, or -1 for ground.
	idx := func(name string) int {
		if isGround(name) {
			return -1
		}
		return nodeIdx[name]
	}

	cStamp := sparse.NewCOO[float64](n, n)
	gStd := sparse.NewCOO[float64](n, n) // standard-convention G; negated at the end

	// Input ports: current sources first, then voltage sources, each in
	// netlist order.
	var inputNames []string
	type port struct {
		elem Element
		col  int
	}
	var iPorts, vPorts []port
	for _, e := range nl.Elements {
		if e.Kind == CurrentSource {
			iPorts = append(iPorts, port{elem: e})
		}
	}
	for _, e := range nl.Elements {
		if e.Kind == VoltageSource {
			vPorts = append(vPorts, port{elem: e})
		}
	}
	mTotal := len(iPorts) + len(vPorts)
	bStamp := sparse.NewCOO[float64](n, mTotal)

	col := 0
	for i := range iPorts {
		iPorts[i].col = col
		inputNames = append(inputNames, iPorts[i].elem.Name)
		col++
	}
	for i := range vPorts {
		vPorts[i].col = col
		inputNames = append(inputNames, vPorts[i].elem.Name)
		col++
	}

	// Stamp passive elements and branch rows.
	iL, iV := 0, 0
	for _, e := range nl.Elements {
		a, b := idx(e.NodePos), idx(e.NodeNeg)
		switch e.Kind {
		case Resistor:
			g := 1 / e.Value
			stampConductance(gStd, a, b, g)
		case Capacitor:
			stampConductance(cStamp, a, b, e.Value)
		case Inductor:
			j := nv + iL
			iL++
			stateNames = append(stateNames, "i("+e.Name+")")
			// KCL: branch current leaves NodePos, enters NodeNeg.
			if a >= 0 {
				gStd.Add(a, j, 1)
			}
			if b >= 0 {
				gStd.Add(b, j, -1)
			}
			// KVL row: L di/dt - v(a) + v(b) = 0.
			cStamp.Add(j, j, e.Value)
			if a >= 0 {
				gStd.Add(j, a, -1)
			}
			if b >= 0 {
				gStd.Add(j, b, 1)
			}
		}
	}
	for _, p := range iPorts {
		a, b := idx(p.elem.NodePos), idx(p.elem.NodeNeg)
		// SPICE convention: current u flows from NodePos through the source
		// to NodeNeg, i.e. it is drawn out of NodePos and injected into
		// NodeNeg. The paper form C dx/dt = Gx + Bu with G = -G_std keeps
		// B equal to the standard MNA right-hand side.
		if a >= 0 {
			bStamp.Add(a, p.col, -1)
		}
		if b >= 0 {
			bStamp.Add(b, p.col, 1)
		}
	}
	for _, p := range vPorts {
		a, b := idx(p.elem.NodePos), idx(p.elem.NodeNeg)
		j := nv + nL + iV
		iV++
		stateNames = append(stateNames, "i("+p.elem.Name+")")
		if a >= 0 {
			gStd.Add(a, j, 1)
			gStd.Add(j, a, 1)
		}
		if b >= 0 {
			gStd.Add(b, j, -1)
			gStd.Add(j, b, -1)
		}
		// Branch row: v(a) - v(b) = u with standard RHS +u.
		bStamp.Add(j, p.col, 1)
	}

	// Outputs.
	probes := nl.Probes
	if len(probes) == 0 {
		for _, p := range iPorts {
			// Probe the non-ground terminal of each current source.
			switch {
			case !isGround(p.elem.NodePos):
				probes = append(probes, p.elem.NodePos)
			case !isGround(p.elem.NodeNeg):
				probes = append(probes, p.elem.NodeNeg)
			}
		}
	}
	lStamp := sparse.NewCOO[float64](len(probes), n)
	outputNames := make([]string, len(probes))
	for r, name := range probes {
		i, ok := nodeIdx[name]
		if !ok {
			return nil, fmt.Errorf("circuit: probe node %q not present in netlist", name)
		}
		lStamp.Add(r, i, 1)
		outputNames[r] = name
	}

	g := gStd.ToCSR()
	g.Scale(-1) // paper convention: G = -G_std

	return &MNA{
		C:            cStamp.ToCSR(),
		G:            g,
		B:            bStamp.ToCSR(),
		L:            lStamp.ToCSR(),
		NodeIndex:    nodeIdx,
		StateNames:   stateNames,
		InputNames:   inputNames,
		OutputNames:  outputNames,
		NumNodes:     nv,
		NumInductors: nL,
		NumVSources:  nV,
	}, nil
}

// stampConductance applies the standard two-terminal conductance stamp.
func stampConductance(m *sparse.COO[float64], a, b int, g float64) {
	if a >= 0 {
		m.Add(a, a, g)
	}
	if b >= 0 {
		m.Add(b, b, g)
	}
	if a >= 0 && b >= 0 {
		m.Add(a, b, -g)
		m.Add(b, a, -g)
	}
}
