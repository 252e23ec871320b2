package krylov

import (
	"math"
	"testing"

	"repro/internal/dense"
	"repro/internal/grid"
	"repro/internal/lti"
	"repro/internal/sparse"
)

// TestWorkerPanelsMatchSingleVector checks the panel entry points against
// the single-vector ones on every backend: StartBlock and StartLanes equal
// StartColumn and leave padding lanes zero, ApplyLanes equals Apply on live
// lanes and returns retired (zero-source) lanes as zero, and solves are
// counted per live lane.
func TestWorkerPanelsMatchSingleVector(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rcOnly  bool
		backend Backend
		lu      bool // the LU operator instead of NewOperator's
	}{
		{"lu", false, BackendAuto, true},
		{"cholesky", true, BackendAuto, false},
		{"iterative", false, BackendIterative, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := grid.Config{Name: "p", NX: 8, NY: 7, Layers: 2, Ports: 11, Pads: 2,
				SheetR: 0.05, LayerRScale: 2, ViaR: 0.5, ViaPitch: 3, NodeC: 50e-15,
				PadR: 0.1, PadL: 0.5e-9, Variation: 0.2, Seed: 5, RCOnly: tc.rcOnly}
			mod, err := cfg.Build()
			if err != nil {
				t.Fatal(err)
			}
			sys, err := lti.NewSparseSystem(mod.C, mod.G, mod.B, mod.L)
			if err != nil {
				t.Fatal(err)
			}
			n, m, _ := sys.Dims()
			var op *Operator
			if tc.lu {
				op = luOperator(t, sys, 1e9)
			} else if op, err = NewOperator(sys, 1e9, OperatorOptions{Backend: tc.backend,
				Iter: sparse.IterOptions{Tol: 1e-13, MaxIter: 30 * n}}); err != nil {
				t.Fatal(err)
			}
			ref := op.Worker()
			want := make([][]float64, m)
			for j := range want {
				if want[j], err = ref.StartColumn(j); err != nil {
					t.Fatal(err)
				}
			}
			block, err := op.StartBlock()
			if err != nil {
				t.Fatal(err)
			}
			if got := op.Solves(); got != 2*m {
				t.Fatalf("%d solves after StartColumn ×%d + StartBlock, want %d", got, m, 2*m)
			}
			for j := range want {
				equalVec(t, "StartBlock column", j, block[j], want[j])
			}

			// Second panel: ports 8..10 start, then one level with lane 1
			// retired.
			const pw = sparse.PanelWidth
			wk := op.Worker()
			start := make([]float64, n*pw)
			if err := wk.StartLanes(start, pw, m-pw); err != nil {
				t.Fatal(err)
			}
			lanes := make([][]float64, pw)
			for k := range lanes {
				lanes[k] = make([]float64, n)
			}
			sparse.UnpackPanel(lanes, start)
			for k := range lanes {
				if k < m-pw {
					equalVec(t, "StartLanes lane", k, lanes[k], want[pw+k])
				} else {
					equalVec(t, "StartLanes padding lane", k, lanes[k], make([]float64, n))
				}
			}
			src := make([]float64, n*pw)
			sparse.PackPanel(src, [][]float64{want[0], nil, want[2]})
			live := [pw]bool{true, false, true}
			dst := make([]float64, n*pw)
			for i := range dst {
				dst[i] = math.NaN()
			}
			before := op.Solves()
			if err := wk.ApplyLanes(dst, src, &live); err != nil {
				t.Fatal(err)
			}
			if got := op.Solves() - before; got != 2 {
				t.Fatalf("ApplyLanes with 2 live lanes counted %d solves", got)
			}
			sparse.UnpackPanel(lanes, dst)
			w := make([]float64, n)
			for k := range lanes {
				if !live[k] {
					equalVec(t, "ApplyLanes retired lane", k, lanes[k], make([]float64, n))
					continue
				}
				if err := ref.Apply(w, want[k]); err != nil {
					t.Fatal(err)
				}
				equalVec(t, "ApplyLanes lane", k, lanes[k], w)
			}
		})
	}
}

func equalVec(t *testing.T, what string, k int, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s %d row %d: %g, single-vector %g", what, k, i, got[i], want[i])
		}
	}
}

// arnoldiPerColumn is ExtendArnoldi before panelling: one Operator.Apply
// and one Append per source column, in order. The panel version must
// reproduce it exactly.
func arnoldiPerColumn(t *testing.T, op *Operator, basis *dense.Basis[float64], r [][]float64, l int) {
	t.Helper()
	var cur []int
	for _, col := range r {
		if basis.Append(col) {
			cur = append(cur, basis.Len()-1)
		}
	}
	w := make([]float64, op.N())
	for j := 1; j < l && len(cur) > 0; j++ {
		var next []int
		for _, idx := range cur {
			if err := op.Apply(w, basis.Col(idx)); err != nil {
				t.Fatal(err)
			}
			if basis.Append(w) {
				next = append(next, basis.Len()-1)
			}
		}
		cur = next
	}
}

// TestArnoldiPanelsMatchPerColumn pins the panelled block Arnoldi to the
// per-column loop on the three ways the baselines drive it: PRIMA (the
// whole start block, more columns than one panel), EKS (one combined start
// vector) and multipoint PRIMA (one shared basis grown at three expansion
// points). Bases must be equal under == and solve counts identical.
func TestArnoldiPanelsMatchPerColumn(t *testing.T) {
	cfg := grid.Config{Name: "p", NX: 8, NY: 7, Layers: 2, Ports: 11, Pads: 2,
		SheetR: 0.05, LayerRScale: 2, ViaR: 0.5, ViaPitch: 3, NodeC: 50e-15,
		PadR: 0.1, PadL: 0.5e-9, Variation: 0.2, Seed: 5}
	mod, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := lti.NewSparseSystem(mod.C, mod.G, mod.B, mod.L)
	if err != nil {
		t.Fatal(err)
	}
	n, m, _ := sys.Dims()
	eks := make([]float64, n)
	for j := 0; j < m; j++ {
		sparse.Axpy(eks, float64(j+1), sys.BColumn(j))
	}
	for _, tc := range []struct {
		name   string
		points []float64
		l      int
		start  func(op *Operator) [][]float64
	}{
		{"prima", []float64{1e9}, 4, func(op *Operator) [][]float64 {
			r, err := op.StartBlock()
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{"eks", []float64{1e9}, 6, func(op *Operator) [][]float64 {
			b := append([]float64(nil), eks...)
			if err := op.SolvePencil(b, b); err != nil {
				t.Fatal(err)
			}
			return [][]float64{b}
		}},
		{"multipoint", []float64{1e8, 1e10, 1e12}, 3, func(op *Operator) [][]float64 {
			r, err := op.StartBlock()
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var gotSt, wantSt dense.OrthoStats
			got := dense.NewBasis[float64](n, &gotSt)
			want := dense.NewBasis[float64](n, &wantSt)
			for _, s0 := range tc.points {
				op, err := NewOperator(sys, s0, OperatorOptions{})
				if err != nil {
					t.Fatal(err)
				}
				ref, err := NewOperator(sys, s0, OperatorOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if len(tc.points) == 1 {
					b, err := BlockArnoldi(op, tc.start(op), tc.l, &gotSt)
					if err != nil {
						t.Fatal(err)
					}
					got = b
				} else if err := ExtendArnoldi(op, got, tc.start(op), tc.l); err != nil {
					t.Fatal(err)
				}
				arnoldiPerColumn(t, ref, want, tc.start(ref), tc.l)
				if op.Solves() != ref.Solves() {
					t.Fatalf("s0=%g: %d solves, per-column loop %d", s0, op.Solves(), ref.Solves())
				}
			}
			if got.Len() != want.Len() || gotSt != wantSt {
				t.Fatalf("%d columns, %+v; per-column loop %d, %+v", got.Len(), gotSt, want.Len(), wantSt)
			}
			if tc.name != "eks" && got.Len() < 2*m {
				t.Fatalf("only %d columns; no round spans two panels", got.Len())
			}
			for j := 0; j < got.Len(); j++ {
				equalVec(t, "basis column", j, got.Col(j), want.Col(j))
			}
		})
	}
}
