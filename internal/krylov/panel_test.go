package krylov

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/lti"
	"repro/internal/sparse"
)

// TestWorkerPanelsMatchSingleVector checks the panel entry points against
// the single-vector ones on every backend: StartBlock and StartPanel equal
// StartColumn, ApplyPanel equals Apply on live lanes and leaves retired
// (nil-source) lanes untouched, and solves are counted per right-hand side.
func TestWorkerPanelsMatchSingleVector(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rcOnly  bool
		backend Backend
	}{
		{"lu", false, BackendLU},
		{"cholesky", true, BackendCholesky},
		{"iterative", false, BackendIterative},
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
			op, err := NewOperator(sys, 1e9, OperatorOptions{Backend: tc.backend,
				Iter: sparse.IterOptions{Tol: 1e-13, MaxIter: 30 * n}})
			if err != nil {
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
			wk := op.Worker()
			lanes := make([][]float64, m-sparse.PanelWidth)
			for k := range lanes {
				lanes[k] = make([]float64, n)
			}
			if err := wk.StartPanel(lanes, sparse.PanelWidth); err != nil {
				t.Fatal(err)
			}
			for k := range lanes {
				equalVec(t, "StartPanel lane", k, lanes[k], want[sparse.PanelWidth+k])
			}
			src := [][]float64{want[0], nil, want[2]}
			sentinel := lanes[1][0]
			before := op.Solves()
			if err := wk.ApplyPanel(lanes, src); err != nil {
				t.Fatal(err)
			}
			if got := op.Solves() - before; got != 2 {
				t.Fatalf("ApplyPanel with 2 live lanes counted %d solves", got)
			}
			if lanes[1][0] != sentinel {
				t.Fatal("ApplyPanel wrote a retired lane")
			}
			w := make([]float64, n)
			for _, k := range []int{0, 2} {
				if err := ref.Apply(w, src[k]); err != nil {
					t.Fatal(err)
				}
				equalVec(t, "ApplyPanel lane", k, lanes[k], w)
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
