package circuit

import (
	"strings"
	"testing"

	"repro/internal/sparse"
)

// FuzzParse feeds arbitrary text to the netlist parser, seeded with the
// parser tests' netlists. Parse and BuildMNA must never panic: input either
// fails with an error, or it assembles into CSR matrices whose rows hold
// strictly increasing column indices and no stored exact zero.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		sampleNetlist,
		"R1 a b 1\nR2 a b\n",
		"R1 a 0 1\nXsub a b mysub\n",
		"R1 a 0 1\n.tran 1n 10n\n.option gmin=1e-12\n",
		"title\nR1 a 0 1k\nR2 a 0 1k ; parallel stamps sum\nC1 a b 1p\nL1 b 0 2n\nI1 a 0 1m\n.probe v(a) v(b)\n",
		"R1 a b 1\nR2 a b -1\nR3 a 0 1\nI1 b 0 1\n", // conductances that cancel exactly
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		nl, err := Parse(strings.NewReader(text))
		if err != nil {
			return
		}
		m, err := BuildMNA(nl)
		if err != nil {
			return
		}
		n := m.N()
		for _, mat := range []struct {
			name       string
			a          *sparse.CSR[float64]
			rows, cols int
		}{
			{"C", m.C, n, n},
			{"G", m.G, n, n},
			{"B", m.B, n, m.NumInputs()},
			{"L", m.L, m.NumOutputs(), n},
		} {
			if r, c := mat.a.Dims(); r != mat.rows || c != mat.cols {
				t.Fatalf("%s is %d×%d, want %d×%d", mat.name, r, c, mat.rows, mat.cols)
			}
			checkCompiled(t, mat.name, mat.a)
		}
	})
}

// checkCompiled requires a CSR matrix to be what a COO compile produces:
// consistent pointers, strictly increasing in-range columns per row and no
// stored exact zero.
func checkCompiled(t *testing.T, name string, a *sparse.CSR[float64]) {
	t.Helper()
	rows, cols := a.Dims()
	if len(a.RowPtr) != rows+1 || a.RowPtr[0] != 0 || a.RowPtr[rows] != len(a.ColIdx) || len(a.ColIdx) != len(a.Val) {
		t.Fatalf("%s: inconsistent CSR arrays", name)
	}
	for i := 0; i < rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if j < 0 || j >= cols || k > a.RowPtr[i] && j <= a.ColIdx[k-1] {
				t.Fatalf("%s row %d: columns not strictly increasing in range", name, i)
			}
			if a.Val[k] == 0 {
				t.Fatalf("%s (%d,%d): stored exact zero", name, i, j)
			}
		}
	}
}
