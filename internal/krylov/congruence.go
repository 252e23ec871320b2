package krylov

import (
	"repro/internal/dense"
	"repro/internal/lti"
	"repro/internal/sparse"
)

// Congruence projects the sparse descriptor system through the basis V:
//
//	Cr = Vᵀ C V,  Gr = Vᵀ G V,  Br = Vᵀ B,  Lr = L V,
//
// the one-sided (W = V) projection used throughout the paper, which
// preserves passivity for MNA-structured RLC models (PRIMA's key property).
func Congruence(sys *lti.SparseSystem, v *dense.Basis[float64]) *lti.DenseSystem {
	n, m, p := sys.Dims()
	q := v.Len()

	// CV and GV as dense n×q buffers, one sparse MatVec per column.
	cv := make([][]float64, q)
	gv := make([][]float64, q)
	for j := 0; j < q; j++ {
		cv[j] = make([]float64, n)
		gv[j] = make([]float64, n)
		sys.C.MatVec(cv[j], v.Col(j))
		sys.G.MatVec(gv[j], v.Col(j))
	}
	cr := dense.NewMat[float64](q, q)
	gr := dense.NewMat[float64](q, q)
	for i := 0; i < q; i++ {
		vi := v.Col(i)
		for j := 0; j < q; j++ {
			cr.Set(i, j, sparse.Dot(vi, cv[j]))
			gr.Set(i, j, sparse.Dot(vi, gv[j]))
		}
	}
	br := dense.NewMat[float64](q, m)
	for j := 0; j < m; j++ {
		bj := sys.BColumn(j)
		for i := 0; i < q; i++ {
			br.Set(i, j, sparse.Dot(v.Col(i), bj))
		}
	}
	lr := dense.NewMat[float64](p, q)
	for j := 0; j < q; j++ {
		lv := sys.ApplyL(v.Col(j))
		lr.SetCol(j, lv)
	}
	rom, err := lti.NewDenseSystem(cr, gr, br, lr)
	if err != nil {
		// Dimensions are correct by construction.
		panic("krylov: impossible congruence dimension error: " + err.Error())
	}
	return rom
}

// CongruenceBlock projects the splitted system Σᵢ through its thin basis
// V⁽ⁱ⁾ into a BDSM diagonal block (eq. 11): Cir = V⁽ⁱ⁾ᵀCV⁽ⁱ⁾,
// Gir = V⁽ⁱ⁾ᵀGV⁽ⁱ⁾, Bir = V⁽ⁱ⁾ᵀbᵢ, Lir = L·V⁽ⁱ⁾.
func CongruenceBlock(sys *lti.SparseSystem, v *dense.Basis[float64], input int) lti.Block {
	n, _, p := sys.Dims()
	l := v.Len()
	cv := make([]float64, n)
	gv := make([]float64, n)
	cr := dense.NewMat[float64](l, l)
	gr := dense.NewMat[float64](l, l)
	for j := 0; j < l; j++ {
		sys.C.MatVec(cv, v.Col(j))
		sys.G.MatVec(gv, v.Col(j))
		for i := 0; i < l; i++ {
			cr.Set(i, j, sparse.Dot(v.Col(i), cv))
			gr.Set(i, j, sparse.Dot(v.Col(i), gv))
		}
	}
	bi := sys.BColumn(input)
	br := make([]float64, l)
	for i := 0; i < l; i++ {
		br[i] = sparse.Dot(v.Col(i), bi)
	}
	lr := dense.NewMat[float64](p, l)
	for j := 0; j < l; j++ {
		lr.SetCol(j, sys.ApplyL(v.Col(j)))
	}
	return lti.Block{C: cr, G: gr, B: br, L: lr, Input: input}
}

// congruenceRows is the row block of CongruencePanel: the block's rows of
// every slot, and of C·vⱼ and G·vⱼ, stay in cache while all slot pairs
// read them.
const congruenceRows = 256

// CongruencePanel projects every real lane k of the panel basis v — the
// thin basis V⁽ⁱ⁾ of splitted system i = first+k — into its BDSM diagonal
// block out[k], equal under == to CongruenceBlock on lane k's basis. It
// runs in blocks of rows: per block, C·vⱼ and G·vⱼ are formed for the
// block's rows of every slot j, and each slot pair's lane dot products
// continue over them, so the sums keep CongruenceBlock's row order. A
// lane with an empty basis gets a zero Block.
func (wk *Worker) CongruencePanel(v *dense.PanelBasis, first int, out []lti.Block) {
	const pw = sparse.PanelWidth
	sys := wk.op.sys
	n, _, p := sys.Dims()
	lanes, slots := v.Lanes(), v.Slots()
	for k := 0; k < lanes; k++ {
		l := v.LaneLen(k)
		if l == 0 {
			out[k] = lti.Block{}
			continue
		}
		out[k] = lti.Block{C: dense.NewMat[float64](l, l), G: dense.NewMat[float64](l, l),
			B: make([]float64, l), L: dense.NewMat[float64](p, l), Input: first + k}
	}
	// pairs lists the slot pairs (i, j) some real lane has vectors in
	// both of; dc and dg hold their running lane dot products.
	type pair struct{ i, j int }
	var pairs []pair
	for j := 0; j < slots; j++ {
		for i := 0; i < slots; i++ {
			for k := 0; k < lanes; k++ {
				if v.Index(i, k) >= 0 && v.Index(j, k) >= 0 {
					pairs = append(pairs, pair{i, j})
					break
				}
			}
		}
	}
	dc := make([][pw]float64, len(pairs))
	dg := make([][pw]float64, len(pairs))
	cv, gv := wk.panels()
	for lo := 0; lo < n; lo += congruenceRows {
		hi := min(lo+congruenceRows, n)
		cvb, gvb := cv[:(hi-lo)*pw], gv[:(hi-lo)*pw]
		for q := 0; q < len(pairs); {
			j := pairs[q].j
			sys.C.MulPanelRows(cvb, v.Slot(j), lo, hi)
			sys.G.MulPanelRows(gvb, v.Slot(j), lo, hi)
			for ; q < len(pairs) && pairs[q].j == j; q++ {
				vi := v.Slot(pairs[q].i)[lo*pw : hi*pw]
				sparse.LaneDots(&dc[q], vi, cvb)
				sparse.LaneDots(&dg[q], vi, gvb)
			}
		}
	}
	for q, pr := range pairs {
		for k := 0; k < lanes; k++ {
			i, j := v.Index(pr.i, k), v.Index(pr.j, k)
			if i >= 0 && j >= 0 {
				out[k].C.Set(i, j, dc[q][k])
				out[k].G.Set(i, j, dg[q][k])
			}
		}
	}
	if wk.lpanel == nil {
		wk.lpanel = make([]float64, p*pw)
	}
	lv := wk.lpanel
	for s := 0; s < slots; s++ {
		vs := v.Slot(s)
		sys.L.MulPanel(lv, vs)
		for k := 0; k < lanes; k++ {
			j := v.Index(s, k)
			if j < 0 {
				continue
			}
			for r := 0; r < p; r++ {
				out[k].L.Set(r, j, lv[r*pw+k])
			}
			// Bir = V⁽ⁱ⁾ᵀbᵢ over bᵢ's nonzeros, in row order. Besides
			// these, the dense product CongruenceBlock forms adds only the
			// zeros v·0 of a finite v, and a sum that starts at +0 never
			// becomes -0, so skipping them changes no bit.
			var sum float64
			for q := sys.B.ColPtr[first+k]; q < sys.B.ColPtr[first+k+1]; q++ {
				sum += vs[sys.B.RowIdx[q]*pw+k] * sys.B.Val[q]
			}
			out[k].B[j] = sum
		}
	}
}
