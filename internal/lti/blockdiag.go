package lti

import (
	"fmt"

	"repro/internal/dense"
	"repro/internal/sparse"
)

// Block is one diagonal block of a BDSM reduced-order model: the size-l
// reduction of the i-th splitted system Σᵢ (eq. 11 of the paper). Its input
// matrix has a single nonzero column (the Input-th), stored as the vector B.
type Block struct {
	C *dense.Mat[float64] // l×l
	G *dense.Mat[float64] // l×l
	B []float64           // length l: (V⁽ⁱ⁾)ᵀ bᵢ
	L *dense.Mat[float64] // p×l: L·V⁽ⁱ⁾
	// Input is the index i of the input port driving this block.
	Input int
}

// Order returns the block size l.
func (b *Block) Order() int { return b.C.Rows }

// BlockDiagSystem is the block-diagonal structured ROM produced by BDSM
// (eq. 14): Cr = blkdiag(C₁ᵣ…C_mᵣ), Gr = blkdiag(G₁ᵣ…G_mᵣ), Br with one
// nonzero column per block, Lr the horizontal concatenation of the L·V⁽ⁱ⁾.
// Its transfer matrix is Hr(s) = Σᵢ Hᵢᵣ(s), summed column-wise (eq. 15).
type BlockDiagSystem struct {
	Blocks []Block
	// M and P are the input and output counts of the original system.
	M, P int
}

// Dims returns (Σ block orders, M, P).
func (bd *BlockDiagSystem) Dims() (n, m, p int) {
	for i := range bd.Blocks {
		n += bd.Blocks[i].Order()
	}
	return n, bd.M, bd.P
}

// Validate checks internal consistency.
func (bd *BlockDiagSystem) Validate() error {
	for i := range bd.Blocks {
		b := &bd.Blocks[i]
		l := b.Order()
		if b.C.Cols != l || b.G.Rows != l || b.G.Cols != l {
			return fmt.Errorf("lti: block %d: inconsistent C/G sizes", i)
		}
		if len(b.B) != l {
			return fmt.Errorf("lti: block %d: B length %d, want %d", i, len(b.B), l)
		}
		if b.L.Rows != bd.P || b.L.Cols != l {
			return fmt.Errorf("lti: block %d: L is %d×%d, want %d×%d", i, b.L.Rows, b.L.Cols, bd.P, l)
		}
		if b.Input < 0 || b.Input >= bd.M {
			return fmt.Errorf("lti: block %d: input index %d out of range %d", i, b.Input, bd.M)
		}
	}
	return nil
}

// BlockDiagFactors is a reusable frequency-point factorization context: the
// complex LU factors of every block pencil (sCᵢ - Gᵢ) at one fixed s,
// together with complexified views of Bᵢ and Lᵢ. Factoring is the O(l³)
// part of an evaluation; with the factors in hand each extra Eval or
// EvalColumn at the same s costs only O(l²) triangular solves per block.
// A BlockDiagFactors is immutable after construction and safe for
// concurrent use.
type BlockDiagFactors struct {
	// S is the complex frequency the pencils were factored at.
	S complex128
	// M and P mirror the source system's port and output counts.
	M, P int

	// col is -1 for a full factorization; otherwise only the blocks
	// driven by input col are factored and only that column can be
	// evaluated.
	col    int
	blocks []blockFactor
}

type blockFactor struct {
	lu    *dense.LU[complex128]
	b     []complex128           // complexified B
	l     *dense.Mat[complex128] // complexified L
	input int
}

// factorBlock builds the evaluation context of a single block at s.
func factorBlock(b *Block, s complex128) (blockFactor, error) {
	ctrFactorizations.Add(1)
	pencil := dense.ToComplex(b.C).Scale(s).Sub(dense.ToComplex(b.G))
	lu, err := dense.FactorLU(pencil)
	if err != nil {
		return blockFactor{}, fmt.Errorf("lti: block pencil singular at s=%v: %w", s, err)
	}
	bz := make([]complex128, len(b.B))
	for k, v := range b.B {
		bz[k] = complex(v, 0)
	}
	return blockFactor{lu: lu, b: bz, l: dense.ToComplex(b.L), input: b.Input}, nil
}

// column solves the factored block pencil against its input vector and maps
// through L: Lᵢ (sCᵢ - Gᵢ)⁻¹ bᵢ.
func (bf *blockFactor) column() ([]complex128, error) {
	x := make([]complex128, len(bf.b))
	if err := bf.lu.Solve(x, bf.b); err != nil {
		return nil, err
	}
	return bf.l.MulVec(x), nil
}

// columnInto is column with caller-provided buffers: the solve lands in
// x[:order] and Lᵢ·x is accumulated into dst. The allocation-free core of
// the serving layer's factored evaluation path.
//
//pgmor:noalloc
func (bf *blockFactor) columnInto(dst, x []complex128) error {
	x = x[:len(bf.b)]
	if err := bf.lu.Solve(x, bf.b); err != nil {
		return err
	}
	for r := range dst {
		row := bf.l.Row(r)
		var sum complex128
		for i, v := range x {
			sum += row[i] * v
		}
		dst[r] += sum
	}
	return nil
}

// addMatColumn is columnInto accumulating into column j of h instead of a
// contiguous slice, so full-matrix evaluation needs no per-call column
// temporary.
//
//pgmor:noalloc
func (bf *blockFactor) addMatColumn(h *dense.Mat[complex128], j int, x []complex128) error {
	x = x[:len(bf.b)]
	if err := bf.lu.Solve(x, bf.b); err != nil {
		return err
	}
	for r := 0; r < bf.l.Rows; r++ {
		row := bf.l.Row(r)
		var sum complex128
		for i, v := range x {
			sum += row[i] * v
		}
		h.Data[r*h.Cols+j] += sum
	}
	return nil
}

// Factorize factors every block pencil at s into a reusable evaluation
// context. Repeated evaluations at the same frequency — AC sweeps over
// shared grids, concurrent requests hitting common points — should factor
// once and evaluate through the returned context.
func (bd *BlockDiagSystem) Factorize(s complex128) (*BlockDiagFactors, error) {
	f := &BlockDiagFactors{S: s, M: bd.M, P: bd.P, col: -1, blocks: make([]blockFactor, len(bd.Blocks))}
	for i := range bd.Blocks {
		bf, err := factorBlock(&bd.Blocks[i], s)
		if err != nil {
			return nil, fmt.Errorf("lti: block %d: %w", i, err)
		}
		f.blocks[i] = bf
	}
	return f, nil
}

// FactorizeColumn factors only the blocks driven by input j (normally one
// block of m), producing a context that evaluates column j alone. Compared
// to Factorize this is m× cheaper to build and to retain — the right shape
// for single-entry sweeps over many-port grids.
func (bd *BlockDiagSystem) FactorizeColumn(s complex128, j int) (*BlockDiagFactors, error) {
	if j < 0 || j >= bd.M {
		return nil, fmt.Errorf("lti: column %d out of range %d", j, bd.M)
	}
	f := &BlockDiagFactors{S: s, M: bd.M, P: bd.P, col: j}
	for i := range bd.Blocks {
		if bd.Blocks[i].Input != j {
			continue
		}
		bf, err := factorBlock(&bd.Blocks[i], s)
		if err != nil {
			return nil, fmt.Errorf("lti: block %d: %w", i, err)
		}
		f.blocks = append(f.blocks, bf)
	}
	return f, nil
}

// ScratchLen returns the solve-buffer length EvalInto/EvalColumnInto need:
// the largest factored block order. Callers that pool scratch across models
// should size to the largest ScratchLen they serve.
func (f *BlockDiagFactors) ScratchLen() int {
	n := 0
	for i := range f.blocks {
		if l := len(f.blocks[i].b); l > n {
			n = l
		}
	}
	return n
}

// Eval computes the full p×m transfer matrix Hr(S) from the cached factors:
// column Input receives Lᵢ (sCᵢ - Gᵢ)⁻¹ bᵢ (eq. 15), at O(l²) per block.
func (f *BlockDiagFactors) Eval() (*dense.Mat[complex128], error) {
	h := dense.NewMat[complex128](f.P, f.M)
	if err := f.EvalInto(h, make([]complex128, f.ScratchLen())); err != nil {
		return nil, err
	}
	return h, nil
}

// EvalInto is Eval with caller-provided storage: h must be P×M (it is
// zeroed), scratch at least ScratchLen long. Zero allocations per call.
//
//pgmor:noalloc
func (f *BlockDiagFactors) EvalInto(h *dense.Mat[complex128], scratch []complex128) error {
	if f.col >= 0 {
		return fmt.Errorf("lti: column-%d factorization cannot evaluate the full matrix", f.col)
	}
	if h.Rows != f.P || h.Cols != f.M {
		return fmt.Errorf("lti: EvalInto matrix is %d×%d, want %d×%d", h.Rows, h.Cols, f.P, f.M)
	}
	for i := range h.Data {
		h.Data[i] = 0
	}
	ctrFactoredEvals.Add(int64(len(f.blocks)))
	for i := range f.blocks {
		if err := f.blocks[i].addMatColumn(h, f.blocks[i].input, scratch); err != nil {
			return err
		}
	}
	return nil
}

// EvalColumn computes column j of Hr(S) from the cached factors.
func (f *BlockDiagFactors) EvalColumn(j int) ([]complex128, error) {
	col := make([]complex128, f.P)
	if err := f.EvalColumnInto(col, make([]complex128, f.ScratchLen()), j); err != nil {
		return nil, err
	}
	return col, nil
}

// EvalColumnInto computes column j of Hr(S) into dst (length P, zeroed here)
// using scratch (at least ScratchLen long) for the block solves. Zero
// allocations per call — the per-point cost of a factored sweep with
// caller-held buffers.
//
//pgmor:noalloc
func (f *BlockDiagFactors) EvalColumnInto(dst, scratch []complex128, j int) error {
	if j < 0 || j >= f.M {
		return fmt.Errorf("lti: column %d out of range %d", j, f.M)
	}
	if f.col >= 0 && j != f.col {
		return fmt.Errorf("lti: factorization holds column %d, not %d", f.col, j)
	}
	if len(dst) != f.P {
		return fmt.Errorf("lti: EvalColumnInto dst length %d, want %d", len(dst), f.P)
	}
	for r := range dst {
		dst[r] = 0
	}
	var evaluated int64
	for i := range f.blocks {
		if f.blocks[i].input != j {
			continue
		}
		if err := f.blocks[i].columnInto(dst, scratch); err != nil {
			return err
		}
		evaluated++
	}
	if evaluated > 0 {
		ctrFactoredEvals.Add(evaluated)
	}
	return nil
}

// Eval computes Hr(s) block by block via a one-shot factorization context.
// Each block is a small l×l factor+solve, so the total cost is O(m·l³) —
// the paper's headline simulation speedup over the O(m³l³) dense ROM
// (Sec. III-B). Callers evaluating the same s repeatedly should Factorize
// once and reuse the context.
func (bd *BlockDiagSystem) Eval(s complex128) (*dense.Mat[complex128], error) {
	f, err := bd.Factorize(s)
	if err != nil {
		return nil, err
	}
	return f.Eval()
}

// EvalColumn evaluates one column of Hr(s), factoring only the blocks driven
// by input j (normally exactly one).
func (bd *BlockDiagSystem) EvalColumn(s complex128, j int) ([]complex128, error) {
	f, err := bd.FactorizeColumn(s, j)
	if err != nil {
		return nil, err
	}
	return f.EvalColumn(j)
}

// ToDense assembles the explicit block-diagonal matrices of eq. (14) into a
// DenseSystem. Used for structure inspection (Fig. 4) and cross-validation;
// simulation should stay on the block form.
func (bd *BlockDiagSystem) ToDense() *DenseSystem {
	q, m, p := bd.Dims()
	c := dense.NewMat[float64](q, q)
	g := dense.NewMat[float64](q, q)
	bmat := dense.NewMat[float64](q, m)
	lmat := dense.NewMat[float64](p, q)
	off := 0
	for i := range bd.Blocks {
		blk := &bd.Blocks[i]
		l := blk.Order()
		for r := 0; r < l; r++ {
			for cc := 0; cc < l; cc++ {
				c.Set(off+r, off+cc, blk.C.At(r, cc))
				g.Set(off+r, off+cc, blk.G.At(r, cc))
			}
			bmat.Set(off+r, blk.Input, blk.B[r])
		}
		for r := 0; r < p; r++ {
			for cc := 0; cc < l; cc++ {
				lmat.Set(r, off+cc, blk.L.At(r, cc))
			}
		}
		off += l
	}
	return &DenseSystem{C: c, G: g, B: bmat, L: lmat}
}

// NNZ returns the nonzero counts of the assembled Cr, Gr, Br, Lr without
// materializing them: the paper's storage argument is m·l² nonzeros versus
// O(m²l²) for a dense ROM.
func (bd *BlockDiagSystem) NNZ() (c, g, b, l int) {
	for i := range bd.Blocks {
		blk := &bd.Blocks[i]
		c += blk.C.NNZ()
		g += blk.G.NNZ()
		for _, v := range blk.B {
			if v != 0 {
				b++
			}
		}
		l += blk.L.NNZ()
	}
	return c, g, b, l
}

// ApplyInput computes dst = Br·u over the stacked block states.
func (bd *BlockDiagSystem) ApplyInput(dst, u []float64) {
	q, m, _ := bd.Dims()
	if len(dst) != q || len(u) != m {
		panic("lti: BlockDiag ApplyInput dimension mismatch")
	}
	off := 0
	for i := range bd.Blocks {
		blk := &bd.Blocks[i]
		ui := u[blk.Input]
		for r, v := range blk.B {
			dst[off+r] = v * ui
		}
		off += blk.Order()
	}
}

// ApplyOutput computes y = Lr·x over the stacked block states.
func (bd *BlockDiagSystem) ApplyOutput(x []float64) []float64 {
	y := make([]float64, bd.P)
	off := 0
	for i := range bd.Blocks {
		blk := &bd.Blocks[i]
		l := blk.Order()
		for r := 0; r < bd.P; r++ {
			y[r] += sparse.Dot(blk.L.Row(r), x[off:off+l])
		}
		off += l
	}
	return y
}
