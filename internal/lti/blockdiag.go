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
	if bd.M < 0 || bd.P < 0 {
		return fmt.Errorf("lti: negative port counts %d inputs, %d outputs", bd.M, bd.P)
	}
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

// blockColumn evaluates block b's contribution Lᵢ (sCᵢ - Gᵢ)⁻¹ bᵢ to
// column Input of Hr(s) through a one-shot complex LU of its pencil. It is
// the LU reference the modal form is checked against, and the inline path
// for blocks that fail to diagonalize.
func blockColumn(b *Block, s complex128) ([]complex128, error) {
	return newBlockLU(b).column(s)
}

// blockLU evaluates one block's column as blockColumn does, at as many s
// as the caller likes: it converts C, G and L to complex once and reuses the
// pencil, its LU and the vectors across calls.
type blockLU struct {
	c, g, l, pencil *dense.Mat[complex128]
	lu              dense.LU[complex128]
	bz, x, col      []complex128
}

func newBlockLU(b *Block) *blockLU {
	e := &blockLU{
		c: dense.ToComplex(b.C), g: dense.ToComplex(b.G), l: dense.ToComplex(b.L),
		pencil: dense.NewMat[complex128](b.C.Rows, b.C.Cols),
		bz:     make([]complex128, len(b.B)),
		x:      make([]complex128, len(b.B)),
		col:    make([]complex128, b.L.Rows),
	}
	for k, v := range b.B {
		e.bz[k] = complex(v, 0)
	}
	return e
}

// column returns the block's column at s in a slice the next call reuses.
func (e *blockLU) column(s complex128) ([]complex128, error) {
	for i, c := range e.c.Data {
		e.pencil.Data[i] = complex128(c*s) - e.g.Data[i] // rounded as C·s, then − G
	}
	if err := e.lu.Factor(e.pencil); err != nil {
		return nil, fmt.Errorf("lti: block pencil singular at s=%v: %w", s, err)
	}
	if err := e.lu.Solve(e.x, e.bz); err != nil {
		return nil, err
	}
	for r := range e.col {
		e.col[r] = sparse.Dot(e.l.Row(r), e.x)
	}
	return e.col, nil
}

// Eval computes Hr(s) block by block: column Inputᵢ accumulates
// Lᵢ (sCᵢ - Gᵢ)⁻¹ bᵢ (eq. 15). Each block is a small l×l factor+solve, so
// the total cost is O(m·l³) — the paper's headline simulation speedup over
// the O(m³l³) dense ROM (Sec. III-B). Serving evaluates through the modal
// form (Modalize), which this LU evaluation is the reference for.
func (bd *BlockDiagSystem) Eval(s complex128) (*dense.Mat[complex128], error) {
	h := dense.NewMat[complex128](bd.P, bd.M)
	for i := range bd.Blocks {
		col, err := blockColumn(&bd.Blocks[i], s)
		if err != nil {
			return nil, fmt.Errorf("lti: block %d: %w", i, err)
		}
		j := bd.Blocks[i].Input
		for r, v := range col {
			h.Data[r*h.Cols+j] += v
		}
	}
	return h, nil
}

// EvalColumn evaluates one column of Hr(s), factoring only the blocks driven
// by input j (normally exactly one).
func (bd *BlockDiagSystem) EvalColumn(s complex128, j int) ([]complex128, error) {
	if j < 0 || j >= bd.M {
		return nil, fmt.Errorf("lti: column %d out of range %d", j, bd.M)
	}
	dst := make([]complex128, bd.P)
	for i := range bd.Blocks {
		if bd.Blocks[i].Input != j {
			continue
		}
		col, err := blockColumn(&bd.Blocks[i], s)
		if err != nil {
			return nil, fmt.Errorf("lti: block %d: %w", i, err)
		}
		for r, v := range col {
			dst[r] += v
		}
	}
	return dst, nil
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
