package lti

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"repro/internal/dense"
)

// BlockDiagFormatVersion is the on-wire format version written by
// SaveBlockDiag/SaveModal and required by the loaders. A persistent ROM
// store built on this format survives process restarts, so the version is
// checked strictly: a stream written by a different version is rejected
// rather than decoded on a best-effort basis, and a content checksum rejects
// streams whose bytes decoded but were corrupted in storage or transit. Bump
// this whenever the encoded shape or semantics change.
//
// Version history:
//
//	1: block-diagonal system only
//	2: optional per-block modal section (poles, residue rows, direct term)
//	   so a warm restart recovers the diagonalize-once fast path without
//	   re-running the eigendecompositions
const BlockDiagFormatVersion = 2

// The gob wire types deliberately mirror the public structs field-for-field
// so the on-disk format is stable against internal refactors.

type gobMat struct {
	Rows, Cols int
	Data       []float64
}

func toGobMat(m *dense.Mat[float64]) gobMat {
	return gobMat{Rows: m.Rows, Cols: m.Cols, Data: m.Data}
}

func fromGobMat(g gobMat) *dense.Mat[float64] {
	return &dense.Mat[float64]{Rows: g.Rows, Cols: g.Cols, Data: g.Data}
}

// validate rejects decoded matrices whose data length disagrees with their
// declared shape. Mat methods index Data by Rows/Cols arithmetic, so a
// crafted or corrupted stream that lied about its shape would otherwise
// panic (or silently alias memory) on first use instead of failing decode.
func (g *gobMat) validate(what string) error {
	if g.Rows < 0 || g.Cols < 0 {
		return fmt.Errorf("lti: %s has negative shape %d×%d", what, g.Rows, g.Cols)
	}
	if len(g.Data) != g.Rows*g.Cols {
		return fmt.Errorf("lti: %s declares %d×%d but carries %d values", what, g.Rows, g.Cols, len(g.Data))
	}
	return checkFinite(g.Data, what)
}

// checkFinite rejects NaN and ±Inf. No reduction or diagonalization writes
// one, and a ROM carrying one evaluates to non-finite values, so a stream
// that does is corrupt whatever its checksum says.
func checkFinite(vs []float64, what string) error {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("lti: %s carries non-finite value %v", what, v)
		}
	}
	return nil
}

type gobBlock struct {
	C, G, L gobMat
	B       []float64
	Input   int
}

// gobModalBlock is the wire form of one ModalBlock. encoding/gob has no
// complex kinds, so complex data travels as interleaved (re, im) float64
// pairs: Poles holds 2·q' values, R is q'×2p, D holds 2·p values or none.
// A fallback block is {Modal: false} with every slice empty.
type gobModalBlock struct {
	Modal bool
	Sym   bool
	Poles []float64
	R     gobMat
	D     []float64
}

type gobBlockDiag struct {
	// Version pins the format; see BlockDiagFormatVersion.
	Version int
	Blocks  []gobBlock
	M, P    int
	// Modal, when non-empty, parallels Blocks with the diagonalized forms
	// (format version 2). Empty means the stream carries no modal section.
	Modal []gobModalBlock
	// Checksum is an FNV-64a digest of the dimensions and raw float bits of
	// every block, computed by checksumBlockDiag. It detects storage-level
	// corruption (bit flips) that gob itself decodes without complaint.
	Checksum uint64
}

// checksumBlockDiag digests the structural and numeric content of the wire
// form: dimensions, input indices, and the IEEE-754 bit patterns of every
// matrix entry. Float bits (not values) make the digest exact — two ROMs
// differing in one ulp, or a NaN with a flipped payload bit, hash apart.
func checksumBlockDiag(g *gobBlockDiag) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wi := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	wf := func(vs []float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	wi(g.M)
	wi(g.P)
	wi(len(g.Blocks))
	for i := range g.Blocks {
		b := &g.Blocks[i]
		wi(b.Input)
		for _, m := range []*gobMat{&b.C, &b.G, &b.L} {
			wi(m.Rows)
			wi(m.Cols)
			wf(m.Data)
		}
		wi(len(b.B))
		wf(b.B)
	}
	wi(len(g.Modal))
	for i := range g.Modal {
		mb := &g.Modal[i]
		flag := 0
		if mb.Modal {
			flag |= 1
		}
		if mb.Sym {
			flag |= 2
		}
		wi(flag)
		wi(len(mb.Poles))
		wf(mb.Poles)
		wi(mb.R.Rows)
		wi(mb.R.Cols)
		wf(mb.R.Data)
		wi(len(mb.D))
		wf(mb.D)
	}
	return h.Sum64()
}

// cplxToFloats flattens complex values to interleaved (re, im) pairs.
func cplxToFloats(zs []complex128) []float64 {
	if len(zs) == 0 {
		return nil
	}
	out := make([]float64, 2*len(zs))
	for i, z := range zs {
		out[2*i] = real(z)
		out[2*i+1] = imag(z)
	}
	return out
}

// floatsToCplx reassembles interleaved (re, im) pairs, rejecting
// non-finite parts.
func floatsToCplx(fs []float64, what string) ([]complex128, error) {
	if len(fs)%2 != 0 {
		return nil, fmt.Errorf("lti: %s carries %d floats, want an even count", what, len(fs))
	}
	if err := checkFinite(fs, what); err != nil {
		return nil, err
	}
	if len(fs) == 0 {
		return nil, nil
	}
	out := make([]complex128, len(fs)/2)
	for i := range out {
		out[i] = complex(fs[2*i], fs[2*i+1])
	}
	return out, nil
}

// toGobModal flattens one modal block to wire form.
func toGobModal(mb *ModalBlock) gobModalBlock {
	g := gobModalBlock{Modal: mb.Modal, Sym: mb.Sym}
	if !mb.Modal {
		return g
	}
	g.Poles = cplxToFloats(mb.Poles)
	g.R = gobMat{Rows: mb.R.Rows, Cols: 2 * mb.R.Cols, Data: cplxToFloats(mb.R.Data)}
	g.D = cplxToFloats(mb.D)
	return g
}

// fromGobModal rebuilds one modal block; the input index comes from the
// source block (it is structural, not payload). Shape consistency against
// the source system is enforced afterwards by ModalSystem.Validate.
func fromGobModal(g *gobModalBlock, input, i int) (ModalBlock, error) {
	mb := ModalBlock{Input: input, Modal: g.Modal, Sym: g.Sym}
	if !g.Modal {
		if len(g.Poles) != 0 || len(g.R.Data) != 0 || len(g.D) != 0 {
			return ModalBlock{}, fmt.Errorf("lti: modal block %d is a fallback but carries data", i)
		}
		return mb, nil
	}
	var err error
	if mb.Poles, err = floatsToCplx(g.Poles, fmt.Sprintf("modal block %d poles", i)); err != nil {
		return ModalBlock{}, err
	}
	if err := g.R.validate(fmt.Sprintf("modal block %d residues", i)); err != nil {
		return ModalBlock{}, err
	}
	if g.R.Cols%2 != 0 {
		return ModalBlock{}, fmt.Errorf("lti: modal block %d residues have odd wire width %d", i, g.R.Cols)
	}
	rdata, err := floatsToCplx(g.R.Data, fmt.Sprintf("modal block %d residues", i))
	if err != nil {
		return ModalBlock{}, err
	}
	mb.R = &dense.Mat[complex128]{Rows: g.R.Rows, Cols: g.R.Cols / 2, Data: rdata}
	if mb.D, err = floatsToCplx(g.D, fmt.Sprintf("modal block %d direct term", i)); err != nil {
		return ModalBlock{}, err
	}
	return mb, nil
}

// SaveBlockDiag serializes a block-diagonal ROM. A saved ROM is the paper's
// "reusable" artifact: build once, simulate under arbitrarily many input
// patterns later (Sec. I criterion 2). The stream carries a format version
// and a content checksum so a loader can distinguish "written by other
// code" from "corrupted in storage" — the persistent ROM store depends on
// both signals to quarantine bad files instead of serving wrong models.
func SaveBlockDiag(w io.Writer, bd *BlockDiagSystem) error {
	return saveROM(w, bd, nil)
}

// SaveModal serializes a block-diagonal ROM together with its modal form, so
// a loader recovers the factorization-free fast path without re-running the
// per-block eigendecompositions.
func SaveModal(w io.Writer, ms *ModalSystem) error {
	if err := ms.Validate(); err != nil {
		return fmt.Errorf("lti: refusing to save invalid modal ROM: %w", err)
	}
	return saveROM(w, ms.BD, ms)
}

func saveROM(w io.Writer, bd *BlockDiagSystem, ms *ModalSystem) error {
	if err := bd.Validate(); err != nil {
		return fmt.Errorf("lti: refusing to save invalid ROM: %w", err)
	}
	g := gobBlockDiag{Version: BlockDiagFormatVersion, M: bd.M, P: bd.P}
	for i := range bd.Blocks {
		b := &bd.Blocks[i]
		g.Blocks = append(g.Blocks, gobBlock{
			C: toGobMat(b.C), G: toGobMat(b.G), L: toGobMat(b.L),
			B: b.B, Input: b.Input,
		})
	}
	if ms != nil {
		for i := range ms.Blocks {
			g.Modal = append(g.Modal, toGobModal(&ms.Blocks[i]))
		}
	}
	g.Checksum = checksumBlockDiag(&g)
	return gob.NewEncoder(w).Encode(&g)
}

// LoadBlockDiag deserializes a block-diagonal ROM saved by SaveBlockDiag or
// SaveModal, discarding any modal section. It rejects — with an error, never
// a panic and never a silently wrong model — streams written by a different
// format version, streams whose content checksum does not match, and streams
// whose decoded blocks are dimensionally inconsistent.
func LoadBlockDiag(r io.Reader) (*BlockDiagSystem, error) {
	bd, _, err := LoadROM(r)
	return bd, err
}

// LoadROM deserializes a ROM stream, returning the block-diagonal system and
// its modal form when the stream carries one (nil otherwise). Validation
// discipline matches LoadBlockDiag: wrong version, checksum mismatch, and
// shape inconsistencies — in the system or the modal section — are all
// rejected with errors.
func LoadROM(r io.Reader) (*BlockDiagSystem, *ModalSystem, error) {
	var g gobBlockDiag
	if err := gob.NewDecoder(r).Decode(&g); err != nil {
		return nil, nil, fmt.Errorf("lti: decoding ROM: %w", err)
	}
	if g.Version != BlockDiagFormatVersion {
		return nil, nil, fmt.Errorf("lti: ROM format version %d, this build reads version %d", g.Version, BlockDiagFormatVersion)
	}
	sum := g.Checksum
	g.Checksum = 0
	g.Checksum = checksumBlockDiag(&g)
	if g.Checksum != sum {
		return nil, nil, fmt.Errorf("lti: ROM checksum mismatch (stored %016x, computed %016x): corrupt stream", sum, g.Checksum)
	}
	bd := &BlockDiagSystem{M: g.M, P: g.P}
	for i := range g.Blocks {
		gb := &g.Blocks[i]
		for _, m := range []struct {
			g    *gobMat
			what string
		}{
			{&gb.C, fmt.Sprintf("block %d C", i)},
			{&gb.G, fmt.Sprintf("block %d G", i)},
			{&gb.L, fmt.Sprintf("block %d L", i)},
		} {
			if err := m.g.validate(m.what); err != nil {
				return nil, nil, err
			}
		}
		if err := checkFinite(gb.B, fmt.Sprintf("block %d B", i)); err != nil {
			return nil, nil, err
		}
		bd.Blocks = append(bd.Blocks, Block{
			C: fromGobMat(gb.C), G: fromGobMat(gb.G), L: fromGobMat(gb.L),
			B: gb.B, Input: gb.Input,
		})
	}
	if err := bd.Validate(); err != nil {
		return nil, nil, fmt.Errorf("lti: loaded ROM invalid: %w", err)
	}
	if len(g.Modal) == 0 {
		return bd, nil, nil
	}
	if len(g.Modal) != len(bd.Blocks) {
		return nil, nil, fmt.Errorf("lti: stream carries %d modal blocks for %d system blocks", len(g.Modal), len(bd.Blocks))
	}
	ms := &ModalSystem{BD: bd, Blocks: make([]ModalBlock, len(g.Modal))}
	for i := range g.Modal {
		mb, err := fromGobModal(&g.Modal[i], bd.Blocks[i].Input, i)
		if err != nil {
			return nil, nil, err
		}
		ms.Blocks[i] = mb
	}
	if err := ms.Validate(); err != nil {
		return nil, nil, fmt.Errorf("lti: loaded modal form invalid: %w", err)
	}
	return bd, ms, nil
}
