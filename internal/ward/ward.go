// Package ward implements Ward/boundary-set pre-reduction for huge sparse
// descriptor systems: the states of C dx/dt = Gx + Bu, y = Lx are
// partitioned into an external set (purely static, unobserved, undriven),
// the boundary set (kept states coupled to an external), and the internal
// remainder; the externals are then eliminated exactly by a sparse Schur
// complement on G,
//
//	G' = G_KK − G_KE · G_EE⁻¹ · G_EK   (K = internal ∪ boundary),
//
// the classical Ward equivalent of power-system analysis (GridCal's
// ward_reduction is the reference implementation of record). Because an
// external state has no entry in C, B, or L, its pencil rows are
// frequency-independent and the elimination is exact: the reduced system has
// the same transfer matrix H(s) at every port and every frequency, up to the
// roundoff of the Schur solves. Model order reduction downstream (BDSM
// Krylov projection) then runs on the kept states only, so reduction cost
// scales with the dynamic/observed part of the grid instead of the full
// netlist — the enabler for million-node multiscale grids whose bulk is a
// static transmission backbone.
package ward

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/lti"
	"repro/internal/sparse"
)

// Class labels one state of the partition.
type Class int8

const (
	// ClassInternal states are kept and touch no external state.
	ClassInternal Class = iota
	// ClassBoundary states are kept and G-coupled to at least one external;
	// the Schur correction is confined to boundary rows and columns.
	ClassBoundary
	// ClassExternal states are static (no C, B, or L entries) and are
	// eliminated exactly.
	ClassExternal
)

func (c Class) String() string {
	switch c {
	case ClassInternal:
		return "internal"
	case ClassBoundary:
		return "boundary"
	case ClassExternal:
		return "external"
	}
	return "unknown"
}

// Partition is the internal/boundary/external split of a system's states.
type Partition struct {
	// Class holds the per-state classification, indexed by original state.
	Class []Class
	// External lists eliminated states in ascending original order.
	External []int
	// Boundary lists kept states adjacent to an external, ascending.
	Boundary []int
	// Keep lists all kept states (internal + boundary) in ascending original
	// order; Keep[i] is the original index of reduced state i.
	Keep []int
}

// PartitionSystem classifies every state of sys. A state is external when it
// is provably static and eliminable:
//
//   - its C row and column are empty (no dynamics couple through it),
//   - its B row is empty (no input drives it) and its L column is empty
//     (no output observes it),
//   - its G row is nonempty (a fully decoupled state has a singular
//     external block and nothing to eliminate; it stays kept and inert).
//
// Kept states with a G entry to or from an external state are boundary;
// the rest are internal. The classification is purely structural, so it is
// O(nnz) and never misclassifies: anything not provably static is kept.
func PartitionSystem(sys *lti.SparseSystem) *Partition {
	n, _, _ := sys.Dims()
	class := make([]Class, n)
	static := make([]bool, n)
	for i := range static {
		static[i] = true
	}
	// Dynamic couplings: any C entry keeps both its row and column state.
	for i := 0; i < n; i++ {
		if sys.C.RowPtr[i+1] > sys.C.RowPtr[i] {
			static[i] = false
		}
		for k := sys.C.RowPtr[i]; k < sys.C.RowPtr[i+1]; k++ {
			static[sys.C.ColIdx[k]] = false
		}
	}
	// Driven states: B rows.
	for k := range sys.B.RowIdx {
		static[sys.B.RowIdx[k]] = false
	}
	// Observed states: L columns.
	for k := range sys.L.ColIdx {
		static[sys.L.ColIdx[k]] = false
	}
	// Degenerate statics with an empty G row stay kept (inert but harmless).
	for i := 0; i < n; i++ {
		if static[i] && sys.G.RowPtr[i+1] == sys.G.RowPtr[i] {
			static[i] = false
		}
	}

	p := &Partition{Class: class}
	for i := 0; i < n; i++ {
		if static[i] {
			class[i] = ClassExternal
			p.External = append(p.External, i)
		}
	}
	if len(p.External) > 0 {
		// Boundary marking walks G once in each direction so structurally
		// unsymmetric couplings (inductor incidence rows) are caught too.
		for i := 0; i < n; i++ {
			for k := sys.G.RowPtr[i]; k < sys.G.RowPtr[i+1]; k++ {
				j := sys.G.ColIdx[k]
				switch {
				case class[i] == ClassExternal && class[j] != ClassExternal:
					class[j] = ClassBoundary
				case class[i] != ClassExternal && class[j] == ClassExternal:
					class[i] = ClassBoundary
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		switch class[i] {
		case ClassBoundary:
			p.Boundary = append(p.Boundary, i)
			p.Keep = append(p.Keep, i)
		case ClassInternal:
			p.Keep = append(p.Keep, i)
		}
	}
	return p
}

// Options configures a Ward reduction.
type Options struct {
	// Workers bounds concurrent Schur solves; 0 means GOMAXPROCS. Columns of
	// the correction are independent, so the solve phase is embarrassingly
	// parallel like BDSM's splitted systems.
	Workers int
	// MaxDenseBoundary caps the boundary size for which the Schur correction
	// is accumulated in a dense |B|×|B| panel (enabling symmetrization of a
	// symmetric input's correction). Larger boundaries stream per-column
	// without symmetrization. 0 selects DefaultMaxDenseBoundary.
	MaxDenseBoundary int
}

// DefaultMaxDenseBoundary bounds the dense Schur accumulation panel to
// 4096² float64 (128 MiB).
const DefaultMaxDenseBoundary = 4096

// Stats reports the measured shape and cost of a Ward reduction.
type Stats struct {
	// N is the original state count; External/Boundary/Internal partition it.
	N        int `json:"n"`
	External int `json:"external"`
	Boundary int `json:"boundary"`
	Internal int `json:"internal"`
	// Solves counts Schur solves (one per boundary column with external
	// coupling).
	Solves int `json:"solves"`
	// FactorNNZ is the fill of the external factorization.
	FactorNNZ int `json:"factor_nnz"`
	// CorrectionNNZ counts nonzeros of the Schur correction stamped into G'.
	CorrectionNNZ int `json:"correction_nnz"`
	// Backend names the external factorization used: "cholesky", "lu", or
	// "none" when nothing was eliminated.
	Backend string `json:"backend"`
	// Fallback carries the reason elimination was skipped (singular external
	// block); empty on success. A fallback result aliases the input system
	// unchanged, so it is always safe to use.
	Fallback string `json:"fallback,omitempty"`
	// PartitionTime and SchurTime split the wall clock of the two phases.
	PartitionTime time.Duration `json:"partition_ns"`
	SchurTime     time.Duration `json:"schur_ns"`
}

// Result is a completed Ward reduction.
type Result struct {
	// Sys is the reduced descriptor system over the kept states. When
	// nothing was eliminated it aliases the input system.
	Sys *lti.SparseSystem
	// Part is the partition the reduction applied.
	Part *Partition
	// Stats reports elimination shape and cost.
	Stats Stats
}

// Reduce partitions sys and eliminates its external states by a sparse Schur
// complement. The reduction is exact: Result.Sys has the same transfer
// matrix as sys at every frequency (up to solve roundoff). When no state
// qualifies as external — or the external block is numerically singular —
// the input system is returned unchanged with Stats.Fallback set, so Reduce
// is always safe to call unconditionally.
func Reduce(sys *lti.SparseSystem, opts Options) (*Result, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxDenseBoundary <= 0 {
		opts.MaxDenseBoundary = DefaultMaxDenseBoundary
	}
	n, _, _ := sys.Dims()

	tPart := time.Now()
	part := PartitionSystem(sys)
	res := &Result{Sys: sys, Part: part}
	res.Stats = Stats{
		N:        n,
		External: len(part.External),
		Boundary: len(part.Boundary),
		Internal: len(part.Keep) - len(part.Boundary),
		Backend:  "none",
	}
	res.Stats.PartitionTime = time.Since(tPart)
	if len(part.External) == 0 {
		return res, nil
	}

	tSchur := time.Now()
	schurEliminate(sys, part, opts, res)
	res.Stats.SchurTime = time.Since(tSchur)
	return res, nil
}

// schurEliminate performs the elimination proper, filling res.Sys and the
// Schur fields of res.Stats. On a singular external block it records a
// fallback and leaves res aliasing the input.
//
// Every output matrix is assembled straight into compressed arrays. Keep and
// External are ascending, so restricting a sorted CSR row to either set and
// renumbering it keeps it sorted: −G_EE, C′, B′ and L′ are such re-indexed
// copies, and G′ is G_KK merged row by row with the Schur correction, G_KK
// first and the correction second. Exact zeros are dropped throughout. These
// are the values a COO compile of the same stamps gives, bit for bit: each
// position holds at most one G_KK and one correction term, and a compile
// sums them from zero in that order. A zero dropped from G_EK or G_KE would
// only have added an exact zero to a solve's right-hand side or product.
func schurEliminate(sys *lti.SparseSystem, part *Partition, opts Options, res *Result) {
	n, m, p := sys.Dims()
	nE, nK, nB := len(part.External), len(part.Keep), len(part.Boundary)

	// Index maps original → position in E / K, and boundary → dense slot.
	extIdx := make([]int32, n)
	keepIdx := make([]int32, n)
	for i := range extIdx {
		extIdx[i] = -1
		keepIdx[i] = -1
	}
	for e, i := range part.External {
		extIdx[i] = int32(e)
	}
	for k, i := range part.Keep {
		keepIdx[i] = int32(k)
	}
	bSlot := make([]int32, nK) // kept index → boundary slot, -1 for internal
	for i := range bSlot {
		bSlot[i] = -1
	}
	for b, i := range part.Boundary {
		bSlot[keepIdx[i]] = int32(b)
	}

	// Split G into the blocks the Schur complement needs. N = −G_EE is
	// assembled directly (paper convention G = −G_std makes N the standard
	// SPD conductance block for resistive externals). G_EK is kept in
	// column-compressed form over the kept columns (the transpose of its
	// rows), G_KE in row-compressed form over boundary rows. G_KK is read
	// from G again when G′ is merged.
	g := sys.G
	eePtr, eeIdx, eeVal := restrict(g.RowPtr, g.ColIdx, g.Val, part.External, extIdx)
	for k := range eeVal {
		eeVal[k] = -eeVal[k]
	}
	ekRows, ekCols, ekVals := restrict(g.RowPtr, g.ColIdx, g.Val, part.External, keepIdx)
	gEK := sparse.NewCSR(nE, nK, ekRows, ekCols, ekVals).Transpose()
	ekPtr, ekRow, ekVal := gEK.RowPtr, gEK.ColIdx, gEK.Val
	kePtr, keCol, keVal := restrict(g.RowPtr, g.ColIdx, g.Val, part.Boundary, extIdx)
	nnzKK := g.NNZ() - len(eeVal) - len(ekVal) - len(keVal) // at least the G_KK count

	// Factor N = −G_EE with the symmetric factor when a row signing makes
	// the block symmetric (the resistive common case — half the work and
	// fill of LU), LU otherwise. A singular block means some external island
	// has no path to ground or boundary; elimination is then impossible and
	// the caller gets the input back unchanged.
	solver, err := sparse.Factor(sparse.NewCSR(nE, nE, eePtr, eeIdx, eeVal), sparse.LUOptions{})
	if err != nil {
		res.Stats.Fallback = fmt.Sprintf("external block singular: %v", err)
		res.Stats.Backend = "none"
		return
	}
	res.Stats.Backend = "lu"
	if _, ok := solver.(*sparse.Cholesky); ok {
		res.Stats.Backend = "cholesky"
	}
	res.Stats.FactorNNZ = solver.NNZ()

	// Schur solves: one per boundary column with external coupling. The
	// correction −G_KE·N⁻¹·G_EK is nonzero only on boundary rows × boundary
	// columns. Columns are independent: a panel solve carries PanelWidth of
	// them, one per lane, and panels are sharded across workers. Each lane
	// equals the column's SolveBuf and each lane of G_KE·Y its single-column
	// product, so batching leaves G′ bit for bit as solving column by column.
	// When the boundary is small enough the correction accumulates into a
	// dense |B|×|B| panel so a symmetric input can be symmetrized exactly;
	// otherwise each column keeps only its nonzeros. Either way a worker
	// writes only the columns of its own jobs.
	const pw = sparse.PanelWidth
	gKE := sparse.NewCSR(nB, nE, kePtr, keCol, keVal)
	useDense := nB <= opts.MaxDenseBoundary
	var corr []float64
	var cols []corrColumn
	if useDense {
		corr = make([]float64, nB*nB)
	} else {
		cols = make([]corrColumn, nB)
	}
	solves := 0
	type colJob struct{ kj, b int32 }
	jobs := make([]colJob, 0, nB)
	for b, i := range part.Boundary {
		kj := keepIdx[i]
		if ekPtr[kj+1] > ekPtr[kj] {
			jobs = append(jobs, colJob{kj, int32(b)})
			solves++
		}
	}
	var wg sync.WaitGroup
	next := make(chan []colJob)
	for w := 0; w < min(opts.Workers, (len(jobs)+pw-1)/pw); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := make([]float64, nE*pw)
			scratch := make([]float64, nE*pw)
			delta := make([]float64, nB*pw)
			for batch := range next {
				clear(x)
				for k, job := range batch {
					kj := int(job.kj)
					schurScatter(x[k:], ekRow[ekPtr[kj]:ekPtr[kj+1]], ekVal[ekPtr[kj]:ekPtr[kj+1]])
				}
				solver.SolvePanel(x, scratch)
				// Lane k of delta = G_KE · (lane k of x) over boundary rows;
				// with the paper's G = −G_std sign, the external rows give
				// x_E = N⁻¹·G_EK·x_K, so delta adds into G'.
				gKE.MulPanel(delta, x)
				for k, job := range batch {
					b := int(job.b)
					if useDense {
						col := corr[b*nB : (b+1)*nB]
						for bi := range col {
							col[bi] = delta[bi*pw+k]
						}
						continue
					}
					cols[b] = newCorrColumn(delta[k:], nB)
				}
			}
		}()
	}
	for lo := 0; lo < len(jobs); lo += pw {
		next <- jobs[lo:min(lo+pw, len(jobs))]
	}
	close(next)
	wg.Wait()
	res.Stats.Solves = solves

	if useDense && sparse.IsSymmetric(g, 1e-12) {
		// A symmetric G yields a symmetric correction in exact arithmetic;
		// averaging restores the symmetry the independent solves lose to
		// roundoff, keeping the reduced pencil eligible for Cholesky.
		for b := 0; b < nB; b++ {
			for bi := 0; bi < b; bi++ {
				avg := (corr[b*nB+bi] + corr[bi*nB+b]) / 2
				corr[b*nB+bi] = avg
				corr[bi*nB+b] = avg
			}
		}
	}
	// The correction's nonzeros column by column over boundary slots,
	// transposed into rows; each row's slots come out ascending.
	colPtr := make([]int, nB+1)
	var colRow []int
	var colVal []float64
	for b := 0; b < nB; b++ {
		if useDense {
			for bi, v := range corr[b*nB : (b+1)*nB] {
				if v != 0 {
					colRow = append(colRow, bi)
					colVal = append(colVal, v)
				}
			}
		} else {
			colRow = append(colRow, cols[b].slot...)
			colVal = append(colVal, cols[b].val...)
		}
		colPtr[b+1] = len(colVal)
	}
	cr := sparse.NewCSR(nB, nB, colPtr, colRow, colVal).Transpose()
	corrPtr, corrSlot, corrVal := cr.RowPtr, cr.ColIdx, cr.Val
	res.Stats.CorrectionNNZ = len(corrVal)
	bKeep := make([]int32, nB) // boundary slot → kept index
	for b, i := range part.Boundary {
		bKeep[b] = keepIdx[i]
	}

	// G′ row by row: the row's G_KK entries, renumbered, merged with its
	// correction row; where both hold a column, G_KK comes first.
	gPtr := make([]int, nK+1)
	gIdx := make([]int, 0, nnzKK+len(corrVal))
	gVal := make([]float64, 0, nnzKK+len(corrVal))
	for ki, i := range part.Keep {
		k, kEnd := g.RowPtr[i], g.RowPtr[i+1]
		c, cEnd := 0, 0
		if b := bSlot[ki]; b >= 0 {
			c, cEnd = corrPtr[b], corrPtr[b+1]
		}
		for {
			for k < kEnd && keepIdx[g.ColIdx[k]] < 0 {
				k++
			}
			if k == kEnd && c == cEnd {
				break
			}
			gj, cj := int32(math.MaxInt32), int32(math.MaxInt32)
			if k < kEnd {
				gj = keepIdx[g.ColIdx[k]]
			}
			if c < cEnd {
				cj = bKeep[corrSlot[c]]
			}
			var v float64
			switch {
			case gj < cj:
				v = g.Val[k]
				k++
			case cj < gj:
				v = corrVal[c]
				c++
			default:
				v = g.Val[k] + corrVal[c]
				k++
				c++
			}
			if v != 0 {
				gIdx = append(gIdx, int(min(gj, cj)))
				gVal = append(gVal, v)
			}
		}
		gPtr[ki+1] = len(gVal)
	}

	// C, B and L have no entry in an external row or column, so restricting
	// them to the kept states is a pure renumbering.
	cPtr, cIdx, cVal := restrict(sys.C.RowPtr, sys.C.ColIdx, sys.C.Val, part.Keep, keepIdx)
	bPtr, bIdx, bVal := restrict(sys.B.ColPtr, sys.B.RowIdx, sys.B.Val, nil, keepIdx)
	lPtr, lIdx, lVal := restrict(sys.L.RowPtr, sys.L.ColIdx, sys.L.Val, nil, keepIdx)
	res.Sys = &lti.SparseSystem{
		C: sparse.NewCSR(nK, nK, cPtr, cIdx, cVal),
		G: sparse.NewCSR(nK, nK, gPtr, gIdx, gVal),
		B: sparse.NewCSC(nK, m, bPtr, bIdx, bVal),
		L: sparse.NewCSR(p, nK, lPtr, lIdx, lVal),
	}
}

// restrict copies the lines of a compressed matrix (ptr, idx, val) listed in
// lines, or every line when lines is nil. It keeps the entries whose index j
// has to[j] ≥ 0, renumbered to to[j], and drops exact zeros. to increases
// wherever it is defined, so sorted lines stay sorted.
func restrict(ptr, idx []int, val []float64, lines []int, to []int32) (outPtr, outIdx []int, outVal []float64) {
	nl := len(lines)
	if lines == nil {
		nl = len(ptr) - 1
	}
	line := func(l int) (lo, hi int) {
		if lines != nil {
			l = lines[l]
		}
		return ptr[l], ptr[l+1]
	}
	nnz := 0
	for l := 0; l < nl; l++ {
		lo, hi := line(l)
		for k := lo; k < hi; k++ {
			if to[idx[k]] >= 0 && val[k] != 0 {
				nnz++
			}
		}
	}
	outPtr = make([]int, nl+1)
	outIdx = make([]int, 0, nnz)
	outVal = make([]float64, 0, nnz)
	for l := 0; l < nl; l++ {
		lo, hi := line(l)
		for k := lo; k < hi; k++ {
			if j := to[idx[k]]; j >= 0 && val[k] != 0 {
				outIdx = append(outIdx, int(j))
				outVal = append(outVal, val[k])
			}
		}
		outPtr[l+1] = len(outVal)
	}
	return outPtr, outIdx, outVal
}

// corrColumn holds the nonzeros of one streamed correction column by
// boundary slot.
type corrColumn struct {
	slot []int
	val  []float64
}

// newCorrColumn keeps the nonzeros of lane 0 of the nB-row panel delta
// (pass delta[k:] for lane k).
func newCorrColumn(delta []float64, nB int) corrColumn {
	const pw = sparse.PanelWidth
	nnz := 0
	for bi := 0; bi < nB; bi++ {
		if delta[bi*pw] != 0 {
			nnz++
		}
	}
	c := corrColumn{slot: make([]int, 0, nnz), val: make([]float64, 0, nnz)}
	for bi := 0; bi < nB; bi++ {
		if v := delta[bi*pw]; v != 0 {
			c.slot = append(c.slot, bi)
			c.val = append(c.val, v)
		}
	}
	return c
}
