// Package core implements BDSM — the block-diagonal structured model order
// reduction scheme for power grid networks of Zhang, Hu, Cheng and Wong
// (DATE 2011) — the primary contribution reproduced by this library.
//
// BDSM splits the input matrix B column-by-column into m rank-one splitted
// systems Σᵢ = (C, G, Bᵢ, L) (eq. 6), reduces each with a thin n×l Krylov
// basis V⁽ⁱ⁾ = K_l((s0C-G)⁻¹C, (s0C-G)⁻¹bᵢ) (eq. 13), and reassembles the
// reduced blocks into one block-diagonal ROM (eq. 14) whose transfer matrix
// matches the first l moments of H(s) column by column (eq. 15). Compared
// with PRIMA at equal ROM size ml it:
//
//   - clusters orthonormalization per splitted system — m·l(l-1)/2 long
//     vector products instead of m·l(m·l-1)/2;
//   - produces sparse block-diagonal system matrices (m·l² nonzeros instead
//     of O(m²l²)) that simulate in O(m·l³) instead of O(m³l³);
//   - is input-signal independent, so the ROM is reusable across excitation
//     patterns (unlike EKS/TBS);
//   - matches true transfer-matrix moments (unlike terminal-reduction
//     schemes such as SVDMOR).
package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/dense"
	"repro/internal/krylov"
	"repro/internal/lti"
	"repro/internal/sparse"
	"repro/internal/ward"
)

// DefaultS0 is the default real expansion point. Power-grid signal content
// concentrates below a few GHz, so the pencil is expanded at 10⁹ rad/s.
const DefaultS0 = 1e9

// DefaultMoments is the default number of matched moments per column,
// matching the paper's ckt1 experiment (Table II).
const DefaultMoments = 6

// Options configures a BDSM reduction.
type Options struct {
	// S0 is the (real) Krylov expansion point. Default DefaultS0.
	S0 float64
	// Moments is l, the number of matched moments per column. Default
	// DefaultMoments.
	Moments int
	// Points optionally selects multi-point projection: when non-empty it
	// overrides S0 and the basis of every splitted system is the union of
	// the Krylov spaces at each point ("the multi-point scheme
	// straightforwardly follows", Sec. III).
	Points []float64
	// Backend selects direct or iterative pencil solves. The iterative
	// backend reproduces the paper's memory-saving mode for the largest
	// grids.
	Backend krylov.Backend
	// Iter configures the iterative backend.
	Iter sparse.IterOptions
	// Workers bounds the number of concurrent splitted-system reductions;
	// 0 means GOMAXPROCS. The block decomposition makes this embarrassingly
	// parallel — the structural property the paper highlights.
	Workers int
	// TruncTol, when positive, enables adaptive per-block order: a splitted
	// system's Krylov chain stops early once orthogonalization leaves less
	// than TruncTol of new direction (relative), producing blocks smaller
	// than l for ports whose response is captured by fewer vectors. Zero
	// keeps the paper's fixed order-l blocks (only exact deflation stops a
	// chain).
	TruncTol float64
	// WardReduce enables the Ward/Schur pre-reduction stage: static states
	// (no C, B, or L entries) are eliminated exactly by a sparse Schur
	// complement before the Krylov projection runs, so BDSM cost scales
	// with the dynamic part of the grid rather than the full netlist. The
	// stage is exact (the pre-reduced system has the same transfer matrix)
	// and falls back to the unreduced system when nothing is eliminable, so
	// it is safe to enable unconditionally.
	WardReduce bool
	// Stats, when non-nil, receives cost accounting for the reduction.
	Stats *Stats
	// OnPhase, when non-nil, is called once per completed reduction phase
	// with its wall-clock duration. Every reduction reports each label
	// exactly once — "partition" and "schur" (Ward pre-reduction), "factor"
	// (pencil factorization, step 2), and "krylov" (basis construction +
	// congruence, steps 3–5) — with a zero duration for stages that were
	// skipped or fell back, never a stale clock inherited from the previous
	// stage. Serving layers use it to feed per-phase latency histograms
	// without coupling this package to any metrics system.
	OnPhase func(phase string, d time.Duration)
}

// Phases lists every OnPhase label this package reports, in pipeline order.
// Serving layers pre-register histogram series from it so skipped stages
// still show an explicit zero observation.
var Phases = []string{"partition", "schur", "factor", "krylov"}

// Normalize applies the documented defaults in place (S0, Moments, Workers).
// Reduce calls it internally; callers that key caches or model repositories
// on reduction parameters should normalize first so that "moments unset" and
// "moments = DefaultMoments" map to the same entry.
func (o *Options) Normalize() {
	if o.S0 == 0 {
		o.S0 = DefaultS0
	}
	if o.Moments == 0 {
		o.Moments = DefaultMoments
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// Stats reports the measured cost of a reduction, making the paper's
// complexity claims observable.
type Stats struct {
	// Ortho counts long vector-vector products and deflations across all
	// splitted systems (paper: m·l(l-1)/2 single-pass equivalents).
	Ortho dense.OrthoStats
	// PencilSolves counts sparse pencil solves.
	PencilSolves int
	// FactorNNZ is the total fill of the pencil factors (LU or signed Cholesky)
	// over all expansion points (0 for the iterative backend).
	FactorNNZ int
	// FactorTime is the time spent factoring pencils.
	FactorTime time.Duration
	// ReduceTime is the time spent in Krylov iteration + congruence.
	ReduceTime time.Duration
	// SolveTime, OrthoTime and CongruenceTime split the Krylov phase into
	// its pencil solves (with the C·V products that feed them),
	// Gram–Schmidt, and projection into blocks. They are worker time summed
	// over workers, not wall-clock time, so with several workers they add
	// up to more than ReduceTime.
	SolveTime      time.Duration
	OrthoTime      time.Duration
	CongruenceTime time.Duration
	// BasisColumns is the total number of accepted basis vectors Σᵢ lᵢ.
	BasisColumns int
	// PeakBasisBytes estimates the peak memory held in Krylov bases:
	// each worker holds one panel basis of l·|points| interleaved slots for
	// sparse.PanelWidth splitted systems, allocated once and reused for
	// every panel, so the peak is workers·PanelWidth·n·l·|points|·8 bytes —
	// independent of the port count m.
	PeakBasisBytes int64
	// Ward reports the pre-reduction stage's shape and cost. Zero-valued
	// when Options.WardReduce is off.
	Ward ward.Stats
}

// Reduce runs BDSM (Algorithm 1) on the descriptor system and returns the
// block-diagonal ROM. Splitted systems whose input column is zero contribute
// nothing to H(s) and are skipped; columns whose Krylov space deflates early
// yield blocks smaller than l (exact reduction of that column).
func Reduce(sys *lti.SparseSystem, opts Options) (*lti.BlockDiagSystem, error) {
	opts.Normalize()
	if _, m, _ := sys.Dims(); m == 0 {
		return nil, fmt.Errorf("core: system has no input ports")
	}
	if opts.Moments < 1 {
		return nil, fmt.Errorf("core: moment count l must be ≥ 1, got %d", opts.Moments)
	}
	phase := func(name string, d time.Duration) {
		if opts.OnPhase != nil {
			opts.OnPhase(name, d)
		}
	}

	// Step 0 (this library's extension): Ward/Schur pre-reduction. Exact,
	// so downstream moment matching is unaffected; a disabled or no-op
	// stage still reports its phases, as zero, per the OnPhase contract.
	if opts.WardReduce {
		wres, err := ward.Reduce(sys, ward.Options{Workers: opts.Workers})
		if err != nil {
			return nil, fmt.Errorf("core: ward pre-reduction: %w", err)
		}
		sys = wres.Sys
		phase("partition", wres.Stats.PartitionTime)
		phase("schur", wres.Stats.SchurTime)
		if opts.Stats != nil {
			opts.Stats.Ward = wres.Stats
		}
	} else {
		phase("partition", 0)
		phase("schur", 0)
	}

	n, m, p := sys.Dims()
	points := opts.Points
	if len(points) == 0 {
		points = []float64{opts.S0}
	}

	// Step 2 of Algorithm 1: one sparse factorization per expansion point,
	// shared by all m splitted systems.
	tFactor := time.Now()
	ops := make([]*krylov.Operator, len(points))
	factorNNZ := 0
	for k, s0 := range points {
		op, err := krylov.NewOperator(sys, s0, krylov.OperatorOptions{
			Backend: opts.Backend, Iter: opts.Iter,
		})
		if err != nil {
			return nil, fmt.Errorf("core: expansion point %g: %w", s0, err)
		}
		ops[k] = op
		factorNNZ += op.FactorNNZ
	}
	factorTime := time.Since(tFactor)
	phase("factor", factorTime)

	// Steps 3–5: per splitted system, build the thin basis V⁽ⁱ⁾ and project.
	// Each splitted system is independent — BDSM's cluster-and-
	// orthonormalize flow (Fig. 2) — so they are sharded across workers in
	// panels of up to sparse.PanelWidth consecutive systems, which share
	// each pass over the factor but nothing else.
	tReduce := time.Now()
	results := make([]result, m)
	statsPerWorker := make([]workerStats, opts.Workers)

	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			pw := newPanelWorker(sys, ops, opts.Moments, opts.TruncTol, &statsPerWorker[worker])
			for first := range next {
				if err := pw.reduce(first, results[first:min(first+sparse.PanelWidth, m)]); err != nil {
					results[first].err = err
				}
			}
		}(w)
	}
	for first := 0; first < m; first += sparse.PanelWidth {
		next <- first
	}
	close(next)
	wg.Wait()

	bd := &lti.BlockDiagSystem{M: m, P: p}
	basisCols := 0
	for i := range results {
		if err := results[i].err; err != nil {
			return nil, fmt.Errorf("core: splitted system %d: %w", i, err)
		}
		if results[i].skip {
			continue
		}
		bd.Blocks = append(bd.Blocks, results[i].block)
		basisCols += results[i].cols
	}
	if len(bd.Blocks) == 0 {
		return nil, fmt.Errorf("core: input matrix B is zero; nothing to reduce")
	}
	reduceTime := time.Since(tReduce)
	phase("krylov", reduceTime)

	if opts.Stats != nil {
		st := opts.Stats
		for _, ws := range statsPerWorker {
			st.Ortho.DotProducts += ws.ortho.DotProducts
			st.Ortho.Deflated += ws.ortho.Deflated
			st.SolveTime += ws.solveTime
			st.OrthoTime += ws.orthoTime
			st.CongruenceTime += ws.congruenceTime
		}
		solves := 0
		for _, op := range ops {
			solves += op.Solves()
		}
		st.PencilSolves += solves
		st.FactorNNZ += factorNNZ
		st.FactorTime += factorTime
		st.ReduceTime += reduceTime
		st.BasisColumns += basisCols
		st.PeakBasisBytes = int64(opts.Workers) * sparse.PanelWidth * int64(n) *
			int64(opts.Moments*len(points)) * 8
	}
	return bd, nil
}

// result is one splitted system's reduction: its diagonal block and basis
// size, or skip for a zero input column.
type result struct {
	block lti.Block
	cols  int
	skip  bool
	err   error
}

// panelWorker reduces panels of consecutive splitted systems. It keeps the
// panel's chains interleaved from the start vectors to the projected
// blocks, so every length-n kernel — C·V, the pencil solve, Gram–Schmidt
// and congruence — runs on all lanes at once. Its panel basis and the
// Krylov workers' scratch are allocated once and reused for every panel
// the worker takes.
type panelWorker struct {
	wks      []*krylov.Worker // one per expansion point
	l        int
	chainTol float64
	basis    *dense.PanelBasis
	blocks   []lti.Block
	st       *workerStats
}

// workerStats is one worker's share of Stats: its Gram–Schmidt counts and
// the time it spent in each part of the Krylov phase.
type workerStats struct {
	ortho                                dense.OrthoStats
	solveTime, orthoTime, congruenceTime time.Duration
}

func newPanelWorker(sys *lti.SparseSystem, ops []*krylov.Operator, l int,
	truncTol float64, st *workerStats) *panelWorker {

	n, _, _ := sys.Dims()
	pw := &panelWorker{l: l, chainTol: max(truncTol, dense.DeflationTol), st: st,
		wks:    make([]*krylov.Worker, len(ops)),
		basis:  dense.NewPanelBasis(n, l*len(ops), &st.ortho),
		blocks: make([]lti.Block, sparse.PanelWidth)}
	for k, op := range ops {
		pw.wks[k] = op.Worker()
	}
	return pw
}

// reduce builds the Krylov bases of the splitted systems first..first+
// len(res)-1 across all expansion points and projects each into a diagonal
// block. The chains advance level by level, one panel apply per level, and
// each level is orthonormalized lane by lane in one panel pass per basis
// slot; each system keeps its own basis. It streams: the slots are reused
// by the next panel once the blocks are formed, so peak memory is one
// panel of PanelWidth n×l bases per worker regardless of the port count.
func (pw *panelWorker) reduce(first int, res []result) error {
	b := pw.basis
	b.Reset(len(res))
	var all [sparse.PanelWidth]bool
	for k := range res {
		all[k] = true
	}
	for _, wk := range pw.wks {
		// r = (s0C - G)⁻¹ bᵢ; a zero bᵢ yields a zero start vector which
		// deflates immediately.
		t := time.Now()
		if err := wk.StartLanes(b.Slot(b.Slots()), first, len(res)); err != nil {
			return err
		}
		t = tick(&pw.st.solveTime, t)
		// Arnoldi-style chain: iterate A on the last accepted orthonormal
		// vector. Algorithm 1 iterates the raw vectors A^j r; both span the
		// same Krylov subspace in exact arithmetic, and the orthonormalized
		// recurrence is the numerically robust realization of it. The start
		// vector always uses the exact-deflation threshold; chain vectors
		// honor the adaptive truncation tolerance. A deflated or truncated
		// chain stays in the panel as a zero lane.
		live := b.AppendTol(&all, dense.DeflationTol)
		t = tick(&pw.st.orthoTime, t)
		for j := 1; j < pw.l && live != [sparse.PanelWidth]bool{}; j++ {
			if err := wk.ApplyLanes(b.Slot(b.Slots()), b.Slot(b.Slots()-1), &live); err != nil {
				return err
			}
			t = tick(&pw.st.solveTime, t)
			live = b.AppendTol(&live, pw.chainTol)
			t = tick(&pw.st.orthoTime, t)
		}
	}
	t := time.Now()
	pw.wks[0].CongruencePanel(b, first, pw.blocks)
	for k := range res {
		if b.LaneLen(k) == 0 {
			res[k] = result{skip: true}
			continue
		}
		res[k] = result{block: pw.blocks[k], cols: b.LaneLen(k)}
	}
	tick(&pw.st.congruenceTime, t)
	return nil
}

// tick adds the time since t to d and returns the current time.
func tick(d *time.Duration, t time.Time) time.Time {
	now := time.Now()
	*d += now.Sub(t)
	return now
}
