// Package repro is a Go reproduction of "A Block-Diagonal Structured Model
// Reduction Scheme for Power Grid Networks" (Zhang, Hu, Cheng, Wong —
// DATE 2011): BDSM model order reduction together with the full substrate it
// needs — sparse/dense linear algebra, MNA circuit stamping, a synthetic
// power-grid benchmark generator, the PRIMA/EKS/SVDMOR baselines, passivity
// analysis, and transient/AC simulation.
//
// Quick start (see examples/quickstart):
//
//	cfg, _ := repro.Benchmark("ckt1", 0.25)   // scaled industrial analogue
//	sys, _ := repro.BuildGrid(cfg)             // MNA descriptor system
//	rom, _ := repro.ReduceBDSM(sys, repro.BDSMOptions{Moments: 6})
//	h, _   := rom.Eval(complex(0, 1e9))        // block-diagonal ROM, reusable
//
// The package re-exports the user-facing types of the internal subsystems;
// see DESIGN.md for the architecture and EXPERIMENTS.md for the measured
// reproduction of every table and figure in the paper.
package repro

import (
	"io"

	"repro/internal/baseline"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/grid"
	"repro/internal/krylov"
	"repro/internal/lti"
	"repro/internal/passivity"
	"repro/internal/sim"
	"repro/internal/ward"
)

// System is any LTI realization that can evaluate its transfer matrix.
type System = lti.System

// SparseModel is a large sparse descriptor model C·x' = G·x + B·u, y = L·x
// in the paper's sign convention.
type SparseModel = lti.SparseSystem

// DenseROM is a small dense descriptor reduced-order model (PRIMA-style).
type DenseROM = lti.DenseSystem

// BlockDiagROM is the sparse block-diagonal reduced-order model produced by
// BDSM (eq. 14 of the paper): reusable, cheap to store and simulate.
type BlockDiagROM = lti.BlockDiagSystem

// ROMBlock is one diagonal block of a BlockDiagROM.
type ROMBlock = lti.Block

// ModalROM is the diagonalized (pole–residue) fast path of a BlockDiagROM:
// built once with Modalize, it evaluates transfer entries in O(q) flops with
// no per-frequency factorization, and simulates transients with exact
// per-mode exponentials. Blocks whose pencils defeat the diagonalization
// transparently fall back to LU evaluation.
type ModalROM = lti.ModalSystem

// BDSMOptions configures ReduceBDSM; see core.Options for field docs.
type BDSMOptions = core.Options

// BDSMStats reports measured reduction cost.
type BDSMStats = core.Stats

// WardOptions configures the exact Ward/Schur pre-reduction stage; it runs
// inside ReduceBDSM when BDSMOptions.WardReduce is set, or standalone via
// ReduceWard.
type WardOptions = ward.Options

// WardStats reports the pre-reduction stage's partition shape and cost
// (also surfaced as BDSMStats.Ward).
type WardStats = ward.Stats

// WardResult is a standalone pre-reduction outcome: the (exactly
// equivalent) reduced system plus the partition that produced it.
type WardResult = ward.Result

// BaselineOptions configures the PRIMA/EKS/SVDMOR baselines.
type BaselineOptions = baseline.Options

// EKSROM is the input-dependent extended-Krylov ROM (not reusable).
type EKSROM = baseline.EKSROM

// SVDMORROM is the terminal-reduction ROM H ≈ U·Ĥ·Vᵀ.
type SVDMORROM = baseline.SVDMORROM

// GridConfig parameterizes the synthetic power-grid generator (Fig. 3
// topology: package R–L pads, multi-layer mesh, via arrays, load ports).
type GridConfig = grid.Config

// GridModel is a stamped power-grid descriptor model.
type GridModel = grid.Model

// MultiscaleConfig parameterizes the transmission+distribution generator: a
// purely resistive backbone ring (Ward-eliminable in full) feeding RC
// distribution subgrids — the scale-ladder instance family of
// `pgbench -exp scale`.
type MultiscaleConfig = grid.MultiscaleConfig

// MultiscaleBenchmark sizes a MultiscaleConfig to roughly the requested
// total node count with a bounded port set.
func MultiscaleBenchmark(nodes int) (MultiscaleConfig, error) {
	return grid.MultiscaleBenchmark(nodes)
}

// Netlist is an RLC circuit netlist.
type Netlist = circuit.Netlist

// MNA is the assembled modified-nodal-analysis model of a netlist.
type MNA = circuit.MNA

// TransientOptions configures fixed-step transient simulation.
type TransientOptions = sim.TransientOptions

// TransientResult holds simulated output waveforms.
type TransientResult = sim.Result

// Source is a scalar waveform u(t); see sim for DC/Step/Pulse/Sine/PWL.
type Source = sim.Source

// Input drives all ports of a transient simulation.
type Input = sim.Input

// PassivityReport is the result of a passivity check.
type PassivityReport = passivity.Report

// StandardSystem is a standard state-space model used in passivity work.
type StandardSystem = passivity.StandardSystem

// ErrBudgetExceeded marks a baseline scheme breaking down on memory, as
// PRIMA/SVDMOR do on the paper's largest benchmarks.
var ErrBudgetExceeded = baseline.ErrBudgetExceeded

// DefaultS0 is the default Krylov expansion point (rad/s).
const DefaultS0 = core.DefaultS0

// Benchmark returns the configuration of a Table II analogue (ckt1..ckt5)
// geometrically scaled by scale ∈ (0, 1].
func Benchmark(name string, scale float64) (GridConfig, error) {
	return grid.Benchmark(name, scale)
}

// BenchmarkNames lists the Table II benchmark identifiers.
func BenchmarkNames() []string { return grid.Names() }

// BuildGrid stamps a power-grid configuration into a descriptor system.
func BuildGrid(cfg GridConfig) (*SparseModel, error) {
	model, err := cfg.Build()
	if err != nil {
		return nil, err
	}
	return lti.NewSparseSystem(model.C, model.G, model.B, model.L)
}

// ParseNetlist reads a SPICE-subset netlist.
func ParseNetlist(r io.Reader) (*Netlist, error) { return circuit.Parse(r) }

// FromNetlist assembles a netlist into a descriptor system via MNA.
func FromNetlist(nl *Netlist) (*SparseModel, error) {
	m, err := circuit.BuildMNA(nl)
	if err != nil {
		return nil, err
	}
	return FromMNA(m)
}

// FromMNA wraps an assembled MNA model into a descriptor system.
func FromMNA(m *MNA) (*SparseModel, error) {
	return lti.NewSparseSystem(m.C, m.G, m.B, m.L)
}

// ImpedanceView returns the system with inputs negated so H(s) is the
// positive port impedance matrix — required before passivity analysis of
// grids whose loads draw (rather than inject) current.
func ImpedanceView(sys *SparseModel) *SparseModel { return sys.ImpedanceView() }

// ReduceBDSM runs the paper's block-diagonal structured reduction
// (Algorithm 1) and returns the block-diagonal ROM.
func ReduceBDSM(sys *SparseModel, opts BDSMOptions) (*BlockDiagROM, error) {
	return core.Reduce(sys, opts)
}

// ReduceWard runs the Ward/Schur pre-reduction alone: static states (no
// capacitance, source, or probe) are eliminated through a sparse Schur
// complement, leaving a smaller system with the identical transfer matrix.
func ReduceWard(sys *SparseModel, opts WardOptions) (*WardResult, error) {
	return ward.Reduce(sys, opts)
}

// ReducePRIMA runs the PRIMA baseline (dense size-m·l ROM).
func ReducePRIMA(sys *SparseModel, opts BaselineOptions) (*DenseROM, error) {
	return baseline.PRIMA(sys, opts)
}

// ReduceEKS runs the EKS baseline for the excitation pattern u0 (nil means
// unit impulses on all ports). The resulting ROM is not reusable.
func ReduceEKS(sys *SparseModel, u0 []float64, opts BaselineOptions) (*EKSROM, error) {
	return baseline.EKS(sys, u0, opts)
}

// ReduceSVDMOR runs the SVDMOR baseline with port-compression ratio alpha.
func ReduceSVDMOR(sys *SparseModel, alpha float64, opts BaselineOptions) (*SVDMORROM, error) {
	return baseline.SVDMOR(sys, alpha, opts)
}

// Modalize diagonalizes each ROM block once, returning the evaluation fast
// path; see ModalROM.
func Modalize(rom *BlockDiagROM) (*ModalROM, error) { return rom.Modalize() }

// SaveModalROM serializes a ROM together with its modal form; LoadModalROM
// (or the serving layer's store) recovers both without re-diagonalizing.
func SaveModalROM(w io.Writer, ms *ModalROM) error { return lti.SaveModal(w, ms) }

// LoadModalROM deserializes a stream written by SaveROM or SaveModalROM; the
// modal form is nil when the stream carries none.
func LoadModalROM(r io.Reader) (*BlockDiagROM, *ModalROM, error) { return lti.LoadROM(r) }

// SimulateModalROM runs a fixed-step transient on a modal ROM: modal blocks
// advance by exact per-mode exponentials (no implicit solves), fallback
// blocks by the configured implicit rule.
func SimulateModalROM(ms *ModalROM, opts TransientOptions) (*TransientResult, error) {
	return sim.SimulateModal(ms, opts)
}

// Stepper is a resumable fixed-step transient integrator: advance in chunks,
// change the drive waveform between advances, snapshot and restore the
// per-mode state — the engine behind pgserve's streaming /session endpoints.
type Stepper = sim.Stepper

// StepperOptions configures a Stepper.
type StepperOptions = sim.StepperOptions

// StepperState is a deep snapshot of a Stepper's integration state.
type StepperState = sim.StepperState

// NewStepper builds a resumable integrator over a modal ROM (non-modal
// blocks fall back to the implicit rule of opts.Method).
func NewStepper(ms *ModalROM, opts StepperOptions) (*Stepper, error) {
	return sim.NewStepper(ms, opts)
}

// NewImplicitStepper builds a resumable all-implicit integrator over a
// block-diagonal ROM.
func NewImplicitStepper(rom *BlockDiagROM, opts StepperOptions) (*Stepper, error) {
	return sim.NewImplicitStepper(rom, opts)
}

// SaveROM serializes a block-diagonal ROM for later reuse.
func SaveROM(w io.Writer, rom *BlockDiagROM) error { return lti.SaveBlockDiag(w, rom) }

// LoadROM deserializes a block-diagonal ROM saved by SaveROM.
func LoadROM(r io.Reader) (*BlockDiagROM, error) { return lti.LoadBlockDiag(r) }

// SimulateFull runs a fixed-step transient on the unreduced sparse model.
func SimulateFull(sys *SparseModel, opts TransientOptions) (*TransientResult, error) {
	return sim.SimulateSparse(sys, opts)
}

// SimulateROM runs a fixed-step transient on a block-diagonal ROM, stepping
// its blocks one after another.
func SimulateROM(rom *BlockDiagROM, opts TransientOptions) (*TransientResult, error) {
	return sim.SimulateBlockDiag(rom, opts)
}

// SimulateDenseROM runs a fixed-step transient on a dense descriptor ROM.
func SimulateDenseROM(rom *DenseROM, opts TransientOptions) (*TransientResult, error) {
	return sim.SimulateDense(rom, opts)
}

// CheckPassivity verifies stability and sampled passivity of a square
// (immittance) ROM, per Sec. III-D of the paper.
func CheckPassivity(rom *BlockDiagROM, opts PassivityCheckOptions) (*PassivityReport, error) {
	std, err := passivity.ToStandard(rom.ToDense())
	if err != nil {
		return nil, err
	}
	diag, err := passivity.Diagonalize(std)
	if err != nil {
		return nil, err
	}
	return passivity.Check(rom, diag.Poles, opts)
}

// MomentMatrix is a dense p×m real matrix holding one transfer-function
// moment M_k = L·((s0C-G)⁻¹C)^k·(s0C-G)⁻¹B.
type MomentMatrix = dense.Mat[float64]

// TransferMatrix is a dense p×m complex matrix holding H(s) at one
// frequency, as returned by System.Eval.
type TransferMatrix = dense.Mat[complex128]

// Moments returns the first count moment matrices of H(s) around s0 — the
// quantities BDSM and PRIMA match exactly.
func Moments(sys *SparseModel, s0 float64, count int) ([]*MomentMatrix, error) {
	return sys.Moments(s0, count)
}

// SolverBackend selects direct or iterative (memory-streaming) pencil
// solves inside the reduction algorithms. The direct backend, BackendAuto
// (the zero value), factors the pencil with the symmetric signed-Cholesky
// factor on RC and RLC grids and with sparse LU otherwise.
type SolverBackend = krylov.Backend

// Solver backends.
const (
	BackendAuto      = krylov.BackendAuto
	BackendIterative = krylov.BackendIterative
)

// ReducePRIMAMultipoint runs PRIMA with rational multi-point projection,
// matching opts.Moments block moments at every expansion point.
func ReducePRIMAMultipoint(sys *SparseModel, points []float64, opts BaselineOptions) (*DenseROM, error) {
	return baseline.PRIMAMultipoint(sys, points, opts)
}
