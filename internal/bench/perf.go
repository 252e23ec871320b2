package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	"repro/internal/grid"
	"repro/internal/lti"
	"repro/internal/sim"
)

// PerfBench is one micro-benchmark sample with the evaluation telemetry that
// ns/op alone cannot show: how many pencil factorizations and which
// evaluation path each operation used.
type PerfBench struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Per-op lti telemetry: pencil LU factorizations, evaluations through
	// LU factors, evaluations through pole–residue forms.
	FactorizationsPerOp float64 `json:"factorizations_per_op"`
	FactoredEvalsPerOp  float64 `json:"factored_evals_per_op"`
	ModalEvalsPerOp     float64 `json:"modal_evals_per_op"`
}

// PerfResult is the machine-readable benchmark record pgbench emits as
// BENCH_<name>.json — the start of the repo's benchmark trajectory.
type PerfResult struct {
	Name        string  `json:"name"`
	Benchmark   string  `json:"benchmark"`
	Scale       float64 `json:"scale"`
	Order       int     `json:"order"`
	Blocks      int     `json:"blocks"`
	ModalBlocks int     `json:"modal_blocks"`
	Ports       int     `json:"ports"`
	Outputs     int     `json:"outputs"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`

	Results []PerfBench `json:"results"`

	// SpeedupEvalModalVsCached and SpeedupSweepModalVsCached summarize the
	// headline ratios (cached-LU ns/op ÷ modal ns/op).
	SpeedupEvalModalVsCached  float64 `json:"speedup_eval_modal_vs_cached"`
	SpeedupSweepModalVsCached float64 `json:"speedup_sweep_modal_vs_cached"`
}

// runPerfBench runs one benchmark closure under testing.Benchmark and folds
// the lti counters into per-op telemetry.
func runPerfBench(name string, fn func(b *testing.B)) PerfBench {
	var counters lti.EvalCounters
	var n int
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		lti.ResetCounters()
		fn(b)
		// testing.Benchmark reruns the closure with growing b.N; the last
		// (largest) run's counters win, matching res.N below.
		counters = lti.Counters()
		n = b.N
	})
	pb := PerfBench{
		Name:        name,
		N:           res.N,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}
	if n > 0 {
		pb.FactorizationsPerOp = float64(counters.Factorizations) / float64(n)
		pb.FactoredEvalsPerOp = float64(counters.FactoredEvals) / float64(n)
		pb.ModalEvalsPerOp = float64(counters.ModalEvals) / float64(n)
	}
	return pb
}

// Perf measures the evaluation paths head to head on one reduced model:
// cold factorization, cached-LU, and modal, for full-matrix evaluations,
// single-column evaluations, and 60-point sweeps. It is the quantitative
// record of what "diagonalize blocks once, evaluate in O(q)" buys.
func Perf(cfg Config) (*PerfResult, error) {
	cfg.defaults()
	const name = grid.Ckt1
	sys, _, err := buildSystem(name, cfg.Scale)
	if err != nil {
		return nil, err
	}
	sr, rom := runBDSM(sys, grid.MatchedMoments(name), cfg.Workers)
	if sr.Err != nil {
		return nil, sr.Err
	}
	ms, err := rom.Modalize()
	if err != nil {
		return nil, fmt.Errorf("bench: modalize: %w", err)
	}
	modalBlocks, _ := ms.ModalCount()
	order, m, p := rom.Dims()

	s := complex(0, 1e9)
	omegas, err := sim.LogGrid(1e5, 1e15, 60)
	if err != nil {
		return nil, err
	}

	out := &PerfResult{
		Name:        "modal",
		Benchmark:   name,
		Scale:       cfg.Scale,
		Order:       order,
		Blocks:      len(rom.Blocks),
		ModalBlocks: modalBlocks,
		Ports:       m,
		Outputs:     p,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
	}

	out.Results = append(out.Results, runPerfBench("EvalColdFactorization", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rom.Eval(s); err != nil {
				b.Fatal(err)
			}
		}
	}))
	// The cached-LU rows reuse factors held from one Factorize call: the
	// steady state of a per-frequency factor cache, minus its lookup.
	f, err := rom.Factorize(s)
	if err != nil {
		return nil, err
	}
	out.Results = append(out.Results, runPerfBench("EvalCachedLU", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := f.Eval(); err != nil {
				b.Fatal(err)
			}
		}
	}))
	out.Results = append(out.Results, runPerfBench("EvalModal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ms.Eval(s); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Single-column hot path with caller-pooled buffers (the per-point cost
	// inside a sweep): both allocation-free, only one factorization-free.
	dst := make([]complex128, p)
	fcol, err := rom.FactorizeColumn(s, 0)
	if err != nil {
		return nil, err
	}
	scratch := make([]complex128, fcol.ScratchLen())
	out.Results = append(out.Results, runPerfBench("EvalColumnCachedLU", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := fcol.EvalColumnInto(dst, scratch, 0); err != nil {
				b.Fatal(err)
			}
		}
	}))
	out.Results = append(out.Results, runPerfBench("EvalColumnModal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := ms.EvalColumnInto(dst, s, 0); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Warm 60-point single-entry sweep: the serving steady state. The
	// factored variant applies held column factors at every point; the modal
	// variant is one vectorized residue pass.
	sweepFactors := make([]*lti.BlockDiagFactors, len(omegas))
	for k, w := range omegas {
		if sweepFactors[k], err = rom.FactorizeColumn(complex(0, w), 0); err != nil {
			return nil, err
		}
	}
	out.Results = append(out.Results, runPerfBench("SweepCachedLU", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, f := range sweepFactors {
				if err := f.EvalColumnInto(dst, scratch, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	}))
	sweepDst := make([]complex128, len(omegas))
	out.Results = append(out.Results, runPerfBench("SweepModal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := ms.SweepEntryInto(sweepDst, 0, 0, omegas); err != nil {
				b.Fatal(err)
			}
		}
	}))

	byName := map[string]PerfBench{}
	for _, r := range out.Results {
		byName[r.Name] = r
	}
	if a, b := byName["EvalCachedLU"], byName["EvalModal"]; b.NsPerOp > 0 {
		out.SpeedupEvalModalVsCached = a.NsPerOp / b.NsPerOp
	}
	if a, b := byName["SweepCachedLU"], byName["SweepModal"]; b.NsPerOp > 0 {
		out.SpeedupSweepModalVsCached = a.NsPerOp / b.NsPerOp
	}
	return out, nil
}

// Render prints the benchmark table.
func (p *PerfResult) Render(w io.Writer) {
	line(w, "%s @ scale %g: order %d, %d blocks (%d modal), %d ports × %d outputs, GOMAXPROCS %d",
		p.Benchmark, p.Scale, p.Order, p.Blocks, p.ModalBlocks, p.Ports, p.Outputs, p.GoMaxProcs)
	line(w, "%-24s %12s %10s %12s %10s %10s %10s", "benchmark", "ns/op", "allocs/op", "B/op", "factor/op", "lu-ev/op", "modal-ev/op")
	for _, r := range p.Results {
		line(w, "%-24s %12.0f %10d %12d %10.2f %10.2f %10.2f",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp,
			r.FactorizationsPerOp, r.FactoredEvalsPerOp, r.ModalEvalsPerOp)
	}
	line(w, "speedup (eval, modal vs cached-LU):  %.1f×", p.SpeedupEvalModalVsCached)
	line(w, "speedup (sweep, modal vs cached-LU): %.1f×", p.SpeedupSweepModalVsCached)
}

// WriteJSON writes the machine-readable record (BENCH_<name>.json).
func (p *PerfResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
