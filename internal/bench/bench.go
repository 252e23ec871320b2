// Package bench regenerates every table and figure of the paper's
// evaluation section on the synthetic benchmark suite: Table I (qualitative
// scheme comparison, here backed by measurements), Table II (MOR CPU times
// and ROM sizes on ckt1–ckt5), Fig. 4 (ROM matrix structure), and Fig. 5
// (frequency-response accuracy). Each experiment has a typed result so the
// top-level Go benchmarks and tests can assert on the paper's qualitative
// claims, plus a renderer that prints the table/series.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/lti"
)

// Config controls experiment scale so the suite runs from laptop CI
// (Scale ≈ 0.15) to paper-scale reproduction (Scale = 1).
type Config struct {
	// Scale geometrically scales the ckt1–ckt5 analogues; see grid.Benchmark.
	Scale float64
	// MemoryBudget emulates the paper's 4 GB workstation for the schemes
	// that hold dense bases. 0 means baseline.DefaultMemoryBudget.
	MemoryBudget int64
	// Workers for BDSM's parallel splitted-system reduction (0 = GOMAXPROCS).
	Workers int
	// SweepPoints is the number of frequency samples for Fig. 5. Default 61.
	SweepPoints int
}

func (c *Config) defaults() {
	if c.Scale <= 0 {
		c.Scale = 0.15
	}
	if c.SweepPoints <= 0 {
		c.SweepPoints = 61
	}
}

// buildSystem constructs the named benchmark at the configured scale.
func buildSystem(name string, scale float64) (*lti.SparseSystem, grid.Config, error) {
	cfg, err := grid.Benchmark(name, scale)
	if err != nil {
		return nil, cfg, err
	}
	model, err := cfg.Build()
	if err != nil {
		return nil, cfg, err
	}
	sys, err := lti.NewSparseSystem(model.C, model.G, model.B, model.L)
	if err != nil {
		return nil, cfg, err
	}
	return sys, cfg, nil
}

// SchemeResult is one scheme's outcome on one benchmark circuit.
type SchemeResult struct {
	Scheme    string
	MORTime   time.Duration
	ROMSize   int
	BrokeDown bool
	Err       error
	// GrNNZPct and BrNNZPct are the ROM matrix densities in percent
	// (Fig. 4's numbers). Zero when not measured.
	GrNNZPct, BrNNZPct float64
}

func fmtDuration(d time.Duration) string {
	switch {
	case d <= 0:
		return "-"
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d.Microseconds()))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1e3)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// runBDSM runs BDSM and reports timing/size.
func runBDSM(sys *lti.SparseSystem, l, workers int) (SchemeResult, *lti.BlockDiagSystem) {
	start := time.Now()
	rom, err := core.Reduce(sys, core.Options{Moments: l, Workers: workers})
	res := SchemeResult{Scheme: "BDSM", MORTime: time.Since(start), Err: err}
	if err != nil {
		return res, nil
	}
	q, _, _ := rom.Dims()
	res.ROMSize = q
	_, m, _ := sys.Dims()
	_, gnnz, bnnz, _ := rom.NNZ()
	res.GrNNZPct = 100 * float64(gnnz) / float64(q*q)
	res.BrNNZPct = 100 * float64(bnnz) / float64(q*m)
	return res, rom
}

// runPRIMA runs PRIMA under the memory budget.
func runPRIMA(sys *lti.SparseSystem, l int, budget int64) (SchemeResult, *lti.DenseSystem) {
	start := time.Now()
	rom, err := baseline.PRIMA(sys, baseline.Options{Moments: l, MemoryBudget: budget})
	res := SchemeResult{Scheme: "PRIMA", MORTime: time.Since(start), Err: err}
	if err != nil {
		res.BrokeDown = true
		return res, nil
	}
	q, _, _ := rom.Dims()
	res.ROMSize = q
	_, m, _ := sys.Dims()
	_, gnnz, bnnz, _ := rom.NNZ()
	res.GrNNZPct = 100 * float64(gnnz) / float64(q*q)
	res.BrNNZPct = 100 * float64(bnnz) / float64(q*m)
	return res, rom
}

// runSVDMOR runs SVDMOR with the paper's α ≈ 0.6.
func runSVDMOR(sys *lti.SparseSystem, l int, budget int64) (SchemeResult, *baseline.SVDMORROM) {
	start := time.Now()
	rom, err := baseline.SVDMOR(sys, 0.6, baseline.Options{Moments: l, MemoryBudget: budget})
	res := SchemeResult{Scheme: "SVDMOR", MORTime: time.Since(start), Err: err}
	if err != nil {
		res.BrokeDown = true
		return res, nil
	}
	res.ROMSize = rom.Order()
	return res, rom
}

// runEKS runs EKS with the paper's all-unit-impulse excitation.
func runEKS(sys *lti.SparseSystem, l int) (SchemeResult, *baseline.EKSROM) {
	start := time.Now()
	rom, err := baseline.EKS(sys, nil, baseline.Options{Moments: l})
	res := SchemeResult{Scheme: "EKS", MORTime: time.Since(start), Err: err}
	if err != nil {
		return res, nil
	}
	res.ROMSize = rom.Order()
	return res, rom
}

// WriteRecord writes an experiment's machine-readable record (the
// BENCH_*.json files) as indented JSON.
func WriteRecord(path string, rec any) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// line prints a formatted row with a trailing newline.
func line(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format+"\n", args...)
}

// CountMatchedMoments numerically compares moments of a reduced system
// against the original around s0 and returns how many leading moments agree
// within relative tolerance tol.
func CountMatchedMoments(sys *lti.SparseSystem, red *lti.DenseSystem, s0 float64, maxCount int, tol float64) (int, error) {
	mo, err := sys.Moments(s0, maxCount)
	if err != nil {
		return 0, err
	}
	mr, err := red.Moments(s0, maxCount)
	if err != nil {
		return 0, err
	}
	count := 0
	for k := 0; k < maxCount; k++ {
		scale := mo[k].MaxAbs()
		if scale == 0 {
			break
		}
		if mo[k].Sub(mr[k]).MaxAbs() > tol*scale {
			break
		}
		count++
	}
	return count, nil
}

// relTransferError computes the Frobenius-relative transfer error of any
// system against the exact model at s = jω.
func relTransferError(sys *lti.SparseSystem, approx lti.System, w float64) (float64, error) {
	hx, err := sys.Eval(complex(0, w))
	if err != nil {
		return 0, err
	}
	ha, err := approx.Eval(complex(0, w))
	if err != nil {
		return 0, err
	}
	num, den := 0.0, 0.0
	for i := range hx.Data {
		d := hx.Data[i] - ha.Data[i]
		num += real(d)*real(d) + imag(d)*imag(d)
		den += real(hx.Data[i])*real(hx.Data[i]) + imag(hx.Data[i])*imag(hx.Data[i])
	}
	if den == 0 {
		return 0, nil
	}
	return num / den, nil
}
