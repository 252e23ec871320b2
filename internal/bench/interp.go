package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/lti"
	"repro/internal/param"
	"repro/internal/sim"
)

// InterpCase is one head-to-head sample: interpolating a Δ-scale ROM from
// two stored anchors versus reducing it from scratch.
type InterpCase struct {
	Benchmark string  `json:"benchmark"`
	RCOnly    bool    `json:"rc_only"`
	ScaleLo   float64 `json:"scale_lo"`
	ScaleHi   float64 `json:"scale_hi"`
	Target    float64 `json:"target"`

	// ReduceNS is the cold path the interpolation replaces (grid build +
	// BDSM reduction + diagonalization at the target scale); InterpNS is the
	// interpolation operator itself (pole matching + blending + realization).
	ReduceNS int64   `json:"reduce_ns"`
	InterpNS int64   `json:"interp_ns"`
	Speedup  float64 `json:"speedup"`

	// MaxRelErr is the worst relative transfer error of the interpolant
	// against the direct reduction over the standard sweep band, and
	// MaxPoleShift the largest relative pole movement between the anchors.
	MaxRelErr    float64 `json:"max_rel_err"`
	MaxPoleShift float64 `json:"max_pole_shift"`
	Budget       float64 `json:"budget"`
	WithinBudget bool    `json:"within_budget"`
}

// InterpResult is the machine-readable record pgbench -exp interp emits as
// BENCH_interp.json: interpolation-vs-reduction speed and accuracy across
// the benchmark family. The anchor/target scales are fixed per case
// (plateau-bound), so there is no record-wide scale field — each case
// carries its own operating point.
type InterpResult struct {
	Name       string `json:"name"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`

	Cases []InterpCase `json:"cases"`

	// MinSpeedup and MaxErr summarize the headline claims: every case beats
	// cold reduction by at least MinSpeedup and stays within MaxErr of it.
	MinSpeedup float64 `json:"min_speedup"`
	MaxErr     float64 `json:"max_err"`
}

// interpBudget is the accuracy bar the record asserts against — the serving
// layer's default admission budget.
const interpBudget = 0.05

// interpModal reduces one instance and returns its modal ROM plus the cold
// build+reduce+diagonalize time — the full latency a Δ-scale cache miss
// would pay without interpolation.
func interpModal(name string, scale float64, rcOnly bool, workers int) (*lti.ModalSystem, time.Duration, error) {
	t0 := time.Now()
	cfg, err := grid.Benchmark(name, scale)
	if err != nil {
		return nil, 0, err
	}
	cfg.RCOnly = rcOnly
	gm, err := cfg.Build()
	if err != nil {
		return nil, 0, err
	}
	sys, err := lti.NewSparseSystem(gm.C, gm.G, gm.B, gm.L)
	if err != nil {
		return nil, 0, err
	}
	rom, err := core.Reduce(sys, core.Options{Moments: grid.MatchedMoments(name), Workers: workers})
	if err != nil {
		return nil, 0, err
	}
	ms, err := rom.Modalize()
	if err != nil {
		return nil, 0, err
	}
	return ms, time.Since(t0), nil
}

// Interp measures Δ-scale interpolation against direct reduction on ckt1
// and ckt2, RLC and RC-only, using fixed anchor triples inside one
// geometric plateau near the standard 0.25 operating point (cfg.Scale does
// not apply — anchors must stay plateau-bound to be interpolable). It is
// the quantitative record behind the serving layer's /interp endpoint: how
// much latency interpolation removes and how much accuracy it costs.
func Interp(cfg Config) (*InterpResult, error) {
	cfg.defaults()
	// Anchor triples inside one (NX, ports) plateau per benchmark; the
	// middle scale is the interpolation target. Chosen near the standard
	// -scale 0.25 operating point.
	cases := []struct {
		name           string
		lo, target, hi float64
	}{
		{grid.Ckt1, 0.236, 0.241, 0.246},
		{grid.Ckt2, 0.241, 0.2435, 0.246},
	}
	out := &InterpResult{
		Name:       "interp",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		MinSpeedup: math.Inf(1),
	}
	omegas, err := sim.LogGrid(1e5, 1e15, 40)
	if err != nil {
		return nil, err
	}
	for _, tc := range cases {
		for _, rcOnly := range []bool{false, true} {
			a, _, err := interpModal(tc.name, tc.lo, rcOnly, cfg.Workers)
			if err != nil {
				return nil, err
			}
			b, _, err := interpModal(tc.name, tc.hi, rcOnly, cfg.Workers)
			if err != nil {
				return nil, err
			}
			direct, reduceTime, err := interpModal(tc.name, tc.target, rcOnly, cfg.Workers)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			ms, rep, err := param.Interpolate(
				param.Anchor{Scale: tc.lo, Modal: a},
				param.Anchor{Scale: tc.hi, Modal: b},
				tc.target)
			interpTime := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("bench: interpolating %s@%g: %w", tc.name, tc.target, err)
			}
			relErr, err := param.MaxRelTransferErr(ms, direct, omegas)
			if err != nil {
				return nil, err
			}
			c := InterpCase{
				Benchmark: tc.name, RCOnly: rcOnly,
				ScaleLo: tc.lo, ScaleHi: tc.hi, Target: tc.target,
				ReduceNS: reduceTime.Nanoseconds(), InterpNS: interpTime.Nanoseconds(),
				Speedup:      float64(reduceTime) / float64(interpTime),
				MaxRelErr:    relErr,
				MaxPoleShift: rep.MaxPoleShift,
				Budget:       interpBudget,
				WithinBudget: relErr <= interpBudget,
			}
			out.Cases = append(out.Cases, c)
			if c.Speedup < out.MinSpeedup {
				out.MinSpeedup = c.Speedup
			}
			if c.MaxRelErr > out.MaxErr {
				out.MaxErr = c.MaxRelErr
			}
		}
	}
	return out, nil
}

// Render prints the comparison table.
func (r *InterpResult) Render(w io.Writer) {
	line(w, "Δ-scale interpolation vs direct reduction (GOMAXPROCS %d)", r.GoMaxProcs)
	line(w, "%-6s %-4s %-22s %12s %12s %9s %11s %7s", "bench", "rc", "anchors→target", "reduce", "interp", "speedup", "max rel err", "budget")
	for _, c := range r.Cases {
		rc := "rlc"
		if c.RCOnly {
			rc = "rc"
		}
		ok := "ok"
		if !c.WithinBudget {
			ok = "OVER"
		}
		line(w, "%-6s %-4s %g,%g→%g %12s %12s %8.0f× %11.2e %7s",
			c.Benchmark, rc, c.ScaleLo, c.ScaleHi, c.Target,
			time.Duration(c.ReduceNS).Round(time.Microsecond),
			time.Duration(c.InterpNS).Round(time.Microsecond),
			c.Speedup, c.MaxRelErr, ok)
	}
	line(w, "min speedup %.0f×, worst rel err %.2e (budget %g)", r.MinSpeedup, r.MaxErr, interpBudget)
}
