package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
)

// ObsBench is one side of an instrumented-vs-uninstrumented comparison.
type ObsBench struct {
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// ObsPair compares one operation with metrics recording off and on.
// OverheadPct is (instrumented − baseline)/baseline in percent; small
// negative values are measurement noise.
type ObsPair struct {
	Name         string   `json:"name"`
	Baseline     ObsBench `json:"baseline"`
	Instrumented ObsBench `json:"instrumented"`
	OverheadPct  float64  `json:"overhead_pct"`
}

// ObsResult is the machine-readable record pgbench emits as BENCH_obs.json:
// what the observability layer costs on the serving hot paths. The contract
// it guards: the warm modal sweep kernel stays at 0 allocs/op with metrics
// enabled, and recording overhead stays within a few percent.
type ObsResult struct {
	Name        string  `json:"name"`
	Benchmark   string  `json:"benchmark"`
	Scale       float64 `json:"scale"`
	Order       int     `json:"order"`
	Blocks      int     `json:"blocks"`
	ModalBlocks int     `json:"modal_blocks"`
	Ports       int     `json:"ports"`
	Outputs     int     `json:"outputs"`
	SweepPoints int     `json:"sweep_points"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`

	Pairs []ObsPair `json:"pairs"`

	// KernelAllocsInstrumented and KernelOverheadPct restate the headline
	// guarantee: the warm modal sweep kernel with full per-task recording.
	KernelAllocsInstrumented int64   `json:"kernel_allocs_instrumented"`
	KernelOverheadPct        float64 `json:"kernel_overhead_pct"`
}

// runObsBench runs one closure under testing.Benchmark once.
func runObsBench(fn func(b *testing.B)) ObsBench {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	return ObsBench{
		N:           res.N,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}
}

// obsPair measures one baseline/instrumented comparison. The two closures run
// interleaved, three reps each, and the fastest rep of each side wins: the
// deltas of interest are tens to hundreds of nanoseconds, well inside the
// drift between two non-adjacent single runs.
func obsPair(name string, baseFn, instrFn func(b *testing.B)) ObsPair {
	var base, instr ObsBench
	for rep := 0; rep < 3; rep++ {
		b := runObsBench(baseFn)
		in := runObsBench(instrFn)
		if rep == 0 || b.NsPerOp < base.NsPerOp {
			base = b
		}
		if rep == 0 || in.NsPerOp < instr.NsPerOp {
			instr = in
		}
	}
	p := ObsPair{Name: name, Baseline: base, Instrumented: instr}
	if base.NsPerOp > 0 {
		p.OverheadPct = (instr.NsPerOp - base.NsPerOp) / base.NsPerOp * 100
	}
	return p
}

// Obs measures what metrics recording costs on the serving hot paths, by
// running each operation twice — against uninstrumented components and
// against components carrying live obs histograms — and reporting the delta:
//
//   - sweep_kernel: the warm modal single-entry sweep (SweepEntryInto into a
//     caller-owned buffer), bare vs wrapped in exactly the per-task recording
//     an instrumented Engine performs (queue-depth atomics, wait and run
//     histogram observations). This is the 0 allocs/op contract.
//   - sweep_serving: the end-to-end Evaluator.SweepEntries request through
//     the worker pool, against an engine with and without Instrument attached.
//   - session_advance: a resumable modal Stepper advancing one chunk, bare vs
//     with the advance-duration histogram observation the session handler adds.
func Obs(cfg Config) (*ObsResult, error) {
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

	// The README's example /sweep request: one entry over a 300-point grid.
	// Each modal sweep is one engine task doing a full vectorized grid pass,
	// so the fixed per-task recording cost is judged against a real request's
	// worth of work.
	const points = 300
	omegas, err := sim.LogGrid(1e5, 1e15, points)
	if err != nil {
		return nil, err
	}

	out := &ObsResult{
		Name:        "obs",
		Benchmark:   name,
		Scale:       cfg.Scale,
		Order:       order,
		Blocks:      len(rom.Blocks),
		ModalBlocks: modalBlocks,
		Ports:       m,
		Outputs:     p,
		SweepPoints: points,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
	}

	// The live instruments, registered exactly as pgserve registers them.
	reg := obs.NewRegistry()
	taskBuckets := obs.ExpBuckets(1e-6, 4, 12)
	waitHist := reg.Histogram("bench_task_wait_seconds", "Task queue wait.", taskBuckets)
	runHist := reg.Histogram("bench_task_run_seconds", "Task run time.", taskBuckets)
	advHist := reg.Histogram("bench_session_advance_seconds", "Session advance.", taskBuckets)

	// Pair 1 — the warm modal sweep kernel. The instrumented side performs,
	// inline, the exact recording an instrumented Engine adds around a
	// single-task batch: the batch enqueue timestamp, the queue-depth
	// inc/dec, the shared wait-end/run-start clock read, both histogram
	// observations, and the completion counter. All of it is atomic
	// arithmetic on pre-registered instruments, so allocs/op must stay 0.
	dst := make([]complex128, points)
	var queued, completed atomic.Int64
	kernel := obsPair("sweep_kernel",
		func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := ms.SweepEntryInto(dst, 0, 0, omegas); err != nil {
					b.Fatal(err)
				}
			}
		},
		func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				enqueued := time.Now()
				queued.Add(1)
				queued.Add(-1)
				start := time.Now()
				waitHist.Observe(start.Sub(enqueued).Seconds())
				if err := ms.SweepEntryInto(dst, 0, 0, omegas); err != nil {
					b.Fatal(err)
				}
				runHist.ObserveSince(start)
				completed.Add(1)
			}
		})
	out.Pairs = append(out.Pairs, kernel)
	out.KernelAllocsInstrumented = kernel.Instrumented.AllocsPerOp
	out.KernelOverheadPct = kernel.OverheadPct

	// Pair 2 — the end-to-end /sweep request body: Evaluator.SweepEntries
	// through the worker pool, with and without engine instrumentation. The
	// request itself allocates its response (both sides equally); the delta
	// isolates what Instrument costs at task granularity.
	nodes, _, _ := sys.Dims()
	model := &serve.Model{
		ID: "obsbench", Nodes: nodes, Ports: m, Outputs: p,
		Order: order, Blocks: len(rom.Blocks), ModalBlocks: modalBlocks,
		ROM: rom, Modal: ms,
	}
	entries := []serve.Entry{{Row: 0, Col: 0}}
	ctx := context.Background()

	engBase := serve.NewEngine(cfg.Workers)
	defer engBase.Close()
	evBase := serve.NewEvaluator(engBase, nil, true)
	engInstr := serve.NewEngine(cfg.Workers)
	defer engInstr.Close()
	engInstr.Instrument(waitHist, runHist)
	evInstr := serve.NewEvaluator(engInstr, nil, true)
	out.Pairs = append(out.Pairs, obsPair("sweep_serving",
		func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := evBase.SweepEntries(ctx, model, entries, 1e5, 1e15, points); err != nil {
					b.Fatal(err)
				}
			}
		},
		func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := evInstr.SweepEntries(ctx, model, entries, 1e5, 1e15, points); err != nil {
					b.Fatal(err)
				}
			}
		}))

	// Pair 3 — one session advance chunk, bare vs with the advance-duration
	// observation the /session/{id}/advance handler records.
	const dt = 1e-11
	chunk := sessionChunk
	input := sim.UniformInput(sim.Sine{Amplitude: 1e-3, Freq: 1e9})
	st, err := sim.NewStepper(ms, sim.StepperOptions{Dt: dt})
	if err != nil {
		return nil, err
	}
	out.Pairs = append(out.Pairs, obsPair("session_advance",
		func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := st.Advance(chunk, input); err != nil {
					b.Fatal(err)
				}
			}
		},
		func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if _, err := st.Advance(chunk, input); err != nil {
					b.Fatal(err)
				}
				advHist.ObserveSince(t0)
			}
		}))

	return out, nil
}

// Render prints the instrumentation-overhead table.
func (r *ObsResult) Render(w io.Writer) {
	line(w, "%s @ scale %g: order %d, %d blocks (%d modal), %d-point sweeps, GOMAXPROCS %d",
		r.Benchmark, r.Scale, r.Order, r.Blocks, r.ModalBlocks, r.SweepPoints, r.GoMaxProcs)
	line(w, "%-16s %14s %14s %10s %12s %12s", "operation", "base ns/op", "instr ns/op", "overhead", "base allocs", "instr allocs")
	for _, p := range r.Pairs {
		line(w, "%-16s %14.0f %14.0f %9.2f%% %12d %12d",
			p.Name, p.Baseline.NsPerOp, p.Instrumented.NsPerOp, p.OverheadPct,
			p.Baseline.AllocsPerOp, p.Instrumented.AllocsPerOp)
	}
	line(w, "warm modal sweep kernel with metrics: %d allocs/op, %.2f%% ns/op overhead",
		r.KernelAllocsInstrumented, r.KernelOverheadPct)
}

// WriteJSON writes the machine-readable record (BENCH_obs.json).
func (r *ObsResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
