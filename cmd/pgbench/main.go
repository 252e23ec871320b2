// Command pgbench regenerates the paper's tables and figures on the
// synthetic benchmark suite:
//
//	pgbench -exp table1              measured Table I scheme comparison
//	pgbench -exp table2 -scale 0.25  Table II CPU times on ckt1..ckt5
//	pgbench -exp fig4                Fig. 4 ROM structure + ASCII spy plots
//	pgbench -exp fig5 -points 61     Fig. 5 accuracy sweep (CSV)
//	pgbench -exp ablation            orthonormalization cost vs port count
//	pgbench -exp interp              Δ-scale interpolation vs direct reduction
//	                                 (writes machine-readable BENCH_interp.json)
//	pgbench -exp fleet               router-tier throughput scaling and
//	                                 flapping-replica tail latency (writes
//	                                 BENCH_fleet.json)
//	pgbench -exp scale -maxn 100000  sparse-first reduction time vs n on the
//	                                 multiscale ladder (writes
//	                                 BENCH_scale.json; not part of -exp all)
//	pgbench -exp all                 everything above except scale
//
// At -scale 1 the instances match the paper's node/port counts (ckt5 is a
// 1.7M-node build; expect a long run). The -budget flag emulates the
// paper's 4 GiB workstation and triggers the PRIMA/SVDMOR breakdowns.
// Time-to-ROM and serving latency, layer by layer, are measured by the
// perfbench module, not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/grid"
)

// result is what every experiment returns: a printable table or series.
type result interface {
	Render(w io.Writer)
}

func main() {
	exp := flag.String("exp", "all", "experiment: table1|table2|fig4|fig5|ablation|interp|fleet|scale|all")
	scale := flag.Float64("scale", 0.25, "benchmark scale factor (0,1]; 1 = paper-size grids")
	points := flag.Int("points", 61, "frequency samples for fig5")
	budgetGiB := flag.Float64("budget", 4, "dense-basis memory budget in GiB (Table II breakdown emulation)")
	ckts := flag.String("ckts", "", "comma-separated subset for table2 (default all five)")
	workers := flag.Int("workers", 0, "BDSM workers (0 = GOMAXPROCS)")
	benchJSON := flag.String("benchjson", "", "output path for the interp/fleet/scale experiments' machine-readable record (defaults: BENCH_interp.json when -exp interp, BENCH_fleet.json when -exp fleet, BENCH_scale.json when -exp scale; unset otherwise so 'pgbench -exp all' has no file side effects)")
	maxN := flag.Int("maxn", 100000, "top rung of the -exp scale ladder in grid nodes")
	flag.Parse()

	cfg := bench.Config{
		Scale:        *scale,
		SweepPoints:  *points,
		MemoryBudget: int64(*budgetGiB * float64(1<<30)),
		Workers:      *workers,
	}
	var list []string
	if *ckts != "" {
		list = strings.Split(*ckts, ",")
	}

	ran := false
	// run runs experiment name when it was asked for and prints its result
	// under title. An experiment with a default record file def also writes
	// its result as JSON: to -benchjson when set, else to def when name was
	// asked for by itself.
	run := func(name, title, def string, f func() (result, error)) {
		if *exp != name && (*exp != "all" || name == "scale") {
			return
		}
		ran = true
		fmt.Printf("=== %s ===\n", title)
		path := ""
		if def != "" {
			path = *benchJSON
			if path == "" && *exp == name {
				path = def
			}
		}
		res, err := f()
		if err == nil {
			res.Render(os.Stdout)
			if path != "" {
				err = bench.WriteRecord(path, res)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pgbench: %s: %v\n", title, err)
			os.Exit(1)
		}
		if path != "" {
			fmt.Printf("wrote %s\n", path)
		}
		fmt.Println()
	}

	run("table1", "Table I", "", func() (result, error) { return bench.TableI(cfg) })
	run("table2", "Table II", "", func() (result, error) { return bench.TableII(cfg, list) })
	run("fig4", "Fig. 4", "", func() (result, error) { return bench.Fig4(cfg) })
	run("fig5", "Fig. 5", "", func() (result, error) { return bench.Fig5(cfg) })
	run("interp", "Interp: Δ-scale serving", "BENCH_interp.json",
		func() (result, error) { return bench.Interp(cfg) })
	run("fleet", "Fleet: router-tier scaling and fault absorption", "BENCH_fleet.json",
		func() (result, error) { return bench.Fleet(cfg) })
	run("ablation", "Ablation: orthonormalization cost", "",
		func() (result, error) { return bench.AblationOrthoCost(cfg, nil) })
	// The scale ladder is opt-in only (not part of -exp all): its top rung
	// assembles and reduces a -maxn-node multiscale grid.
	run("scale", "Scale: sparse-first reduction vs n", "BENCH_scale.json",
		func() (result, error) { return bench.Scale(cfg, *maxN) })

	if !ran {
		fmt.Fprintf(os.Stderr, "pgbench: unknown experiment %q (want table1|table2|fig4|fig5|ablation|interp|fleet|scale|all)\n", *exp)
		fmt.Fprintf(os.Stderr, "benchmarks: %s\n", strings.Join(grid.Names(), ", "))
		os.Exit(2)
	}
}
