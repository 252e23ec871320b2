// Command pgbench regenerates the paper's tables and figures on the
// synthetic benchmark suite:
//
//	pgbench -exp table1              measured Table I scheme comparison
//	pgbench -exp table2 -scale 0.25  Table II CPU times on ckt1..ckt5
//	pgbench -exp fig4                Fig. 4 ROM structure + ASCII spy plots
//	pgbench -exp fig5 -points 61     Fig. 5 accuracy sweep (CSV)
//	pgbench -exp perf                evaluation-path micro-benchmarks
//	                                 (writes machine-readable BENCH_modal.json)
//	pgbench -exp interp              Δ-scale interpolation vs direct reduction
//	                                 (writes machine-readable BENCH_interp.json)
//	pgbench -exp session             streaming-session advances vs /transient
//	                                 recompute (writes BENCH_session.json)
//	pgbench -exp obs                 metrics-recording overhead on the hot
//	                                 paths (writes BENCH_obs.json)
//	pgbench -exp batch               fused multi-tenant evaluation vs
//	                                 per-request dispatch (writes
//	                                 BENCH_batch.json; exits 1 unless both
//	                                 fused paths beat their baselines)
//	pgbench -exp fleet               router-tier throughput scaling and
//	                                 flapping-replica tail latency (writes
//	                                 BENCH_fleet.json)
//	pgbench -exp scale -maxn 100000  sparse-first reduction time vs n on the
//	                                 multiscale ladder (writes
//	                                 BENCH_scale.json; not part of -exp all)
//	pgbench -exp all                 everything above
//
// At -scale 1 the instances match the paper's node/port counts (ckt5 is a
// 1.7M-node build; expect a long run). The -budget flag emulates the
// paper's 4 GiB workstation and triggers the PRIMA/SVDMOR breakdowns.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/grid"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1|table2|fig4|fig5|ablation|perf|interp|session|obs|batch|fleet|all")
	scale := flag.Float64("scale", 0.25, "benchmark scale factor (0,1]; 1 = paper-size grids")
	points := flag.Int("points", 61, "frequency samples for fig5")
	budgetGiB := flag.Float64("budget", 4, "dense-basis memory budget in GiB (Table II breakdown emulation)")
	ckts := flag.String("ckts", "", "comma-separated subset for table2 (default all five)")
	workers := flag.Int("workers", 0, "BDSM workers (0 = GOMAXPROCS)")
	benchJSON := flag.String("benchjson", "", "output path for the perf/interp/session/obs/batch/fleet/scale experiments' machine-readable record (defaults: BENCH_modal.json when -exp perf, BENCH_interp.json when -exp interp, BENCH_session.json when -exp session, BENCH_obs.json when -exp obs, BENCH_batch.json when -exp batch, BENCH_fleet.json when -exp fleet, BENCH_scale.json when -exp scale; unset otherwise so 'pgbench -exp all' has no file side effects)")
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

	run := func(name string, f func() error) {
		fmt.Printf("=== %s ===\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "pgbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	any := false
	if want("table1") {
		any = true
		run("Table I", func() error {
			res, err := bench.TableI(cfg)
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			return nil
		})
	}
	if want("table2") {
		any = true
		run("Table II", func() error {
			res, err := bench.TableII(cfg, list)
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			return nil
		})
	}
	if want("fig4") {
		any = true
		run("Fig. 4", func() error {
			res, err := bench.Fig4(cfg)
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			return nil
		})
	}
	if want("fig5") {
		any = true
		run("Fig. 5", func() error {
			res, err := bench.Fig5(cfg)
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			return nil
		})
	}
	if want("perf") {
		any = true
		jsonPath := *benchJSON
		if jsonPath == "" && *exp == "perf" {
			jsonPath = "BENCH_modal.json"
		}
		run("Perf: evaluation paths", func() error {
			res, err := bench.Perf(cfg)
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			if jsonPath != "" {
				if err := res.WriteJSON(jsonPath); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", jsonPath)
			}
			return nil
		})
	}
	if want("interp") {
		any = true
		jsonPath := *benchJSON
		if jsonPath == "" && *exp == "interp" {
			jsonPath = "BENCH_interp.json"
		}
		run("Interp: Δ-scale serving", func() error {
			res, err := bench.Interp(cfg)
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			if jsonPath != "" {
				if err := res.WriteJSON(jsonPath); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", jsonPath)
			}
			return nil
		})
	}
	if want("session") {
		any = true
		jsonPath := *benchJSON
		if jsonPath == "" && *exp == "session" {
			jsonPath = "BENCH_session.json"
		}
		run("Session: streaming transient advances vs recompute", func() error {
			res, err := bench.Session(cfg)
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			if jsonPath != "" {
				if err := res.WriteJSON(jsonPath); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", jsonPath)
			}
			return nil
		})
	}
	if want("obs") {
		any = true
		jsonPath := *benchJSON
		if jsonPath == "" && *exp == "obs" {
			jsonPath = "BENCH_obs.json"
		}
		run("Obs: metrics-recording overhead", func() error {
			res, err := bench.Obs(cfg)
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			if jsonPath != "" {
				if err := res.WriteJSON(jsonPath); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", jsonPath)
			}
			return nil
		})
	}
	if want("batch") {
		any = true
		jsonPath := *benchJSON
		if jsonPath == "" && *exp == "batch" {
			jsonPath = "BENCH_batch.json"
		}
		run("Batch: fused multi-tenant evaluation", func() error {
			res, err := bench.Batch(cfg)
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			if jsonPath != "" {
				if err := res.WriteJSON(jsonPath); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", jsonPath)
			}
			return res.CheckSpeedups()
		})
	}
	if want("fleet") {
		any = true
		jsonPath := *benchJSON
		if jsonPath == "" && *exp == "fleet" {
			jsonPath = "BENCH_fleet.json"
		}
		run("Fleet: router-tier scaling and fault absorption", func() error {
			res, err := bench.Fleet(cfg)
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			if jsonPath != "" {
				if err := res.WriteJSON(jsonPath); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", jsonPath)
			}
			return nil
		})
	}
	if want("ablation") {
		any = true
		run("Ablation: orthonormalization cost", func() error {
			res, err := bench.AblationOrthoCost(cfg, nil)
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			return nil
		})
	}
	if *exp == "scale" {
		// The scale ladder is opt-in only (not part of -exp all): its top
		// rung assembles and reduces a -maxn-node multiscale grid.
		any = true
		jsonPath := *benchJSON
		if jsonPath == "" {
			jsonPath = "BENCH_scale.json"
		}
		run("Scale: sparse-first reduction vs n", func() error {
			res, err := bench.Scale(cfg, *maxN)
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			if err := res.WriteJSON(jsonPath); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", jsonPath)
			return nil
		})
	}
	if !any {
		fmt.Fprintf(os.Stderr, "pgbench: unknown experiment %q (want table1|table2|fig4|fig5|ablation|perf|interp|session|obs|batch|fleet|scale|all)\n", *exp)
		fmt.Fprintf(os.Stderr, "benchmarks: %s\n", strings.Join(grid.Names(), ", "))
		os.Exit(2)
	}
}
