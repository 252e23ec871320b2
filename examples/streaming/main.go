// Command streaming demonstrates the scalability story behind Table I's
// last column: BDSM reduces one splitted system at a time, so its working
// memory does not grow with the port count, while PRIMA's dense basis does —
// until it no longer fits (the Table II "break down" rows). It also shows
// the two solver backends: the direct factor — the symmetric (signed
// Cholesky) factor for RC and RLC grids alike; on this RC-only grid the
// pencil is SPD and it is plain Cholesky — and the factorization-free
// iterative mode the paper uses for its largest circuits.
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	// An RC-only grid: the pencil (s0·C - G) is symmetric positive definite.
	cfg, err := repro.Benchmark("ckt2", 0.3)
	if err != nil {
		log.Fatal(err)
	}
	cfg.RCOnly = true
	sys, err := repro.BuildGrid(cfg)
	if err != nil {
		log.Fatal(err)
	}
	n, m, _ := sys.Dims()
	fmt.Printf("RC-only grid: %d states, %d ports (SPD pencil)\n", n, m)

	// Backend comparison on the same reduction.
	for _, backend := range []struct {
		name string
		b    repro.SolverBackend
	}{
		{"direct", repro.BackendAuto},
		{"iterative", repro.BackendIterative},
	} {
		var stats repro.BDSMStats
		t0 := time.Now()
		_, err := repro.ReduceBDSM(sys, repro.BDSMOptions{
			Moments: 6, Backend: backend.b, Stats: &stats,
		})
		if err != nil {
			log.Fatalf("%s: %v", backend.name, err)
		}
		fmt.Printf("%-10s reduce %8v, factor fill %8d nnz, %d solves\n",
			backend.name, time.Since(t0).Round(time.Millisecond),
			stats.FactorNNZ, stats.PencilSolves)
	}

	// Memory scaling: BDSM's streaming peak is flat in the port count;
	// PRIMA's dense basis grows linearly and eventually exceeds the budget.
	fmt.Println("\nworking-set growth with port count (budget 24 MiB):")
	budget := int64(24) << 20
	for _, ports := range []int{8, 32, 128} {
		c := cfg
		c.Ports = ports
		s, err := repro.BuildGrid(c)
		if err != nil {
			log.Fatal(err)
		}
		var stats repro.BDSMStats
		if _, err := repro.ReduceBDSM(s, repro.BDSMOptions{Moments: 6, Workers: 2, Stats: &stats}); err != nil {
			log.Fatal(err)
		}
		_, perr := repro.ReducePRIMA(s, repro.BaselineOptions{Moments: 6, MemoryBudget: budget})
		primaState := "ok"
		if errors.Is(perr, repro.ErrBudgetExceeded) {
			primaState = "BREAK DOWN (dense basis over budget)"
		} else if perr != nil {
			log.Fatal(perr)
		}
		fmt.Printf("m = %4d: BDSM peak basis %6.2f MiB | PRIMA %s\n",
			ports, float64(stats.PeakBasisBytes)/(1<<20), primaState)
	}
}
