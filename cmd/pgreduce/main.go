// Command pgreduce builds a reduced-order model from a SPICE netlist or a
// synthetic benchmark and writes it to disk for later reuse:
//
//	pgreduce -netlist grid.sp -l 6 -out rom.bin
//	pgreduce -grid ckt2 -scale 0.25 -l 10 -out rom.bin
//
// The output is a block-diagonal BDSM ROM (gob-encoded) that pgsim can
// simulate under arbitrary excitations — the paper's reusability workflow.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
)

func main() {
	netlist := flag.String("netlist", "", "SPICE netlist input path")
	gridName := flag.String("grid", "", "synthetic benchmark name (ckt1..ckt5)")
	scale := flag.Float64("scale", 0.25, "benchmark scale factor for -grid")
	l := flag.Int("l", 6, "matched moments per port")
	s0 := flag.Float64("s0", repro.DefaultS0, "Krylov expansion point (rad/s)")
	out := flag.String("out", "rom.bin", "output ROM path")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	iterative := flag.Bool("iterative", false, "use the memory-streaming iterative solver instead of the direct factor")
	wardOn := flag.Bool("ward", true, "run the exact Ward/Schur pre-reduction before the Krylov projection")
	flag.Parse()

	var (
		sys *repro.SparseModel
		err error
	)
	switch {
	case *netlist != "":
		f, ferr := os.Open(*netlist)
		if ferr != nil {
			fatal(ferr)
		}
		nl, perr := repro.ParseNetlist(f)
		f.Close()
		if perr != nil {
			fatal(perr)
		}
		sys, err = repro.FromNetlist(nl)
	case *gridName != "":
		cfg, cerr := repro.Benchmark(*gridName, *scale)
		if cerr != nil {
			fatal(cerr)
		}
		sys, err = repro.BuildGrid(cfg)
	default:
		fmt.Fprintln(os.Stderr, "pgreduce: need -netlist or -grid")
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}

	opts := repro.BDSMOptions{S0: *s0, Moments: *l, Workers: *workers,
		Backend: repro.BackendAuto, WardReduce: *wardOn}
	if *iterative {
		opts.Backend = repro.BackendIterative
	}
	var stats repro.BDSMStats
	opts.Stats = &stats
	rom, err := repro.ReduceBDSM(sys, opts)
	if err != nil {
		fatal(err)
	}
	n, m, p := sys.Dims()
	q, _, _ := rom.Dims()
	fmt.Printf("reduced %d states / %d ports / %d outputs -> order-%d block-diagonal ROM (%d blocks)\n",
		n, m, p, q, len(rom.Blocks))
	if *wardOn {
		fmt.Printf("ward pre-reduction: eliminated %d static states (%d boundary, backend %s)\n",
			stats.Ward.External, stats.Ward.Boundary, stats.Ward.Backend)
	}
	fmt.Printf("pencil solves: %d, ortho dot products: %d, factor fill: %d nnz\n",
		stats.PencilSolves, stats.Ortho.DotProducts, stats.FactorNNZ)

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := repro.SaveROM(f, rom); err != nil {
		fatal(err)
	}
	info, _ := f.Stat()
	fmt.Printf("wrote %s (%d bytes)\n", *out, info.Size())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pgreduce:", err)
	os.Exit(1)
}
