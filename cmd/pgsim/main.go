// Command pgsim simulates a saved block-diagonal ROM (from pgreduce) in the
// time or frequency domain:
//
//	pgsim -rom rom.bin -tran -dt 5e-12 -T 4e-9 -pulse 1m        transient CSV
//	pgsim -rom rom.bin -ac -row 0 -col 1 -points 41             AC sweep CSV
//
// Transient excitation applies the same pulse to every port (use the library
// API for per-port waveforms); output is CSV on stdout.
package main

import (
	"flag"
	"fmt"
	"math/cmplx"
	"os"

	"repro"
)

func main() {
	romPath := flag.String("rom", "rom.bin", "ROM path from pgreduce")
	tran := flag.Bool("tran", false, "run a transient simulation")
	ac := flag.Bool("ac", false, "run an AC sweep")
	dt := flag.Float64("dt", 5e-12, "transient step (s)")
	tEnd := flag.Float64("T", 4e-9, "transient end time (s)")
	amp := flag.Float64("pulse", 1e-3, "pulse amplitude (A) applied to all ports")
	row := flag.Int("row", 0, "AC output port (0-based)")
	col := flag.Int("col", 0, "AC input port (0-based)")
	wMin := flag.Float64("wmin", 1e5, "AC sweep start (rad/s)")
	wMax := flag.Float64("wmax", 1e15, "AC sweep end (rad/s)")
	points := flag.Int("points", 41, "AC sweep points")
	flag.Parse()

	f, err := os.Open(*romPath)
	if err != nil {
		fatal(err)
	}
	rom, err := repro.LoadROM(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	q, m, p := rom.Dims()
	fmt.Fprintf(os.Stderr, "pgsim: loaded order-%d ROM, %d inputs, %d outputs\n", q, m, p)

	switch {
	case *tran:
		res, err := repro.SimulateROM(rom, repro.TransientOptions{
			Method: repro.Trapezoidal,
			Dt:     *dt,
			T:      *tEnd,
			Input: repro.UniformInput(repro.Pulse{
				Low: 0, High: *amp, Delay: *tEnd / 20, Rise: *tEnd / 40,
				Width: *tEnd / 4, Fall: *tEnd / 40, Period: *tEnd,
			}),
		})
		if err != nil {
			fatal(err)
		}
		fmt.Print("t")
		for j := 0; j < p; j++ {
			fmt.Printf(",y%d", j)
		}
		fmt.Println()
		for k := range res.T {
			fmt.Printf("%.6e", res.T[k])
			for _, v := range res.Y[k] {
				fmt.Printf(",%.6e", v)
			}
			fmt.Println()
		}
	case *ac:
		pts, err := repro.ACSweep(rom, *row, *col, *wMin, *wMax, *points)
		if err != nil {
			fatal(err)
		}
		fmt.Println("omega,mag,re,im")
		for _, pt := range pts {
			fmt.Printf("%.6e,%.6e,%.6e,%.6e\n", pt.Omega, cmplx.Abs(pt.H), real(pt.H), imag(pt.H))
		}
	default:
		fmt.Fprintln(os.Stderr, "pgsim: need -tran or -ac")
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pgsim:", err)
	os.Exit(1)
}
