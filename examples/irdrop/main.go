// Command irdrop demonstrates the ROM-reuse workflow the paper motivates:
// transient IR-drop analysis of a power grid under several different load
// patterns using one BDSM reduced-order model. The ROM is built once, saved
// to disk, reloaded, and simulated under three distinct excitations; every
// run is validated against the unreduced model. An EKS ROM — rebuilt-per-
// pattern by design — is shown failing on a pattern it was not built for.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math"

	"repro"
)

func main() {
	cfg, err := repro.Benchmark("ckt2", 0.15)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := repro.BuildGrid(cfg)
	if err != nil {
		log.Fatal(err)
	}
	n, m, _ := sys.Dims()
	fmt.Printf("grid: %d states, %d load ports\n", n, m)

	// Build the BDSM ROM once and round-trip it through serialization —
	// the "reusable artifact" of the paper.
	rom, err := repro.ReduceBDSM(sys, repro.BDSMOptions{Moments: 6})
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := repro.SaveROM(&buf, rom); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("BDSM ROM saved: %d bytes\n", buf.Len())
	rom, err = repro.LoadROM(&buf)
	if err != nil {
		log.Fatal(err)
	}

	// Three different switching-activity patterns.
	patterns := map[string]repro.Input{
		"uniform clock": repro.UniformInput(repro.Pulse{
			Low: 0, High: 2e-3, Delay: 1e-10, Rise: 5e-11, Width: 4e-10, Fall: 5e-11, Period: 1e-9}),
		"hot corner": func(t float64, u []float64) {
			p := repro.Pulse{Low: 0, High: 5e-3, Delay: 2e-10, Rise: 1e-10, Width: 1e-9, Fall: 1e-10, Period: 2e-9}
			for i := range u {
				if i < len(u)/3 {
					u[i] = p.At(t)
				} else {
					u[i] = 0
				}
			}
		},
		"staggered banks": func(t float64, u []float64) {
			for i := range u {
				p := repro.Pulse{Low: 0, High: 1e-3, Delay: float64(i%4) * 2.5e-10,
					Rise: 5e-11, Width: 3e-10, Fall: 5e-11, Period: 1e-9}
				u[i] = p.At(t)
			}
		},
	}

	opts := repro.TransientOptions{
		Method: repro.Trapezoidal,
		Dt:     5e-12,
		T:      4e-9,
	}
	for name, input := range patterns {
		o := opts
		o.Input = input
		full, err := repro.SimulateFull(sys, o)
		if err != nil {
			log.Fatal(err)
		}
		red, err := repro.SimulateROM(rom, o)
		if err != nil {
			log.Fatal(err)
		}
		node, metrics, err := full.WorstCase(0.02)
		if err != nil {
			log.Fatal(err)
		}
		worstErr := 0.0
		for k := range full.Y {
			for j := range full.Y[k] {
				if e := math.Abs(full.Y[k][j] - red.Y[k][j]); e > worstErr {
					worstErr = e
				}
			}
		}
		fmt.Printf("%-16s worst IR drop %.3f mV at port %d (t=%.2fns, RMS %.3f mV) | ROM error %.2e mV — same ROM, no rebuild\n",
			name+":", metrics.Peak*1e3, node, metrics.PeakTime*1e9, metrics.RMS*1e3, worstErr*1e3)
	}

	// Contrast: an EKS ROM built for the all-ports-switching pattern,
	// evaluated on a pattern it was not built for (half the banks switching
	// up while the other half switch down — nearly orthogonal to the baked
	// all-ones excitation).
	eks, err := repro.ReduceEKS(sys, nil, repro.BaselineOptions{Moments: 8})
	if err != nil {
		log.Fatal(err)
	}
	s := complex(0, 1e9)
	hx, err := sys.Eval(s)
	if err != nil {
		log.Fatal(err)
	}
	he, err := eks.Eval(s)
	if err != nil {
		log.Fatal(err)
	}
	unseen := make([]complex128, m)
	for i := range unseen {
		if i%2 == 0 {
			unseen[i] = 2e-3
		} else {
			unseen[i] = -2e-3
		}
	}
	yx, ye := hx.MulVec(unseen), he.MulVec(unseen)
	num, den := 0.0, 0.0
	for i := range yx {
		d := yx[i] - ye[i]
		num += real(d)*real(d) + imag(d)*imag(d)
		den += real(yx[i])*real(yx[i]) + imag(yx[i])*imag(yx[i])
	}
	fmt.Printf("EKS ROM on unseen pattern: %.0f%% response error — must be rebuilt per pattern\n",
		100*math.Sqrt(num/den))
}
