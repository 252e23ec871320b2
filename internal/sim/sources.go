// Package sim provides the time- and frequency-domain simulation engine of
// the library: fixed-step backward-Euler and trapezoidal transient
// integration for full sparse models, dense ROMs and block-diagonal BDSM
// ROMs, plus standard source waveforms and an AC sweep driver.
package sim

import (
	"fmt"
	"math"
	"sort"
)

// Source is a scalar waveform u(t).
type Source interface {
	// At returns the source value at time t ≥ 0.
	At(t float64) float64
}

// DC is a constant source.
type DC float64

// At returns the constant value.
func (d DC) At(float64) float64 { return float64(d) }

// Step switches from 0 to Amplitude at Delay.
type Step struct {
	Amplitude float64
	Delay     float64
}

// At returns the step waveform value.
func (s Step) At(t float64) float64 {
	if t >= s.Delay {
		return s.Amplitude
	}
	return 0
}

// Pulse is a SPICE-style trapezoidal pulse train.
type Pulse struct {
	Low, High         float64
	Delay, Rise, Fall float64
	Width, Period     float64
}

// At returns the pulse waveform value.
func (p Pulse) At(t float64) float64 {
	if t < p.Delay {
		return p.Low
	}
	tt := t - p.Delay
	if p.Period > 0 {
		tt = math.Mod(tt, p.Period)
	}
	switch {
	case tt < p.Rise:
		if p.Rise == 0 {
			return p.High
		}
		return p.Low + (p.High-p.Low)*tt/p.Rise
	case tt < p.Rise+p.Width:
		return p.High
	case tt < p.Rise+p.Width+p.Fall:
		if p.Fall == 0 {
			return p.Low
		}
		return p.High - (p.High-p.Low)*(tt-p.Rise-p.Width)/p.Fall
	default:
		return p.Low
	}
}

// Sine is a sinusoidal source with optional delay.
type Sine struct {
	Offset, Amplitude, Freq, Delay float64
}

// At returns the sine waveform value.
func (s Sine) At(t float64) float64 {
	if t < s.Delay {
		return s.Offset
	}
	return s.Offset + s.Amplitude*math.Sin(2*math.Pi*s.Freq*(t-s.Delay))
}

// PWL is a piecewise-linear waveform through (T[i], V[i]) breakpoints.
type PWL struct {
	T, V []float64
}

// NewPWL validates and constructs a piecewise-linear source.
func NewPWL(t, v []float64) (*PWL, error) {
	if len(t) != len(v) || len(t) == 0 {
		return nil, fmt.Errorf("sim: PWL needs equal-length nonempty breakpoints, got %d/%d", len(t), len(v))
	}
	if !sort.Float64sAreSorted(t) {
		return nil, fmt.Errorf("sim: PWL breakpoint times must be nondecreasing")
	}
	return &PWL{T: append([]float64(nil), t...), V: append([]float64(nil), v...)}, nil
}

// At returns the piecewise-linear waveform value (clamped at the ends).
func (p *PWL) At(t float64) float64 {
	if t <= p.T[0] {
		return p.V[0]
	}
	n := len(p.T)
	if t >= p.T[n-1] {
		return p.V[n-1]
	}
	i := sort.SearchFloat64s(p.T, t)
	// p.T[i-1] < t ≤ p.T[i]
	t0, t1 := p.T[i-1], p.T[i]
	if t1 == t0 {
		return p.V[i]
	}
	return p.V[i-1] + (p.V[i]-p.V[i-1])*(t-t0)/(t1-t0)
}

// Input drives all m ports: it fills u with the port values at time t.
type Input func(t float64, u []float64)

// Sources bundles one Source per port into an Input.
func Sources(srcs []Source) Input {
	return func(t float64, u []float64) {
		for i, s := range srcs {
			u[i] = s.At(t)
		}
	}
}

// UniformInput drives every port with the same waveform.
func UniformInput(s Source) Input {
	return func(t float64, u []float64) {
		v := s.At(t)
		for i := range u {
			u[i] = v
		}
	}
}
