package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of per-operation timings.
type samples []time.Duration

// sorted returns a sorted copy.
func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

// median returns the median of s (the mean of the middle pair for even n).
func (s samples) median() time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// tailSamples is how many samples must lie beyond a reported tail
// percentile.
const tailSamples = 10

// tail returns the highest percentile of s that still has tailSamples
// samples beyond it — the (n−10)-th order statistic — with its percentile
// rank. With fewer than 2·tailSamples samples it falls back to the median.
func (s samples) tail() (time.Duration, float64) {
	n := len(s)
	if n < 2*tailSamples {
		return s.median(), 50
	}
	c := s.sorted()
	k := n - tailSamples - 1
	return c[k], 100 * float64(k+1) / float64(n)
}

// overhead is how much slower the traced samples' median is than the
// untraced ones', as a fraction (0 when either side is empty).
func overhead(traced, untraced samples) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	return float64(traced.median())/float64(untraced.median()) - 1
}

// medianFloat returns the median of v.
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func ms(d time.Duration) float64  { return float64(d) / 1e6 }
func us(d time.Duration) float64  { return float64(d) / 1e3 }
func sec(d time.Duration) float64 { return d.Seconds() }

// relErr returns ‖a−b‖_F / ‖b‖_F over equal-length complex vectors.
func relErr(a, b []complex128) float64 {
	var num, den float64
	for i := range b {
		d := a[i] - b[i]
		num += real(d)*real(d) + imag(d)*imag(d)
		den += real(b[i])*real(b[i]) + imag(b[i])*imag(b[i])
	}
	if den == 0 {
		return math.Inf(1)
	}
	return math.Sqrt(num / den)
}
