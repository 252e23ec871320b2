// Package cpuid probes the CPU once, at start-up, for the vector extension
// the repository's assembly kernels use. It is the one place that executes
// CPUID: internal/sim and internal/sparse read AVX2 to pick between their
// AVX2 kernels and the pure-Go references.
package cpuid

// AVX2 reports that the CPU implements AVX2 and the operating system saves
// the 256-bit YMM state. It is false off amd64 and under the purego build
// tag, where no assembly is built.
var AVX2 = hasAVX2()
