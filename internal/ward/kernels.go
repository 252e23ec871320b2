package ward

import "repro/internal/sparse"

// Schur inner kernel. It runs once per boundary column per panel solve and
// is, with the G_KE panel product, the only per-element work the
// elimination adds on top of the factorization backends, so it is held to
// the same zero-allocation standard as the sparse triangular solves it
// feeds (pglint noalloc + alloctest).

// schurScatter accumulates the sparse column (rows, vals) into lane 0 of the
// panel x (pass x[k:] for lane k): x[rows[i]·PanelWidth] += vals[i]. The
// caller zeroes x beforehand; accumulation (rather than assignment) keeps
// duplicate row entries correct.
//
//go:noinline
//pgmor:noalloc
func schurScatter(x []float64, rows []int, vals []float64) {
	for i, r := range rows {
		x[r*sparse.PanelWidth] += vals[i]
	}
}
