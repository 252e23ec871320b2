package lti

import "sync/atomic"

// Package-wide evaluation telemetry. The counters are batched atomic adds on
// paths that each do at least O(l²) arithmetic, so the overhead is noise;
// they let tests and library callers see how much work the modal fast path
// removes — pencil factorizations performed, and evaluations served
// modally versus through LU factors.
//
// The unit of ModalEvals and FactoredEvals is one (block, frequency)
// evaluation, attributed to the path that actually served it. A partially
// modal model therefore splits a single column evaluation across both
// counters — the modal blocks count as modal evals, the LU-fallback blocks as
// factored evals — and the two always sum exactly to the number of block
// evaluations performed.
var (
	ctrFactorizations atomic.Int64
	ctrFactoredEvals  atomic.Int64
	ctrModalEvals     atomic.Int64
)

// EvalCounters is a snapshot of the package's evaluation telemetry.
type EvalCounters struct {
	// Factorizations counts block pencil LU factorizations (the O(l³)
	// step the modal form eliminates).
	Factorizations int64 `json:"factorizations"`
	// FactoredEvals counts per-(block, frequency) evaluations through a
	// one-shot LU of the block pencil; ModalEvals counts per-(block, frequency)
	// evaluations through pole–residue forms. Each block is attributed to
	// the path that actually evaluated it, so the two sum exactly to the
	// block evaluations performed even on partially modal models.
	FactoredEvals int64 `json:"factored_evals"`
	ModalEvals    int64 `json:"modal_evals"`
}

// Counters returns the current telemetry snapshot.
func Counters() EvalCounters {
	return EvalCounters{
		Factorizations: ctrFactorizations.Load(),
		FactoredEvals:  ctrFactoredEvals.Load(),
		ModalEvals:     ctrModalEvals.Load(),
	}
}

// ResetCounters zeroes the telemetry, returning the snapshot from before the
// reset. Tests bracket the evaluations they count with it.
func ResetCounters() EvalCounters {
	c := EvalCounters{
		Factorizations: ctrFactorizations.Swap(0),
		FactoredEvals:  ctrFactoredEvals.Swap(0),
		ModalEvals:     ctrModalEvals.Swap(0),
	}
	return c
}
