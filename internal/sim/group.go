package sim

import "fmt"

// GroupOptions configures a StepperGroup. It has no fields.
type GroupOptions struct{}

// StepperGroup advances N Steppers as one call, member by member. The
// block-diagonal ROM lets every session evolve independently, so a group
// shares no pass between its members: each advances through the same
// single-session kernels as a lone Advance, and its trajectory is that of
// calling Advance on the member alone. Members keep full ownership of their
// state between group advances: Snapshot, Restore, and independent Advance
// all remain valid, and members may sit at different step indices.
//
// A StepperGroup is not safe for concurrent use; callers serialize Advance
// the same way they serialize a Stepper.
type StepperGroup struct {
	members []*Stepper
}

// NewStepperGroup checks that the group is non-empty and has no nil or
// repeated member.
func NewStepperGroup(members []*Stepper, _ GroupOptions) (*StepperGroup, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("sim: stepper group needs at least one member")
	}
	seen := make(map[*Stepper]bool, len(members))
	for i, st := range members {
		if st == nil {
			return nil, fmt.Errorf("sim: group member %d is nil", i)
		}
		if seen[st] {
			return nil, fmt.Errorf("sim: group member %d appears more than once", i)
		}
		seen[st] = true
	}
	return &StepperGroup{members: members}, nil
}

// Size returns the member count.
func (g *StepperGroup) Size() int { return len(g.members) }

// Advance integrates every member n further steps, member s driven by
// inputs[s] at its own absolute session time, and returns one Result per
// member — what members[s].Advance(n, inputs[s]) would have produced.
func (g *StepperGroup) Advance(n int, inputs []Input) ([]*Result, error) {
	if n < 0 {
		return nil, fmt.Errorf("sim: cannot advance %d steps", n)
	}
	if len(inputs) != len(g.members) {
		return nil, fmt.Errorf("sim: group advance got %d inputs for %d members", len(inputs), len(g.members))
	}
	for s, in := range inputs {
		if in == nil {
			return nil, fmt.Errorf("sim: group member %d input waveform is required", s)
		}
	}
	results := make([]*Result, len(g.members))
	for s, st := range g.members {
		results[s] = newResult(n, st.p)
		if n > 0 {
			st.advanceInto(n, inputs[s], results[s])
		}
	}
	return results, nil
}

// Close releases nothing: a group holds no goroutines or buffers of its
// own.
func (g *StepperGroup) Close() {}
