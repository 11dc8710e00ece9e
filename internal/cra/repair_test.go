package cra

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// stuckInstance builds a partial assignment in which the only reviewer with
// spare capacity already sits in the stuck paper's group, so a plain fill is
// infeasible and the swap-based repair must be used.
func stuckInstance() (*core.Instance, *core.Assignment, []int) {
	papers := []core.Paper{
		{ID: "p0", Topics: core.Vector{1, 0}},
		{ID: "p1", Topics: core.Vector{0, 1}},
	}
	reviewers := []core.Reviewer{
		{ID: "r0", Topics: core.Vector{1, 0}},
		{ID: "r1", Topics: core.Vector{0, 1}},
		{ID: "r2", Topics: core.Vector{0.5, 0.5}},
	}
	// p1 misses one reviewer and the only spare capacity belongs to r2,
	// which is already in p1's group, so a direct fill is impossible.
	b := core.NewAssignment(2)
	b.Assign(0, 0)
	b.Assign(0, 1)
	b.Assign(1, 2)
	// loads: r0=1, r1=1, r2=1; rem with δr=2: r0=1, r1=1, r2=1 — direct fill
	// possible. To force the swap, shrink the workload to 1 for everyone
	// except r2.
	in2 := core.NewInstance(papers, reviewers, 2, 1)
	rem := []int{0, 0, 1} // only r2 has capacity left, but it is in p1's group
	return in2, b, rem
}

func TestCompleteAssignmentUsesSwapRepair(t *testing.T) {
	in, a, rem := stuckInstance()
	if err := completeAssignment(context.Background(), engine.New(in), a, rem); err != nil {
		t.Fatalf("swap repair failed: %v", err)
	}
	// Every paper must now have exactly δp distinct reviewers and loads must
	// respect the remaining-capacity bookkeeping passed in.
	for p, g := range a.Groups {
		if len(g) != in.GroupSize {
			t.Fatalf("paper %d has %d reviewers after repair", p, len(g))
		}
		seen := map[int]bool{}
		for _, r := range g {
			if seen[r] {
				t.Fatalf("paper %d has duplicate reviewer %d", p, r)
			}
			seen[r] = true
		}
	}
}

func TestCompleteAssignmentReportsImpossible(t *testing.T) {
	// One paper needing two reviewers but only one exists: no repair can fix
	// that, so the helper must fail rather than loop.
	papers := []core.Paper{{Topics: core.Vector{1}}}
	reviewers := []core.Reviewer{{Topics: core.Vector{1}}}
	in := core.NewInstance(papers, reviewers, 2, 2)
	a := core.NewAssignment(1)
	a.Assign(0, 0)
	rem := []int{1}
	if err := completeAssignment(context.Background(), engine.New(in), a, rem); err == nil {
		t.Fatal("impossible completion did not fail")
	}
}

func TestDirectFillPrefersHighestGain(t *testing.T) {
	papers := []core.Paper{{Topics: core.Vector{0.5, 0.5}}}
	reviewers := []core.Reviewer{
		{Topics: core.Vector{0.9, 0.0}},
		{Topics: core.Vector{0.5, 0.5}},
	}
	in := core.NewInstance(papers, reviewers, 1, 1)
	a := core.NewAssignment(1)
	rem := []int{1, 1}
	if !directFill(engine.New(in), a, rem, 0) {
		t.Fatal("directFill found no candidate")
	}
	if !a.Contains(0, 1) {
		t.Fatalf("directFill picked %v, want the fully covering reviewer 1", a.Groups[0])
	}
	if rem[1] != 0 {
		t.Fatal("remaining capacity not decremented")
	}
}

func TestFillMissingSlotsNoOpOnCompleteAssignment(t *testing.T) {
	in, _, _ := stuckInstance()
	full := core.NewAssignment(2)
	full.Assign(0, 0)
	full.Assign(0, 1)
	full.Assign(1, 1)
	full.Assign(1, 2)
	rem := []int{1, 0, 0}
	before := full.Clone()
	if err := fillMissingSlots(context.Background(), engine.New(in), full, rem); err != nil {
		t.Fatal(err)
	}
	for p := range before.Groups {
		if len(before.Groups[p]) != len(full.Groups[p]) {
			t.Fatal("fillMissingSlots modified a complete assignment")
		}
	}
}
