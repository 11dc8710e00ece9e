package cra

import (
	"context"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flow"
)

// PairILP is the "ILP" baseline of the experiments (Section 5.2): it
// maximises the pair-additive ARAP objective Σ_p Σ_{r∈A[p]} c(r, p) subject
// to the WGRAP constraints. Because that objective is linear in the
// individual assignment pairs, the integer program's constraint matrix is
// totally unimodular and the exact optimum is obtained by a single
// transportation (min-cost flow) solve — no branching is needed. As the
// paper notes, optimising pairs individually ignores the diversity of the
// group assigned to each paper, which is why it loses to SDGA on the
// group-coverage metric. The package tests check the shortcut against the
// genuine 0/1 integer program.
type PairILP struct{}

// Name implements Algorithm.
func (PairILP) Name() string { return "ILP" }

// Assign implements Algorithm.
func (i PairILP) Assign(instance *core.Instance) (*core.Assignment, error) {
	return i.AssignContext(context.Background(), instance)
}

// AssignContext implements Algorithm; the P×R pair-score matrix is built in
// parallel by the gain oracle.
func (PairILP) AssignContext(ctx context.Context, instance *core.Instance) (*core.Assignment, error) {
	in, err := prepare(instance)
	if err != nil {
		return nil, err
	}
	eng := engine.New(in)
	P, R := in.NumPapers(), in.NumReviewers()
	need := make([]int, P)
	caps := make([]int, R)
	for r := 0; r < R; r++ {
		caps[r] = in.Workload
	}
	for p := 0; p < P; p++ {
		need[p] = in.GroupSize
	}
	var m engine.Matrix
	var tr flow.Transport
	spec := engine.ProfitSpec{
		ForbiddenCols: func(p int, cols []int) ([]int, bool) {
			return append(cols, in.PaperConflicts(p)...), false
		},
		ForbiddenValue: flow.Forbidden,
	}
	rows, err := fillSolve(ctx, eng, &m, &tr, spec, nil, false, nil, need, caps)
	if err != nil {
		return nil, err
	}
	a := core.NewAssignment(P)
	for p, cols := range rows {
		for _, r := range cols {
			a.Assign(p, r)
		}
	}
	if err := in.ValidateAssignment(a); err != nil {
		return nil, err
	}
	return a, nil
}
