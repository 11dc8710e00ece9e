package cra

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/ilp"
	"repro/internal/lp"
)

// PairILP is the "ILP" baseline of the experiments (Section 5.2): it
// maximises the pair-additive ARAP objective Σ_p Σ_{r∈A[p]} c(r, p) subject
// to the WGRAP constraints. Because that objective is linear in the
// individual assignment pairs, the integer program's constraint matrix is
// totally unimodular and the exact optimum is obtained by a single
// transportation (min-cost flow) solve — no branching is needed. As the
// paper notes, optimising pairs individually ignores the diversity of the
// group assigned to each paper, which is why it loses to SDGA on the
// group-coverage metric.
type PairILP struct {
	// ViaILP additionally solves the ARAP program as a genuine 0/1 integer
	// program with internal/ilp, warm-started with the transportation
	// solution as its incumbent, and returns that solution. It exists to
	// validate the total-unimodularity shortcut on small instances (the
	// branch-and-bound search has P·R binary variables) and is exercised by
	// the parity tests; production callers should leave it false.
	ViaILP bool
}

// Name implements Algorithm.
func (PairILP) Name() string { return "ILP" }

// Assign implements Algorithm.
func (i PairILP) Assign(instance *core.Instance) (*core.Assignment, error) {
	return i.AssignContext(context.Background(), instance)
}

// AssignContext implements Algorithm; the P×R pair-score matrix is built in
// parallel by the gain oracle.
func (i PairILP) AssignContext(ctx context.Context, instance *core.Instance) (*core.Assignment, error) {
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
	spec := engine.ProfitSpec{
		Forbidden:      func(p, r int) bool { return in.IsConflict(r, p) },
		ForbiddenValue: flow.Forbidden,
	}
	if err := eng.FillProfit(ctx, &m, spec); err != nil {
		return nil, err
	}
	rows, _, err := flow.MaxProfitTransport(m.Rows(), need, caps)
	if err != nil {
		return nil, err
	}
	if i.ViaILP {
		rows, err = pairILPExact(m.Rows(), need, caps, rows)
		if err != nil {
			return nil, err
		}
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

// pairILPExact solves the ARAP program as a 0/1 integer program: binary
// x[p][r], Σ_r x[p][r] = δp per paper, Σ_p x[p][r] ≤ δr per reviewer,
// maximise Σ profit·x. The transportation solution seeds the branch-and-bound
// incumbent, so the search only explores nodes that could beat it — which,
// total unimodularity holding, is none.
func pairILPExact(profit [][]float64, need, caps []int, incumbent [][]int) ([][]int, error) {
	P := len(profit)
	R := 0
	if P > 0 {
		R = len(profit[0])
	}
	xVar := func(p, r int) int { return p*R + r }
	prob := ilp.NewProblem(P * R)
	for p := 0; p < P; p++ {
		for r := 0; r < R; r++ {
			prob.SetKind(xVar(p, r), ilp.Binary)
			if math.IsInf(profit[p][r], -1) {
				prob.LP.SetUpperBound(xVar(p, r), 0)
			} else {
				prob.LP.Objective[xVar(p, r)] = profit[p][r]
			}
		}
	}
	for p := 0; p < P; p++ {
		row := make([]float64, P*R)
		for r := 0; r < R; r++ {
			row[xVar(p, r)] = 1
		}
		prob.LP.AddConstraint(row, lp.EQ, float64(need[p]))
	}
	for r := 0; r < R; r++ {
		row := make([]float64, P*R)
		for p := 0; p < P; p++ {
			row[xVar(p, r)] = 1
		}
		prob.LP.AddConstraint(row, lp.LE, float64(caps[r]))
	}
	seed := make([]float64, P*R)
	for p, cols := range incumbent {
		for _, r := range cols {
			seed[xVar(p, r)] = 1
		}
	}
	sol, err := prob.Solve(ilp.Options{Incumbent: seed})
	if err != nil {
		return nil, err
	}
	rows := make([][]int, P)
	for p := 0; p < P; p++ {
		for r := 0; r < R; r++ {
			if math.Round(sol.X[xVar(p, r)]) == 1 {
				rows[p] = append(rows[p], r)
			}
		}
	}
	return rows, nil
}

// PairObjective returns the ARAP objective value Σ_p Σ_{r∈A[p]} c(r, p) of an
// assignment; used by tests to check PairILP's optimality.
func PairObjective(in *core.Instance, a *core.Assignment) float64 {
	s := 0.0
	for p := range a.Groups {
		for _, r := range a.Groups[p] {
			s += in.PairScore(r, p)
		}
	}
	return s
}
