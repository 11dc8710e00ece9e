package cra

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/ilp"
	"repro/internal/lp"
)

// exactPairILP is the reference of the ARAP tests: it solves PairILP's
// program as a genuine 0/1 integer program with internal/ilp, warm-started
// with PairILP's transportation plan as its incumbent, and returns that
// solution. It validates the total-unimodularity shortcut on small
// instances (the branch-and-bound search has P·R binary variables).
type exactPairILP struct{}

// Name implements Algorithm.
func (exactPairILP) Name() string { return "ILP-exact" }

// Assign implements Algorithm.
func (e exactPairILP) Assign(in *core.Instance) (*core.Assignment, error) {
	return e.AssignContext(context.Background(), in)
}

// AssignContext implements Algorithm.
func (exactPairILP) AssignContext(ctx context.Context, instance *core.Instance) (*core.Assignment, error) {
	in, err := prepare(instance)
	if err != nil {
		return nil, err
	}
	incumbent, err := PairILP{}.AssignContext(ctx, in)
	if err != nil {
		return nil, err
	}
	P, R := in.NumPapers(), in.NumReviewers()
	profit := make([][]float64, P)
	need := make([]int, P)
	for p := range profit {
		profit[p] = make([]float64, R)
		for r := range profit[p] {
			profit[p][r] = in.PairScore(r, p)
			if in.IsConflict(r, p) {
				profit[p][r] = flow.Forbidden
			}
		}
		need[p] = in.GroupSize
	}
	caps := make([]int, R)
	for r := range caps {
		caps[r] = in.Workload
	}
	rows, err := pairILPExact(profit, need, caps, incumbent.Groups)
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
// assignment, the objective PairILP maximises.
func PairObjective(in *core.Instance, a *core.Assignment) float64 {
	s := 0.0
	for p := range a.Groups {
		for _, r := range a.Groups[p] {
			s += in.PairScore(r, p)
		}
	}
	return s
}
