package cra

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/lap"
)

// hungarianSDGA is the reference stage solver of the SDGA tests: the
// classic Stage-WGRAP formulation of Section 4.2, which expands every
// reviewer into its per-stage capacity of identical columns and solves each
// stage with the Hungarian algorithm. Its stage loop has no tie-break; like
// Session.runStage it falls back to the reviewers' full remaining workload
// when the per-stage caps leave a stage infeasible, and completes a stage
// that is infeasible even then with stageBackOff.
type hungarianSDGA struct{}

// Name implements Algorithm.
func (hungarianSDGA) Name() string { return "SDGA-Hungarian" }

// Assign implements Algorithm.
func (h hungarianSDGA) Assign(in *core.Instance) (*core.Assignment, error) {
	return h.AssignContext(context.Background(), in)
}

// AssignContext implements Algorithm.
func (hungarianSDGA) AssignContext(ctx context.Context, instance *core.Instance) (*core.Assignment, error) {
	in, err := prepare(instance)
	if err != nil {
		return nil, err
	}
	eng := engine.New(in)
	P, R := in.NumPapers(), in.NumReviewers()
	a := core.NewAssignment(P)
	groupVecs := make([]core.Vector, P)
	for p := range groupVecs {
		groupVecs[p] = make(core.Vector, in.NumTopics())
	}
	rem := make([]int, R)
	for r := range rem {
		rem[r] = in.Workload
	}
	var m engine.Matrix
	solve := func(limit int) ([]int, error) {
		caps := make([]int, R)
		var exhausted []int
		for r := range caps {
			caps[r] = max(min(limit, rem[r]), 0)
			if caps[r] == 0 {
				exhausted = append(exhausted, r)
			}
		}
		spec := engine.ProfitSpec{
			GroupVecs:      groupVecs,
			ForbiddenCols:  forbidGroups(in, a, func(int) bool { return true }, exhausted),
			ForbiddenValue: flow.Forbidden,
		}
		if err := eng.FillProfit(ctx, &m, spec); err != nil {
			return nil, err
		}
		return stageHungarian(m.Rows(), caps)
	}
	var perStage [][]int
	for stage := 0; stage < in.GroupSize; stage++ {
		perPaper, err := solve(in.StageWorkload())
		if err != nil && ctx.Err() == nil && in.Workload > in.StageWorkload() {
			perPaper, err = solve(in.Workload)
		}
		if err != nil {
			if b := stageBackOff(ctx, err, eng, perStage, nil, nil, false); b != nil {
				return b, nil
			}
			return nil, err
		}
		for p, r := range perPaper {
			a.Assign(p, r)
			groupVecs[p].MaxInPlace(in.Reviewers[r].Topics)
			rem[r]--
		}
		perStage = append(perStage, perPaper)
	}
	return a, nil
}

// stageHungarian expands each reviewer into caps[r] identical columns and
// solves the resulting rectangular assignment with the Hungarian algorithm.
// An infeasible stage fails with flow.ErrInfeasible, the error stageBackOff
// acts on.
func stageHungarian(profit [][]float64, caps []int) ([]int, error) {
	P := len(profit)
	var colOwner []int
	for r, c := range caps {
		for k := 0; k < c; k++ {
			colOwner = append(colOwner, r)
		}
	}
	if len(colOwner) < P {
		return nil, flow.ErrInfeasible
	}
	expanded := make([][]float64, P)
	for p := 0; p < P; p++ {
		expanded[p] = make([]float64, len(colOwner))
		for j, r := range colOwner {
			expanded[p][j] = profit[p][r] // flow.Forbidden == lap.Forbidden == −Inf
		}
	}
	rows, _, err := lap.MaximizeRect(expanded)
	if errors.Is(err, lap.ErrInfeasible) {
		return nil, flow.ErrInfeasible
	}
	if err != nil {
		return nil, err
	}
	out := make([]int, P)
	for p, j := range rows {
		out[p] = colOwner[j]
	}
	return out, nil
}

// BenchmarkAblationStageSolver compares the Stage-WGRAP formulations on one
// conference (P=120, R=25, T=30, δp=3): SDGA's session stage loop, one
// transportation solve per stage, against the Hungarian column expansion.
func BenchmarkAblationStageSolver(b *testing.B) {
	in := randomConference(rand.New(rand.NewSource(8)), 120, 25, 30, 3)
	for _, v := range []struct {
		name string
		alg  Algorithm
	}{
		{"session", SDGA{}},
		{"hungarian", hungarianSDGA{}},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := v.alg.Assign(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
