package cra

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flow"
)

// stageBackOff completes an SDGA construction whose next stage failed with
// stageErr. It acts only when that stage is infeasible even at the
// reviewers' full remaining workload and ctx is live; it returns nil
// otherwise, or when no back-off completes. Such a stage arises when the
// earlier stages spent the reviewers a paper still needs: each stage is
// optimal on its own, but the stage partition of Definition 9 does not look
// ahead, so a feasible instance can reach a stage no plan satisfies.
//
// perStage[k][p] is the reviewer stage k gave paper p (negative for none);
// it holds the stages that completed. The back-off keeps a shorter prefix of
// them one stage at a time — all but the last, then all but the last two,
// down to none — and tries to fill every active paper's remaining
// δp − |group| slots with one transportation over the reviewers' remaining
// workloads, at the marginal gains against the prefix groups plus bonus
// (nil for none), as in ProfitSpec. Pairs already assigned, conflicts and
// withdrawn papers are excluded. The empty prefix is the whole instance as
// one transportation, which has a plan whenever the instance is feasible.
// The first prefix that completes wins.
//
// withdrawn may be nil (no paper withdrawn); cands holds the stages'
// candidate lists (nil for every reviewer), and the transportation runs
// through fillSolve as a cold stage does.
func stageBackOff(ctx context.Context, stageErr error, eng *engine.Oracle, perStage [][]int, withdrawn []bool, cands [][]int32, bonus func(p, r int) float64) *core.Assignment {
	if ctx.Err() != nil || !errors.Is(stageErr, flow.ErrInfeasible) {
		return nil
	}
	in := eng.Instance()
	P, R := in.NumPapers(), in.NumReviewers()
	isWithdrawn := func(p int) bool { return withdrawn != nil && withdrawn[p] }
	groupVecs := make([]core.Vector, P)
	for p := range groupVecs {
		groupVecs[p] = make(core.Vector, in.NumTopics())
	}
	rem := make([]int, R)
	need := make([]int, P)
	var m engine.Matrix
	var tr flow.Transport
	for k := len(perStage) - 1; k >= 0; k-- {
		a := core.NewAssignment(P)
		for p := range groupVecs {
			clear(groupVecs[p])
		}
		for r := range rem {
			rem[r] = in.Workload
		}
		for _, stage := range perStage[:k] {
			for p, r := range stage {
				if r >= 0 {
					a.Assign(p, r)
					groupVecs[p].MaxInPlace(in.Reviewers[r].Topics)
					rem[r]--
				}
			}
		}
		for p := range need {
			need[p] = 0
			if !isWithdrawn(p) {
				need[p] = in.GroupSize - len(a.Groups[p])
			}
		}
		for r := range rem {
			rem[r] = max(rem[r], 0)
		}
		spec := engine.ProfitSpec{
			GroupVecs: groupVecs,
			Forbidden: func(p, r int) bool {
				return isWithdrawn(p) || a.Contains(p, r) || in.IsConflict(r, p)
			},
			ForbiddenValue: flow.Forbidden,
			Bonus:          bonus,
		}
		rows, err := fillSolve(ctx, eng, &m, &tr, spec, cands, false, nil, need, rem)
		if err == nil {
			for p, cols := range rows {
				for _, r := range cols {
					a.Assign(p, r)
				}
			}
			return a
		}
		if ctx.Err() != nil {
			return nil
		}
	}
	return nil
}
