package cra

import (
	"context"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flow"
)

// fillMissingSlots completes an assignment in which some papers have fewer
// than δp reviewers, by solving one transportation problem over the open
// slots: every under-filled paper demands its missing reviewers, reviewers
// offer their remaining capacity, and the total marginal gain is maximised.
// It is a no-op for complete assignments.
func fillMissingSlots(ctx context.Context, eng *engine.Oracle, a *core.Assignment, rem []int) error {
	in := eng.Instance()
	P := in.NumPapers()
	need := make([]int, P)
	total := 0
	for p := 0; p < P; p++ {
		need[p] = max(in.GroupSize-len(a.Groups[p]), 0)
		total += need[p]
	}
	if total == 0 {
		return nil
	}
	groupVecs := make([]core.Vector, P)
	for p := 0; p < P; p++ {
		groupVecs[p] = in.GroupVector(a.Groups[p])
	}
	spec := engine.ProfitSpec{
		GroupVecs: groupVecs,
		Forbidden: func(p, r int) bool {
			return need[p] == 0 || rem[r] <= 0 || a.Contains(p, r) || in.IsConflict(r, p)
		},
		ForbiddenValue: flow.Forbidden,
	}
	var m engine.Matrix
	var tr flow.Transport
	rows, err := fillSolve(ctx, eng, &m, &tr, spec, nil, false, nil, need, rem)
	if err != nil {
		return err
	}
	for p, cols := range rows {
		for _, r := range cols {
			a.Assign(p, r)
			rem[r]--
		}
	}
	return nil
}

// completeAssignment fills every open slot of a partial assignment. It first
// tries the transportation fill of fillMissingSlots; if that is infeasible —
// e.g. a greedy run painted itself into a corner where the only reviewers
// with spare capacity already sit in the paper's group — it falls back to a
// swap-based repair: move a loaded reviewer from another paper to the stuck
// one and backfill the donor paper with a reviewer that still has capacity.
func completeAssignment(ctx context.Context, eng *engine.Oracle, a *core.Assignment, rem []int) error {
	err := fillMissingSlots(ctx, eng, a, rem)
	if err == nil {
		return nil
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	in := eng.Instance()
	P := in.NumPapers()
	for guard := 0; guard < P*in.GroupSize+1; guard++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		progress := false
		done := true
		for p := 0; p < P; p++ {
			for len(a.Groups[p]) < in.GroupSize {
				done = false
				if directFill(eng, a, rem, p) || swapFill(in, a, rem, p) {
					progress = true
					continue
				}
				break
			}
		}
		if done {
			return nil
		}
		if !progress {
			return ErrInsufficientCapacity
		}
	}
	return ErrInsufficientCapacity
}

// directFill adds the highest-gain feasible reviewer to paper p, if any.
func directFill(eng *engine.Oracle, a *core.Assignment, rem []int, p int) bool {
	in := eng.Instance()
	gv := in.GroupVector(a.Groups[p])
	best, bestGain := -1, -1.0
	for r := 0; r < in.NumReviewers(); r++ {
		if !feasiblePair(in, a, rem, r, p) {
			continue
		}
		if g := eng.Gain(p, gv, r); g > bestGain {
			best, bestGain = r, g
		}
	}
	if best == -1 {
		return false
	}
	a.Assign(p, best)
	rem[best]--
	return true
}

// swapFill frees a slot for paper p by relocating a reviewer u from some
// donor paper q to p and backfilling q with a reviewer that still has spare
// capacity. Returns true when a swap was applied.
func swapFill(in *core.Instance, a *core.Assignment, rem []int, p int) bool {
	for q := 0; q < in.NumPapers(); q++ {
		if q == p {
			continue
		}
		for _, u := range a.Groups[q] {
			// u moves from q to p.
			if a.Contains(p, u) || in.IsConflict(u, p) {
				continue
			}
			// Find a backfill reviewer for q.
			for w := 0; w < in.NumReviewers(); w++ {
				if w == u || rem[w] <= 0 || a.Contains(q, w) || in.IsConflict(w, q) {
					continue
				}
				a.Remove(q, u)
				a.Assign(q, w)
				a.Assign(p, u)
				rem[w]--
				return true
			}
		}
	}
	return false
}
