package cra

import (
	"context"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
)

// StableMatching is the SM baseline of Section 5.2: a capacitated
// (many-to-many) Gale–Shapley deferred-acceptance procedure in which papers
// propose to reviewers in descending order of pair coverage and reviewers
// hold their best δr proposals. The result is stable with respect to the
// individual pair scores, but — as the paper points out — it ignores the
// group-coverage quality of each paper's reviewer set.
type StableMatching struct{}

// Name implements Algorithm.
func (StableMatching) Name() string { return "SM" }

// Assign implements Algorithm.
func (s StableMatching) Assign(instance *core.Instance) (*core.Assignment, error) {
	return s.AssignContext(context.Background(), instance)
}

// AssignContext implements Algorithm. It runs paper-proposing deferred
// acceptance and then fills any quota the stable phase left open (stability
// with full quotas is not always achievable; WGRAP's group-size constraint
// is hard, so the open slots are completed by a maximum-gain fill).
func (StableMatching) AssignContext(ctx context.Context, instance *core.Instance) (*core.Assignment, error) {
	in, err := prepare(instance)
	if err != nil {
		return nil, err
	}
	eng := engine.New(in)
	a, err := deferredAcceptance(ctx, eng)
	if err != nil {
		return nil, err
	}
	rem := remainingCapacity(in, a)
	if err := completeAssignment(ctx, eng, a, rem); err != nil {
		return nil, err
	}
	if err := in.ValidateAssignment(a); err != nil {
		return nil, err
	}
	return a, nil
}

// deferredAcceptance runs the capacitated paper-proposing Gale–Shapley phase
// and returns the (possibly quota-deficient) stable matching. The P×R pair
// scores behind both sides' preferences come from one parallel oracle fill.
func deferredAcceptance(ctx context.Context, eng *engine.Oracle) (*core.Assignment, error) {
	in := eng.Instance()
	P, R := in.NumPapers(), in.NumReviewers()

	var pairs engine.Matrix
	if err := eng.FillProfit(ctx, &pairs, engine.ProfitSpec{}); err != nil {
		return nil, err
	}
	pairScore := pairs.Rows()

	// Paper preference lists: reviewers in descending pair score, skipping
	// conflicts.
	prefs := make([][]int, P)
	for p := 0; p < P; p++ {
		list := make([]int, 0, R)
		for r := 0; r < R; r++ {
			if !in.IsConflict(r, p) {
				list = append(list, r)
			}
		}
		scores := pairScore[p]
		sort.SliceStable(list, func(i, j int) bool { return scores[list[i]] > scores[list[j]] })
		prefs[p] = list
	}
	// next[p] is the position in prefs[p] of the next reviewer to propose to.
	next := make([]int, P)
	// held[r] is the set of papers reviewer r currently holds.
	held := make([][]int, R)
	assignedCount := make([]int, P)

	// Papers that still need reviewers and can still propose.
	pending := make([]int, 0, P)
	for p := 0; p < P; p++ {
		pending = append(pending, p)
	}
	for len(pending) > 0 {
		p := pending[0]
		pending = pending[1:]
		for assignedCount[p] < in.GroupSize && next[p] < len(prefs[p]) {
			r := prefs[p][next[p]]
			next[p]++
			held[r] = append(held[r], p)
			assignedCount[p]++
			if len(held[r]) <= in.Workload {
				continue
			}
			// Reviewer over capacity: reject the worst held paper.
			worst := 0
			for i := 1; i < len(held[r]); i++ {
				if pairScore[held[r][i]][r] < pairScore[held[r][worst]][r] {
					worst = i
				}
			}
			rejected := held[r][worst]
			held[r] = append(held[r][:worst], held[r][worst+1:]...)
			assignedCount[rejected]--
			if rejected != p {
				pending = append(pending, rejected)
			}
		}
	}

	a := core.NewAssignment(P)
	for r := 0; r < R; r++ {
		for _, p := range held[r] {
			a.Assign(p, r)
		}
	}
	return a, nil
}

// BlockingPairs returns the reviewer-paper pairs that would both prefer each
// other over someone they are currently matched with; a stable matching has
// none. Only the package tests call it: it checks the stable-matching phase
// of the SM baseline.
func BlockingPairs(in *core.Instance, a *core.Assignment) []core.Conflict {
	var out []core.Conflict
	loads := a.ReviewerLoads(in.NumReviewers())
	for p := 0; p < in.NumPapers(); p++ {
		// Worst score currently held by the paper.
		worstPaper := 2.0
		for _, r := range a.Groups[p] {
			if s := in.PairScore(r, p); s < worstPaper {
				worstPaper = s
			}
		}
		for r := 0; r < in.NumReviewers(); r++ {
			if a.Contains(p, r) || in.IsConflict(r, p) {
				continue
			}
			s := in.PairScore(r, p)
			paperPrefers := len(a.Groups[p]) < in.GroupSize || s > worstPaper+1e-12
			if !paperPrefers {
				continue
			}
			// Worst score currently held by the reviewer.
			reviewerPrefers := loads[r] < in.Workload
			if !reviewerPrefers {
				worstRev := 2.0
				for q := 0; q < in.NumPapers(); q++ {
					if a.Contains(q, r) {
						if sq := in.PairScore(r, q); sq < worstRev {
							worstRev = sq
						}
					}
				}
				reviewerPrefers = s > worstRev+1e-12
			}
			if paperPrefers && reviewerPrefers {
				out = append(out, core.Conflict{Reviewer: r, Paper: p})
			}
		}
	}
	return out
}
