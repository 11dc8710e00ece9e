package cra

import (
	"sync"

	"repro/internal/core"
	"repro/internal/topics"
)

// effectiveCandidateCap normalises a candidate-cap setting against the
// instance: 0 (or negative) disables pruning, as does a cap at or above the
// reviewer pool (the candidate lists would be the full pool); a positive cap
// is raised to the group size so every paper can at least fill its group
// from its own candidates.
func effectiveCandidateCap(in *core.Instance, k int) int {
	if k <= 0 || k >= in.NumReviewers() {
		return 0
	}
	if k < in.GroupSize {
		return in.GroupSize
	}
	return k
}

// spreadDenominator sets the fraction of every candidate list reserved for
// the deterministic stride over the whole pool: 1/4 spread, 3/4 topical.
//
// Purely topical top-k lists collapse onto the same popular reviewers when
// the pool's expertise overlaps (the more uniform the topic vectors, the
// worse): the union of all candidates is then a small slice of the pool, its
// aggregate workload cannot carry P papers, and the transport's densify
// escape hatch fires for nearly every row — correct, but at full dense cost.
// Striding a quarter of each list across the pool keeps every reviewer
// reachable from ~P·spread/R papers, so aggregate candidate capacity always
// spans the whole pool's workload and saturation stays the rare per-row case
// the escape hatch is meant for.
const spreadDenominator = 4

// buildCandidates computes the per-paper candidate reviewer lists (ascending,
// length k): the top topical reviewers by approximate coverage score through
// the inverted topic index, plus the stride slots described at
// spreadDenominator. One flat backing array holds all P·k ids; papers are
// sharded across workers, each with its own scorer scratch and id set. A
// paper's TopK ids go into the set, each stride slot takes its pool position
// or, while that is taken, the next one (mod R), and the set drains into the
// paper's slice of the array in ascending order, so no list is searched or
// sorted. Lists depend only on (paper, pool), never on worker count, so
// sharding cannot change results.
func buildCandidates(in *core.Instance, k, workers int) [][]int32 {
	P, R := in.NumPapers(), in.NumReviewers()
	vecs := make([][]float64, R)
	for r := 0; r < R; r++ {
		vecs[r] = in.Reviewers[r].Topics
	}
	ix := topics.BuildIndex(vecs)
	spread := k / spreadDenominator
	flat := make([]int32, P*k)
	cands := make([][]int32, P)
	fill := func(lo, hi int) {
		sc, set := ix.NewScorer(), topics.NewIDSet(R)
		for p := lo; p < hi; p++ {
			row := sc.TopK(in.Papers[p].Topics, k-spread, flat[p*k:p*k:(p+1)*k])
			for _, r := range row {
				set.Add(r)
			}
			for j := 0; j < spread; j++ {
				r := int32((p*spread + j) % R)
				for set.Has(r) {
					r = (r + 1) % int32(R)
				}
				set.Add(r)
			}
			cands[p] = set.Drain(row[:0])
		}
	}
	if workers > P {
		workers = P
	}
	if workers <= 1 {
		fill(0, P)
		return cands
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(lo, hi int) {
			defer wg.Done()
			fill(lo, hi)
		}(w*P/workers, (w+1)*P/workers)
	}
	wg.Wait()
	return cands
}
