package cra

import (
	"container/heap"
	"context"

	"repro/internal/core"
	"repro/internal/engine"
)

// Greedy is the incremental greedy algorithm of Long et al. (Section 4.1):
// at every iteration the feasible reviewer-paper pair with the largest
// marginal gain is added to the assignment, until every paper has δp
// reviewers. It is a 1/3-approximation for SGRAP/WGRAP.
//
// The default implementation keeps the feasible pairs in a lazy max-heap:
// because the gain function is monotonically non-increasing as the
// assignment grows (submodularity), a popped pair whose stored gain is stale
// can simply be re-scored and pushed back. The initial P×R pair scores are
// computed in parallel by the gain oracle; re-scores use its fused,
// allocation-free gain. The tests check the heap against a naive rescan of
// every pair at every iteration, which BenchmarkAblationGreedyHeap times.
type Greedy struct{}

// Name implements Algorithm.
func (Greedy) Name() string { return "Greedy" }

// pairItem is a heap entry for a candidate (reviewer, paper) pair.
type pairItem struct {
	r, p int
	gain float64
	// epoch is the size of the paper's group when the gain was computed;
	// a mismatch means the cached gain may be stale.
	epoch int
}

type pairHeap []pairItem

func (h pairHeap) Len() int { return len(h) }

// Less orders by descending gain and breaks ties by (paper, reviewer), the
// order a naive rescan of every pair picks in, so both make identical
// choices.
func (h pairHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	if h[i].p != h[j].p {
		return h[i].p < h[j].p
	}
	return h[i].r < h[j].r
}
func (h pairHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pairHeap) Push(x interface{}) { *h = append(*h, x.(pairItem)) }
func (h *pairHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Assign implements Algorithm.
func (g Greedy) Assign(instance *core.Instance) (*core.Assignment, error) {
	return g.AssignContext(context.Background(), instance)
}

// AssignContext implements Algorithm.
func (Greedy) AssignContext(ctx context.Context, instance *core.Instance) (*core.Assignment, error) {
	in, err := prepare(instance)
	if err != nil {
		return nil, err
	}
	return greedyHeap(ctx, engine.New(in))
}

// greedyCheckEvery bounds how many heap operations run between context
// checks; individual iterations are too cheap to check every time.
const greedyCheckEvery = 1024

func greedyHeap(ctx context.Context, eng *engine.Oracle) (*core.Assignment, error) {
	in := eng.Instance()
	P, R := in.NumPapers(), in.NumReviewers()
	a := core.NewAssignment(P)
	rem := make([]int, R)
	for r := range rem {
		rem[r] = in.Workload
	}
	// Group vectors maintained incrementally per paper.
	groupVecs := make([]core.Vector, P)
	for p := range groupVecs {
		groupVecs[p] = make(core.Vector, in.NumTopics())
	}

	// Initial gains are the plain pair scores; build them in parallel.
	var m engine.Matrix
	if err := eng.FillPairScores(ctx, &m); err != nil {
		return nil, err
	}
	h := make(pairHeap, 0, P*R)
	for p := 0; p < P; p++ {
		row := m.Row(p)
		for r := 0; r < R; r++ {
			if in.IsConflict(r, p) {
				continue
			}
			h = append(h, pairItem{r: r, p: p, gain: row[r], epoch: 0})
		}
	}
	heap.Init(&h)

	need := P * in.GroupSize
	assigned := 0
	for ops := 0; assigned < need && h.Len() > 0; ops++ {
		if ops%greedyCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		top := heap.Pop(&h).(pairItem)
		p, r := top.p, top.r
		if rem[r] <= 0 || len(a.Groups[p]) >= in.GroupSize || a.Contains(p, r) {
			continue
		}
		if top.epoch != len(a.Groups[p]) {
			// Stale gain: recompute and push back (lazy evaluation).
			top.gain = eng.Gain(p, groupVecs[p], r)
			top.epoch = len(a.Groups[p])
			heap.Push(&h, top)
			continue
		}
		a.Assign(p, r)
		groupVecs[p].MaxInPlace(in.Reviewers[r].Topics)
		rem[r]--
		assigned++
	}
	if assigned < need {
		// Greedy can strand a paper whose remaining candidates are exhausted
		// (all spare capacity sits with reviewers already in its group);
		// repair the tail with swaps rather than failing.
		if err := completeAssignment(ctx, eng, a, rem); err != nil {
			return nil, err
		}
	}
	return a, nil
}
