package cra

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// naiveGreedy is the reference of the greedy tests: Greedy's selection rule
// run by rescanning every feasible pair at every iteration instead of
// through the lazy heap.
type naiveGreedy struct{}

// Name implements Algorithm.
func (naiveGreedy) Name() string { return "Greedy-naive" }

// Assign implements Algorithm.
func (g naiveGreedy) Assign(in *core.Instance) (*core.Assignment, error) {
	return g.AssignContext(context.Background(), in)
}

// AssignContext implements Algorithm.
func (naiveGreedy) AssignContext(ctx context.Context, instance *core.Instance) (*core.Assignment, error) {
	in, err := prepare(instance)
	if err != nil {
		return nil, err
	}
	return greedyNaive(ctx, engine.New(in))
}

func greedyNaive(ctx context.Context, eng *engine.Oracle) (*core.Assignment, error) {
	in := eng.Instance()
	P := in.NumPapers()
	a := core.NewAssignment(P)
	rem := make([]int, in.NumReviewers())
	for r := range rem {
		rem[r] = in.Workload
	}
	groupVecs := make([]core.Vector, P)
	for p := range groupVecs {
		groupVecs[p] = make(core.Vector, in.NumTopics())
	}
	need := P * in.GroupSize
	for assigned := 0; assigned < need; assigned++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bestGain := -1.0
		bestR, bestP := -1, -1
		for p := 0; p < P; p++ {
			if len(a.Groups[p]) >= in.GroupSize {
				continue
			}
			for r := 0; r < in.NumReviewers(); r++ {
				if rem[r] <= 0 || a.Contains(p, r) || in.IsConflict(r, p) {
					continue
				}
				if gain := eng.Gain(p, groupVecs[p], r); gain > bestGain {
					bestGain, bestR, bestP = gain, r, p
				}
			}
		}
		if bestR == -1 {
			if err := completeAssignment(ctx, eng, a, rem); err != nil {
				return nil, err
			}
			break
		}
		a.Assign(bestP, bestR)
		groupVecs[bestP].MaxInPlace(in.Reviewers[bestR].Topics)
		rem[bestR]--
	}
	return a, nil
}

// BenchmarkAblationGreedyHeap compares the lazy-heap greedy against the naive
// rescan-everything reference.
func BenchmarkAblationGreedyHeap(b *testing.B) {
	in := randomConference(rand.New(rand.NewSource(8)), 100, 20, 30, 3)
	variants := []struct {
		name string
		alg  Algorithm
	}{
		{"lazy-heap", Greedy{}},
		{"naive-rescan", naiveGreedy{}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := v.alg.Assign(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
