package wgrap

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

func randomProblem(rng *rand.Rand, p, r, t int) ([]Paper, []Reviewer) {
	papers := make([]Paper, p)
	for i := range papers {
		papers[i] = Paper{ID: "p", Topics: randVec(rng, t)}
	}
	reviewers := make([]Reviewer, r)
	for i := range reviewers {
		reviewers[i] = Reviewer{ID: "r", Topics: randVec(rng, t)}
	}
	return papers, reviewers
}

func randVec(rng *rand.Rand, t int) Vector {
	v := make(Vector, t)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v.Normalized()
}

// solve runs one cold Solve of a fresh Solver over in.
func solve(ctx context.Context, in *Instance, opts ...Option) (*Result, error) {
	s, err := NewSolver(in, opts...)
	if err != nil {
		return nil, err
	}
	return s.Solve(ctx)
}

func TestNewInstanceDefaultsWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	papers, reviewers := randomProblem(rng, 10, 4, 5)
	in := NewInstance(papers, reviewers, 2, 0)
	if in.Workload != 5 { // ceil(10*2/4)
		t.Fatalf("Workload = %d, want 5", in.Workload)
	}
	in2 := NewInstance(papers, reviewers, 2, 7)
	if in2.Workload != 7 {
		t.Fatalf("explicit workload overridden: %d", in2.Workload)
	}
}

func TestAssignAllMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	papers, reviewers := randomProblem(rng, 12, 8, 6)
	in := NewInstance(papers, reviewers, 3, 0)
	var scores []float64
	for _, m := range Methods() {
		res, err := solve(context.Background(), in, WithMethod(m), WithOmega(3))
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if err := in.ValidateAssignment(res.Assignment); err != nil {
			t.Fatalf("%s produced an invalid assignment: %v", m, err)
		}
		if res.Method != m || res.Elapsed < 0 {
			t.Fatalf("%s: bad result metadata %+v", m, res)
		}
		if math.Abs(res.Score-in.AssignmentScore(res.Assignment)) > 1e-9 {
			t.Fatalf("%s: score mismatch", m)
		}
		if res.AverageCoverage <= 0 || res.AverageCoverage > 1+1e-9 {
			t.Fatalf("%s: average coverage out of range: %v", m, res.AverageCoverage)
		}
		if res.LowestCoverage < 0 || res.LowestCoverage > res.AverageCoverage+1e-9 {
			t.Fatalf("%s: lowest coverage inconsistent", m)
		}
		scores = append(scores, res.Score)
	}
	// The default pipeline (SDGA-SRA, index 0) should be at least as good as
	// the stable-matching baseline (index 4).
	if scores[0] < scores[4]-1e-9 {
		t.Fatalf("SDGA-SRA (%v) worse than SM (%v)", scores[0], scores[4])
	}
}

func TestAssignDefaultsToSDGASRA(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	papers, reviewers := randomProblem(rng, 8, 6, 5)
	in := NewInstance(papers, reviewers, 2, 0)
	res, err := solve(context.Background(), in, WithOmega(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodSDGASRA {
		t.Fatalf("default method = %q", res.Method)
	}
}

func TestAssignUnknownMethod(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	papers, reviewers := randomProblem(rng, 4, 4, 3)
	in := NewInstance(papers, reviewers, 2, 0)
	if _, err := solve(context.Background(), in, WithMethod("nope")); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("unknown method: err = %v, want ErrUnknownMethod", err)
	}
}

func TestAssignJournalAndTopK(t *testing.T) {
	// The Section 3 running example.
	papers := []Paper{{ID: "p", Topics: Vector{0.35, 0.45, 0.2}}}
	reviewers := []Reviewer{
		{ID: "r1", Topics: Vector{0.15, 0.75, 0.1}},
		{ID: "r2", Topics: Vector{0.75, 0.15, 0.1}},
		{ID: "r3", Topics: Vector{0.1, 0.35, 0.55}},
	}
	in := NewInstance(papers, reviewers, 2, 1)
	best, err := AssignJournal(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(best.Score-0.9) > 1e-9 || len(best.Group) != 2 {
		t.Fatalf("AssignJournal = %+v", best)
	}
	top, err := TopReviewerGroups(in, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 || top[0].Score < top[1].Score || top[1].Score < top[2].Score {
		t.Fatalf("TopReviewerGroups not sorted: %+v", top)
	}
	if math.Abs(top[0].Score-best.Score) > 1e-12 {
		t.Fatal("TopK best differs from AssignJournal")
	}
}

func TestMetricsFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	papers, reviewers := randomProblem(rng, 8, 6, 5)
	in := NewInstance(papers, reviewers, 2, 0)
	good, err := solve(context.Background(), in, WithMethod(MethodSDGA))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := solve(context.Background(), in, WithMethod(MethodStableMatching))
	if err != nil {
		t.Fatal(err)
	}
	ratio := OptimalityRatio(in, good.Assignment)
	if ratio <= 0 || ratio > 1+1e-9 {
		t.Fatalf("OptimalityRatio = %v", ratio)
	}
	betterOrEqual, ties := SuperiorityRatio(in, good.Assignment, bad.Assignment)
	if betterOrEqual < 0 || betterOrEqual > 1 || ties < 0 || ties > betterOrEqual {
		t.Fatalf("SuperiorityRatio = %v, %v", betterOrEqual, ties)
	}
}

func TestScoringFunctionAliases(t *testing.T) {
	p := Vector{0.6, 0.4}
	r := Vector{0.5, 0.5}
	if math.Abs(WeightedCoverage(r, p)-0.9) > 1e-9 {
		t.Fatal("WeightedCoverage alias broken")
	}
	if math.Abs(DotProduct(r, p)-0.5) > 1e-9 {
		t.Fatal("DotProduct alias broken")
	}
	if math.Abs(ReviewerCoverage(r, p)-0.5) > 1e-9 {
		t.Fatal("ReviewerCoverage alias broken")
	}
	if math.Abs(PaperCoverage(r, p)-0.4) > 1e-9 {
		t.Fatal("PaperCoverage alias broken")
	}
}

// TestNoMethodAssignsConflictedReviewer is the conflict-of-interest
// guarantee, table-driven over every public method: whatever the algorithm,
// a registered conflict pair must never appear in the output.
func TestNoMethodAssignsConflictedReviewer(t *testing.T) {
	cases := []struct {
		name     string
		seed     int64
		p, r, tp int
		delta    int
		// conflictFrac of all (r, p) pairs become conflicts (feasibility is
		// preserved by skipping pairs that would leave a paper short).
		conflictFrac float64
	}{
		{name: "sparse-conflicts", seed: 21, p: 10, r: 8, tp: 6, delta: 3, conflictFrac: 0.1},
		{name: "dense-conflicts", seed: 22, p: 8, r: 9, tp: 5, delta: 2, conflictFrac: 0.3},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(c.seed))
			papers, reviewers := randomProblem(rng, c.p, c.r, c.tp)
			in := NewInstance(papers, reviewers, c.delta, 0)
			// Register random conflicts, never conflicting a paper below
			// δp+1 available reviewers so every method stays feasible.
			avail := make([]int, c.p)
			for p := range avail {
				avail[p] = c.r
			}
			for p := 0; p < c.p; p++ {
				for r := 0; r < c.r; r++ {
					if rng.Float64() < c.conflictFrac && avail[p] > c.delta+1 {
						in.AddConflict(r, p)
						avail[p]--
					}
				}
			}
			if len(in.Conflicts()) == 0 {
				t.Fatal("test instance has no conflicts; raise conflictFrac")
			}
			for _, m := range Methods() {
				res, err := solve(context.Background(), in, WithMethod(m), WithOmega(3))
				if err != nil {
					t.Fatalf("%s: %v", m, err)
				}
				for p, g := range res.Assignment.Groups {
					for _, r := range g {
						if in.IsConflict(r, p) {
							t.Errorf("%s assigned conflicted reviewer %d to paper %d", m, r, p)
						}
					}
				}
				if err := in.ValidateAssignment(res.Assignment); err != nil {
					t.Errorf("%s: %v", m, err)
				}
			}
		})
	}
}

// TestAssignContextCancellation: a pre-cancelled context aborts every
// construction method with context.Canceled, while the anytime refinement of
// MethodSDGASRA stops at a deadline and keeps a valid assignment.
func TestAssignContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	papers, reviewers := randomProblem(rng, 12, 8, 6)
	in := NewInstance(papers, reviewers, 3, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range []Method{MethodSDGA, MethodGreedy, MethodBRGG, MethodStableMatching, MethodPairILP} {
		if _, err := solve(ctx, in, WithMethod(m)); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", m, err)
		}
	}
	// SDGA-SRA under a deadline: refinement stops at the deadline and the
	// result is still valid. (On a heavily loaded runner the deadline can
	// expire during construction, which legitimately errors — accept that.)
	dctx, dcancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer dcancel()
	res, err := solve(dctx, in, WithMethod(MethodSDGASRA), WithOmega(1000), WithSeed(7))
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			t.Skip("deadline expired during construction; anytime path not reached")
		}
		t.Fatal(err)
	}
	if err := in.ValidateAssignment(res.Assignment); err != nil {
		t.Fatal(err)
	}
}
