package wgrap

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestSolverCandidateCapFullPool: a candidate cap at (or above) the pool size
// must resolve to the exact dense path and produce bit-identical assignments,
// for both session methods.
func TestSolverCandidateCapFullPool(t *testing.T) {
	for _, m := range []Method{MethodSDGA, MethodSDGASRA} {
		t.Run(string(m), func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			papers, reviewers := randomProblem(rng, 30, 24, 10)
			in := NewInstance(papers, reviewers, 3, 0)
			dense, err := NewSolver(in, WithMethod(m), WithOmega(3), WithSeed(9))
			if err != nil {
				t.Fatal(err)
			}
			denseRes, err := dense.Solve(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			capped, err := NewSolver(in, WithMethod(m), WithOmega(3), WithSeed(9),
				WithCandidateCap(len(reviewers)))
			if err != nil {
				t.Fatal(err)
			}
			cappedRes, err := capped.Solve(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(denseRes.Assignment.Sorted(), cappedRes.Assignment.Sorted()) {
				t.Fatal("full-pool candidate cap diverged from the dense assignment")
			}
		})
	}
}

// TestSolverCandidateCapResolveParity: under a candidate cap, warm Resolve
// after each scripted edit must match a cold same-cap Solve on the
// identically edited instance to 1e-9, for both session methods. The
// workload is kept slack so the densification escape hatch never fires —
// warm and cold then walk the identical candidate structure (with a tight
// pool the densified-row sets could legitimately differ between a warm and a
// cold solve, which is why the cap's parity contract is same-cap, not
// vs-dense; the vs-dense gap is the epsilon test below).
func TestSolverCandidateCapResolveParity(t *testing.T) {
	for _, m := range []Method{MethodSDGA, MethodSDGASRA} {
		t.Run(string(m), func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			papers, reviewers := randomProblem(rng, 36, 28, 10)
			in := NewInstance(papers, reviewers, 3, 8) // slack workload (min would be 4)
			opts := []Option{WithMethod(m), WithOmega(3), WithSeed(9), WithCandidateCap(10)}
			warm, err := NewSolver(in, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := warm.Solve(context.Background()); err != nil {
				t.Fatal(err)
			}
			editRng := rand.New(rand.NewSource(77))
			for k := 0; k < 9; k++ {
				solverEditScript(t, warm, editRng, k)
				warmRes, err := warm.Resolve(context.Background())
				if err != nil {
					t.Fatalf("edit %d: warm resolve: %v", k, err)
				}
				cold, err := NewSolver(in, opts...)
				if err != nil {
					t.Fatal(err)
				}
				coldRng := rand.New(rand.NewSource(77))
				for j := 0; j <= k; j++ {
					solverEditScript(t, cold, coldRng, j)
				}
				coldRes, err := cold.Solve(context.Background())
				if err != nil {
					t.Fatalf("edit %d: cold solve: %v", k, err)
				}
				if math.Abs(warmRes.Score-coldRes.Score) > 1e-9 {
					t.Fatalf("edit %d: warm score %v != cold score %v", k, warmRes.Score, coldRes.Score)
				}
			}
		})
	}
}

// TestSolverCandidateCapReviewerGrowth: adding reviewers is the one edit that
// changes the candidate universe; the session must rebuild its candidate
// lists (a structural resolve) and still match a cold same-cap solve.
func TestSolverCandidateCapReviewerGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	papers, reviewers := randomProblem(rng, 24, 20, 8)
	in := NewInstance(papers, reviewers, 3, 8)
	opts := []Option{WithMethod(MethodSDGA), WithSeed(9), WithCandidateCap(8)}
	warm, err := NewSolver(in, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	newRev := Reviewer{ID: "late", Topics: randVec(rng, 8)}
	if _, err := warm.AddReviewer(newRev); err != nil {
		t.Fatal(err)
	}
	warmRes, err := warm.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewSolver(in, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.AddReviewer(newRev); err != nil {
		t.Fatal(err)
	}
	coldRes, err := cold.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warmRes.Score-coldRes.Score) > 1e-9 {
		t.Fatalf("reviewer growth: warm score %v != cold score %v", warmRes.Score, coldRes.Score)
	}
}

// TestSolverCandidateCapPaperScaleEpsilon measures the objective loss of
// candidate pruning at the paper's acceptance scale (P=1000, R=2000, T=40,
// δp=3, k=64) and pins it: the pruned construction must retain at least 96%
// of the dense SDGA objective. The bench instance is deliberately the worst
// case for pruning — near-uniform topic vectors make the topical ranking
// almost pure noise (measured epsilon ~3%); on topically-structured pools the
// loss drops under 1% (see the README's candidate-pruning section). The
// measured epsilon is logged.
func TestSolverCandidateCapPaperScaleEpsilon(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale epsilon skipped in -short mode")
	}
	in := benchConferenceInstance(1000, 2000, 40, 3)
	dense, err := NewSolver(in, WithMethod(MethodSDGA))
	if err != nil {
		t.Fatal(err)
	}
	denseRes, err := dense.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := NewSolver(in, WithMethod(MethodSDGA), WithCandidateCap(64))
	if err != nil {
		t.Fatal(err)
	}
	sparseRes, err := sparse.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	eps := 1 - sparseRes.Score/denseRes.Score
	t.Logf("paper-scale candidate pruning (k=64): dense %.6f sparse %.6f epsilon %.5f (%s vs %s)",
		denseRes.Score, sparseRes.Score, eps, sparseRes.Elapsed, denseRes.Elapsed)
	if sparseRes.Score < 0.96*denseRes.Score {
		t.Fatalf("pruned score %v lost more than 4%% of dense %v", sparseRes.Score, denseRes.Score)
	}
}

// TestSolverCandidateCapHugeWeights: topic weights near the top of the
// float64 range are valid input, and the candidate scan's budget times such
// a weight overflows to +Inf. A capped solve over them must return, with a
// valid assignment and the dense solve's score, instead of panicking in the
// candidate build.
func TestSolverCandidateCapHugeWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	papers, reviewers := randomProblem(rng, 40, 60, 6)
	for i := range papers {
		papers[i].Topics[i%6] = 1e307
	}
	for i := range reviewers {
		if i%3 == 0 {
			reviewers[i].Topics[i%6] = 1e307
		}
	}
	in := NewInstance(papers, reviewers, 3, 0)
	ctx := context.Background()
	dense, err := solve(ctx, in, WithMethod(MethodSDGA))
	if err != nil {
		t.Fatal(err)
	}
	capped, err := solve(ctx, in, WithMethod(MethodSDGA), WithCandidateCap(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := in.ValidateAssignment(capped.Assignment); err != nil {
		t.Fatal(err)
	}
	if capped.Score != dense.Score {
		t.Fatalf("capped score %v, dense %v", capped.Score, dense.Score)
	}
}
