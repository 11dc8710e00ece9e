package wgrap

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// hugeScaleInstance builds the production-scale benchmark instance: P papers
// and R reviewers with Zipf-skewed topic vectors (hot topics carry most of
// the expertise mass, as in real corpora — see corpus.Config.Skew), so the
// candidate lists of the pruned solve collide on the same popular reviewers,
// the stress case for the sparse transport. The workload is one above the
// feasibility minimum: real conferences run with slack, and the tight
// minimum would turn the benchmark into a measurement of the densify escape
// hatch instead of the sparse path.
func hugeScaleInstance(p, r, t int) *core.Instance {
	rng := rand.New(rand.NewSource(8))
	weights := make([]float64, t)
	total := 0.0
	for j := range weights {
		weights[j] = math.Pow(float64(j+1), -1.0)
		total += weights[j]
	}
	zipfTopic := func() int {
		u := rng.Float64() * total
		for j, w := range weights {
			if u -= w; u < 0 {
				return j
			}
		}
		return t - 1
	}
	vec := func() core.Vector {
		v := make(core.Vector, t)
		for j := 0; j < 4; j++ {
			v[zipfTopic()] += rng.Float64() / float64(j+1)
		}
		return v.Normalized()
	}
	papers := make([]core.Paper, p)
	for i := range papers {
		papers[i] = core.Paper{Topics: vec()}
	}
	reviewers := make([]core.Reviewer, r)
	for i := range reviewers {
		reviewers[i] = core.Reviewer{Topics: vec()}
	}
	delta := 3
	in := core.NewInstance(papers, reviewers, delta, 0)
	in.Workload = in.MinWorkload() + 1
	return in
}

// BenchmarkSolveHugeScale is the sub-quadratic acceptance benchmark: one
// full cold SDGA solve at P=100k, R=200k (T=40, δp=3, k=64) through the
// candidate-pruned sparse path. The dense path cannot run at this scale at
// all — its profit matrix alone is 2·10^10 cells (~160 GB) — so the
// benchmark has no dense twin; the objective loss of pruning is pinned
// separately at paper scale by TestSolverCandidateCapPaperScaleEpsilon. CI
// runs one iteration and gates a >50% ns/op regression against
// BENCH_BASELINE.json (normalized by the legacy transport yardstick): a
// single sample is noisy, and a real loss of sparsity costs 10x or more.
func BenchmarkSolveHugeScale(b *testing.B) {
	in := hugeScaleInstance(100_000, 200_000, 40)
	b.Run("solve_huge_scale_sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := NewSolver(in, WithMethod(MethodSDGA), WithCandidateCap(64))
			if err != nil {
				b.Fatal(err)
			}
			res, err := s.Solve(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if err := in.ValidateAssignment(res.Assignment); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Score/float64(in.NumPapers()), "avg-coverage")
		}
	})
}
