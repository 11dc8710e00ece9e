package wgrap

// bench_test.go regenerates every table and figure of the paper's evaluation
// as a testing.B benchmark (one benchmark per experiment), plus ablation
// benchmarks for the design choices called out in DESIGN.md. The benchmarks
// run the experiment harness in Quick mode so the full suite finishes in
// minutes; run cmd/wgrap-experiments for the larger default scale.

import (
	"context"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cra"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/jra"
)

// benchCfg is the scaled-down experiment configuration used by benchmarks.
func benchCfg() experiments.Config {
	return experiments.Config{
		Quick:            true,
		Scale:            0.05,
		Seed:             1,
		GroupSizes:       []int{3},
		JRAPoolSizes:     []int{20, 40},
		JRAGroupSizes:    []int{2, 3},
		ILPMaxReviewers:  15,
		BFSMaxCombos:     2e5,
		RefinementBudget: 300 * time.Millisecond,
	}
}

// runExperiment executes a registered experiment b.N times.
func runExperiment(b *testing.B, name string) {
	b.Helper()
	r, ok := experiments.Lookup(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

// --- One benchmark per table / figure of the paper -------------------------

func BenchmarkTable6ScoringFunctions(b *testing.B)  { runExperiment(b, "table6") }
func BenchmarkFigure7ApproxRatio(b *testing.B)      { runExperiment(b, "figure7") }
func BenchmarkFigure9aJRAGroupSize(b *testing.B)    { runExperiment(b, "figure9a") }
func BenchmarkFigure9bJRAPoolSize(b *testing.B)     { runExperiment(b, "figure9b") }
func BenchmarkCPComparison(b *testing.B)            { runExperiment(b, "cp") }
func BenchmarkFigure14JRAScalability(b *testing.B)  { runExperiment(b, "figure14") }
func BenchmarkFigure15TopK(b *testing.B)            { runExperiment(b, "figure15") }
func BenchmarkTable4ResponseTime(b *testing.B)      { runExperiment(b, "table4") }
func BenchmarkFigure10OptimalityRatio(b *testing.B) { runExperiment(b, "figure10") }
func BenchmarkFigure11SuperiorityRatio(b *testing.B) {
	runExperiment(b, "figure11")
}
func BenchmarkFigure12Refinement(b *testing.B)   { runExperiment(b, "figure12") }
func BenchmarkFigure16Omega(b *testing.B)        { runExperiment(b, "figure16") }
func BenchmarkFigure17Theory2008(b *testing.B)   { runExperiment(b, "figure17") }
func BenchmarkFigure18Year2009(b *testing.B)     { runExperiment(b, "figure18") }
func BenchmarkTable7LowestCoverage(b *testing.B) { runExperiment(b, "table7") }
func BenchmarkCaseStudies(b *testing.B)          { runExperiment(b, "casestudies") }
func BenchmarkFigure21AltScoring(b *testing.B)   { runExperiment(b, "figure21") }
func BenchmarkRunAllExperiments(b *testing.B) {
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.RunAll(cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the core algorithms -------------------------------

func benchJournalInstance(r, t, delta int) *core.Instance {
	rng := rand.New(rand.NewSource(7))
	papers := []core.Paper{{Topics: benchVec(rng, t)}}
	reviewers := make([]core.Reviewer, r)
	for i := range reviewers {
		reviewers[i] = core.Reviewer{Topics: benchVec(rng, t)}
	}
	return core.NewInstance(papers, reviewers, delta, 1)
}

func benchConferenceInstance(p, r, t, delta int) *core.Instance {
	rng := rand.New(rand.NewSource(8))
	papers := make([]core.Paper, p)
	for i := range papers {
		papers[i] = core.Paper{Topics: benchVec(rng, t)}
	}
	reviewers := make([]core.Reviewer, r)
	for i := range reviewers {
		reviewers[i] = core.Reviewer{Topics: benchVec(rng, t)}
	}
	in := core.NewInstance(papers, reviewers, delta, 0)
	in.Workload = in.MinWorkload()
	return in
}

func benchVec(rng *rand.Rand, t int) core.Vector {
	v := make(core.Vector, t)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v.Normalized()
}

func BenchmarkBBAJournal200x30(b *testing.B) {
	in := benchJournalInstance(200, 30, 3)
	solver := jra.BranchAndBound{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Solve(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSDGAConference(b *testing.B) {
	in := benchConferenceInstance(120, 25, 30, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (cra.SDGA{}).Assign(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyConference(b *testing.B) {
	in := benchConferenceInstance(120, 25, 30, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (cra.Greedy{}).Assign(in); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §4) -------------------------------------

// BenchmarkAblationBBA quantifies the contribution of the two ingredients of
// BBA: the gain-ordered branching and the per-topic upper bound.
func BenchmarkAblationBBA(b *testing.B) {
	in := benchJournalInstance(80, 30, 3)
	variants := []struct {
		name   string
		solver jra.BranchAndBound
	}{
		{"full", jra.BranchAndBound{}},
		{"no-bounding", jra.BranchAndBound{DisableBounding: true}},
		{"no-gain-ordering", jra.BranchAndBound{DisableGainOrdering: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := v.solver.Solve(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGreedyHeap compares the lazy-heap greedy against the naive
// rescan-everything variant.
func BenchmarkAblationGreedyHeap(b *testing.B) {
	in := benchConferenceInstance(100, 20, 30, 3)
	variants := []struct {
		name string
		alg  cra.Greedy
	}{
		{"lazy-heap", cra.Greedy{}},
		{"naive-rescan", cra.Greedy{Naive: true}},
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

// BenchmarkAblationSRAProbability compares the three probability models of
// the stochastic refinement (Equations 9 and 10 and the uniform strawman).
func BenchmarkAblationSRAProbability(b *testing.B) {
	in := benchConferenceInstance(80, 20, 30, 3)
	base, err := cra.SDGA{}.Assign(in)
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name  string
		model cra.ProbabilityModel
	}{
		{"coverage-decay", cra.ProbCoverageDecay},
		{"coverage", cra.ProbCoverage},
		{"uniform", cra.ProbUniform},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sra := cra.SRA{Omega: 5, MaxRounds: 30, Model: v.model, Seed: int64(i + 1)}
				refined, err := sra.Refine(in, base)
				if err != nil {
					b.Fatal(err)
				}
				if in.AssignmentScore(refined) < in.AssignmentScore(base)-1e-9 {
					b.Fatal("refinement decreased the score")
				}
			}
		})
	}
}

// BenchmarkDatasetGeneration measures the synthetic corpus generator.
func BenchmarkDatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gen := corpus.NewGenerator(corpus.Config{Scale: 0.05, AuthorsPerArea: 60, Seed: int64(i + 1)})
		if _, err := gen.Dataset(corpus.Databases, 2008); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Gain-engine benchmarks (the fused, parallel profit-matrix build) -------

// benchGroupVecs builds partially filled per-paper group vectors (one random
// reviewer each), the state a mid-SDGA stage sees.
func benchGroupVecs(in *core.Instance, seed int64) []core.Vector {
	rng := rand.New(rand.NewSource(seed))
	vecs := make([]core.Vector, in.NumPapers())
	for p := range vecs {
		vecs[p] = make(core.Vector, in.NumTopics())
		vecs[p].MaxInPlace(in.Reviewers[rng.Intn(in.NumReviewers())].Topics)
	}
	return vecs
}

// BenchmarkProfitMatrixPaperScale compares the legacy sequential profit
// matrix build (fresh [][]float64 + core.GainWithVector per cell, the
// pre-engine SDGA code path) against the fused, parallel engine build with a
// reused flat matrix, at the paper's conference scale: P=1000 papers,
// R=2000 reviewers, T=40 topics.
func BenchmarkProfitMatrixPaperScale(b *testing.B) {
	in := benchConferenceInstance(1000, 2000, 40, 3)
	groupVecs := benchGroupVecs(in, 9)

	b.Run("legacy-sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			profit := make([][]float64, in.NumPapers())
			for p := 0; p < in.NumPapers(); p++ {
				profit[p] = make([]float64, in.NumReviewers())
				for r := 0; r < in.NumReviewers(); r++ {
					profit[p][r] = in.GainWithVector(p, groupVecs[p], r)
				}
			}
		}
	})

	b.Run("engine-fused-parallel", func(b *testing.B) {
		eng := engine.New(in)
		var m engine.Matrix
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			spec := engine.ProfitSpec{GroupVecs: groupVecs}
			if err := eng.FillProfit(context.Background(), &m, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGainOracle measures one marginal-gain evaluation: the generic
// merged-vector path against the fused single-pass path, for each of the
// paper's four scoring functions.
func BenchmarkGainOracle(b *testing.B) {
	names := []string{"weighted", "reviewer", "paper", "dot-product"}
	in := benchConferenceInstance(100, 200, 40, 3)
	groupVecs := benchGroupVecs(in, 10)
	for _, name := range names {
		score := core.ScoringFunctions[name]
		in.Score = score
		eng := engine.New(in)
		b.Run(name+"/generic", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in.GainWithVector(i%100, groupVecs[i%100], i%200)
			}
		})
		b.Run(name+"/fused", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng.Gain(i%100, groupVecs[i%100], i%200)
			}
		})
	}
	in.Score = nil
}

// BenchmarkProfitMatrixCI is the reduced-scale (P=200, R=400) profit-matrix
// fill recorded by the CI bench job alongside the transport solve of
// internal/flow (see BENCH_BASELINE.json and cmd/wgrap-bench).
func BenchmarkProfitMatrixCI(b *testing.B) {
	in := benchConferenceInstance(200, 400, 40, 3)
	groupVecs := benchGroupVecs(in, 11)
	eng := engine.New(in)
	var m engine.Matrix
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := engine.ProfitSpec{GroupVecs: groupVecs}
		if err := eng.FillProfit(context.Background(), &m, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSDGALargeConference runs one full SDGA assignment at a larger
// conference scale than BenchmarkSDGAConference; the end-to-end number the
// profit-matrix speedup feeds into. (A single-CPU profile of a cold solve
// at the paper's full P=1000, R=2000 puts about two thirds of the time in
// the per-stage transportation solves, mostly their shortest-path
// searches, and under a third in the δp profit fills, after the
// residual-topic fill and its AVX row step in internal/engine; within the
// fills the per-cell finishing step now costs more than the row step — see
// README.md.)
func BenchmarkSDGALargeConference(b *testing.B) {
	in := benchConferenceInstance(300, 600, 40, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (cra.SDGA{}).Assign(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSRARefinementRoundsPaperScale measures the per-round cost of the
// stochastic refinement at the paper's conference scale (P=1000, R=2000,
// T=40): a fixed number of rounds over a fixed SDGA construction. The
// per-round dirty tracking (engine.FillProfitRows + flow ResolveRows inside
// cra's completion) re-fills only the profit rows of papers whose
// post-removal group changed since the previous round, instead of rebuilding
// the whole P×R matrix and transport every round.
func BenchmarkSRARefinementRoundsPaperScale(b *testing.B) {
	in := benchConferenceInstance(1000, 2000, 40, 3)
	base, err := (cra.SDGA{}).Assign(in)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sra := cra.SRA{Omega: 1000, MaxRounds: 8, Seed: int64(i + 1)}
		refined, err := sra.Refine(in, base)
		if err != nil {
			b.Fatal(err)
		}
		if in.AssignmentScore(refined) < in.AssignmentScore(base)-1e-9 {
			b.Fatal("refinement decreased the score")
		}
	}
}
