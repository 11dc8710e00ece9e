package cra

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

func TestEffectiveCandidateCap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := randomConference(rng, 10, 20, 8, 3)
	cases := []struct{ k, want int }{
		{0, 0}, {-5, 0}, {20, 0}, {25, 0}, // off, or cap covers the pool
		{1, 3}, {2, 3}, // below the group size: raised to δp
		{3, 3}, {8, 8}, {19, 19},
	}
	for _, tc := range cases {
		if got := effectiveCandidateCap(in, tc.k); got != tc.want {
			t.Fatalf("effectiveCandidateCap(%d) = %d, want %d", tc.k, got, tc.want)
		}
	}
}

func TestBuildCandidatesShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := randomConference(rng, 40, 60, 12, 3)
	for _, workers := range []int{1, 4} {
		cands := buildCandidates(in, 8, workers)
		if len(cands) != in.NumPapers() {
			t.Fatalf("workers=%d: %d candidate lists, want %d", workers, len(cands), in.NumPapers())
		}
		for p, c := range cands {
			if len(c) != 8 {
				t.Fatalf("workers=%d: paper %d has %d candidates, want 8", workers, p, len(c))
			}
			for x := 1; x < len(c); x++ {
				if c[x] <= c[x-1] {
					t.Fatalf("workers=%d: paper %d candidates not ascending: %v", workers, p, c)
				}
			}
		}
	}
	// Sharded and serial builds must agree (TopK is deterministic).
	a, b := buildCandidates(in, 8, 1), buildCandidates(in, 8, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("candidate lists differ across worker counts")
	}
}

// zipfConference draws a conference whose topics follow a Zipf(1)
// popularity: four draws per vector, the j-th weighted rand/(j+1), then
// normalized. Hot topics carry most of the expertise, so candidate scans
// touch many reviewers — the shape of the capped benchmark instances.
func zipfConference(rng *rand.Rand, p, r, t int) *core.Instance {
	pop := make([]float64, t)
	total := 0.0
	for j := range pop {
		pop[j] = 1 / float64(j+1)
		total += pop[j]
	}
	vec := func() core.Vector {
		v := make(core.Vector, t)
		for j := 0; j < 4; j++ {
			u, topic := rng.Float64()*total, t-1
			for x, w := range pop {
				if u -= w; u < 0 {
					topic = x
					break
				}
			}
			v[topic] += rng.Float64() / float64(j+1)
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
	in := core.NewInstance(papers, reviewers, 3, 0)
	in.Workload = in.MinWorkload() + 1
	return in
}

// BenchmarkBuildCandidates times the candidate stage of a capped cold solve
// at paper scale (P=1000, R=2000, T=40, Zipf topics, k=64): the index build
// and one TopK per paper plus its stride slots, serial and sharded over
// GOMAXPROCS workers.
func BenchmarkBuildCandidates(b *testing.B) {
	in := zipfConference(rand.New(rand.NewSource(1)), 1000, 2000, 40)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"single-worker", 1}, {"multicore", runtime.GOMAXPROCS(0)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				candidatesSink = buildCandidates(in, 64, bc.workers)
			}
		})
	}
}

// candidatesSink keeps BenchmarkBuildCandidates' result live.
var candidatesSink [][]int32

// TestSDGACandidateCapFullPool: a cap at (or above) the pool size must take
// the exact dense path and produce the identical assignment.
func TestSDGACandidateCapFullPool(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	in := randomConference(rng, 30, 24, 10, 3)
	dense, err := SDGA{}.Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := SDGA{CandidateCap: in.NumReviewers()}.Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dense.Sorted(), capped.Sorted()) {
		t.Fatal("full-pool candidate cap diverged from the dense path")
	}
}

// TestSDGACandidateCapValidAndClose: pruned construction must stay feasible
// and lose only a small fraction of the dense objective.
func TestSDGACandidateCapValidAndClose(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 5; trial++ {
		in := randomConference(rng, 50, 40, 12, 3)
		dense, err := SDGA{}.Assign(in)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := SDGA{CandidateCap: 12}.Assign(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := in.ValidateAssignment(sparse); err != nil {
			t.Fatalf("trial %d: pruned assignment invalid: %v", trial, err)
		}
		ds, ss := in.AssignmentScore(dense), in.AssignmentScore(sparse)
		if ss < 0.9*ds {
			t.Fatalf("trial %d: pruned score %v below 0.9×dense %v", trial, ss, ds)
		}
	}
}

// TestSDGACandidateCapTightCapacity: with workload at the feasibility minimum
// the candidate columns saturate often; the escape hatch must keep the solve
// feasible anyway.
func TestSDGACandidateCapTightCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	in := randomConference(rng, 60, 30, 10, 3) // MinWorkload: tight pool
	a, err := SDGA{CandidateCap: 3}.Assign(in) // raised to δp=3: maximally starved
	if err != nil {
		t.Fatal(err)
	}
	if err := in.ValidateAssignment(a); err != nil {
		t.Fatalf("assignment invalid: %v", err)
	}
}

// TestSRACandidateCapNeverDecreases: refinement under a candidate cap keeps
// the SRA contract — the result is valid and never worse than the start.
func TestSRACandidateCapNeverDecreases(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	in := randomConference(rng, 40, 32, 10, 3)
	start, err := SDGA{CandidateCap: 10}.Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := SRA{Omega: 5, MaxRounds: 40, Seed: 3, CandidateCap: 10}.Refine(in, start)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.ValidateAssignment(refined); err != nil {
		t.Fatalf("refined assignment invalid: %v", err)
	}
	if s0, s1 := in.AssignmentScore(start), in.AssignmentScore(refined); s1 < s0-1e-12 {
		t.Fatalf("refinement decreased score: %v -> %v", s0, s1)
	}
}

// TestPairScoreAtSparseFallback: the probability model must price every pair
// with the exact oracle score — candidate pairs through the candidate-aligned
// matrix, out-of-candidate pairs (reachable after a densified completion)
// through the on-demand fallback, never as zero.
func TestPairScoreAtSparseFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	in := randomConference(rng, 12, 16, 8, 2)
	eng := engine.New(in)
	cands := buildCandidates(in, 4, 1)
	var pairs engine.Matrix
	if err := eng.FillProfitSparse(context.Background(), &pairs, engine.ProfitSpec{}, cands); err != nil {
		t.Fatal(err)
	}
	run := sraRun{eng: eng, cands: cands, pairScore: pairs.Rows()}
	for p := 0; p < in.NumPapers(); p++ {
		for r := 0; r < in.NumReviewers(); r++ {
			want := eng.PairScore(r, p)
			if got := run.pairScoreAt(p, r); math.Abs(got-want) > 1e-12 {
				t.Fatalf("pairScoreAt(%d,%d) = %v, want %v", p, r, got, want)
			}
		}
	}
}
