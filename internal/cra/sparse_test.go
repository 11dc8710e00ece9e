package cra

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/topics"
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

// referenceCandidates is the stride placement buildCandidates had before
// its id set, kept as the test reference: TopK, then each stride slot bumped
// (+1 mod R) past the ids already in the list with slices.Contains, then a
// sort of the whole list.
func referenceCandidates(in *core.Instance, k int) [][]int32 {
	P, R := in.NumPapers(), in.NumReviewers()
	vecs := make([][]float64, R)
	for r := range vecs {
		vecs[r] = in.Reviewers[r].Topics
	}
	sc := topics.BuildIndex(vecs).NewScorer()
	spread := k / spreadDenominator
	cands := make([][]int32, P)
	for p := range cands {
		row := sc.TopK(in.Papers[p].Topics, k-spread, nil)
		for j := 0; j < spread; j++ {
			r := int32((p*spread + j) % R)
			for slices.Contains(row, r) {
				r = (r + 1) % int32(R)
			}
			row = append(row, r)
		}
		slices.Sort(row)
		cands[p] = row
	}
	return cands
}

// TestBuildCandidatesMatchesReference pins buildCandidates' stride placement
// to referenceCandidates, list for list, at 1 and 3 workers: on random,
// Zipf and quantised pools, with P·spread wrapping past R many times, with R
// barely above k, and with papers whose topics reach fewer than k − spread
// reviewers, so TopK pads their lists.
func TestBuildCandidatesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	quantise := func(in *core.Instance) *core.Instance {
		for _, v := range append(paperVecs(in), reviewerVecs(in)...) {
			for x := range v {
				v[x] = math.Round(v[x]*4) / 4
			}
		}
		return in
	}
	// narrow gives the last topic to reviewers 0 and 5 only, and makes every
	// third paper about that topic alone, so their scans touch two reviewers.
	narrow := func(in *core.Instance) *core.Instance {
		last := in.NumTopics() - 1
		for r, v := range reviewerVecs(in) {
			v[last] = 0
			if r == 0 || r == 5 {
				v[last] = 0.5
			}
		}
		for p, v := range paperVecs(in) {
			if p%3 == 0 {
				clear(v)
				v[last] = 1
			}
		}
		return in
	}
	cases := []struct {
		name string
		in   *core.Instance
		k    int
	}{
		{"random", randomConference(rng, 60, 90, 12, 3), 16},
		{"zipf", zipfConference(rng, 120, 300, 20), 32},
		{"zipf-quantised", quantise(zipfConference(rng, 120, 300, 20)), 32},
		{"random-quantised", quantise(randomConference(rng, 60, 90, 12, 3)), 12},
		{"stride-wraps", zipfConference(rng, 300, 40, 8), 16},
		{"pool-barely-above-k", zipfConference(rng, 50, 34, 10), 32},
		{"padded", narrow(zipfConference(rng, 60, 200, 10)), 24},
	}
	for _, tc := range cases {
		want := referenceCandidates(tc.in, tc.k)
		for _, workers := range []int{1, 3} {
			got := buildCandidates(tc.in, tc.k, workers)
			for p := range want {
				if !slices.Equal(got[p], want[p]) {
					t.Fatalf("%s, %d workers, paper %d:\n got %v\nwant %v", tc.name, workers, p, got[p], want[p])
				}
			}
		}
	}
}

// paperVecs and reviewerVecs return the instance's topic vectors, which the
// callers edit in place.
func paperVecs(in *core.Instance) []core.Vector {
	vs := make([]core.Vector, in.NumPapers())
	for p := range vs {
		vs[p] = in.Papers[p].Topics
	}
	return vs
}

func reviewerVecs(in *core.Instance) []core.Vector {
	vs := make([]core.Vector, in.NumReviewers())
	for r := range vs {
		vs[r] = in.Reviewers[r].Topics
	}
	return vs
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

// TestSRACandidateCapNeverDecreases: a session's refinement under a
// candidate cap keeps the SRA contract — the result is valid and never worse
// than the capped construction it starts from.
func TestSRACandidateCapNeverDecreases(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	in := randomConference(rng, 40, 32, 10, 3)
	var start *core.Assignment
	sess, err := NewSession(in.Clone(), SessionConfig{
		CandidateCap: 10,
		Refine:       true,
		SRA:          SRA{Omega: 5, MaxRounds: 40, Seed: 3},
		OnConstruct:  func(a *core.Assignment) { start = a },
	})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := sess.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := in.ValidateAssignment(start); err != nil {
		t.Fatalf("capped construction invalid: %v", err)
	}
	if err := in.ValidateAssignment(refined); err != nil {
		t.Fatalf("refined assignment invalid: %v", err)
	}
	if s0, s1 := in.AssignmentScore(start), in.AssignmentScore(refined); s1 < s0-1e-12 {
		t.Fatalf("refinement decreased score: %v -> %v", s0, s1)
	}
}

// TestProbPricesPairsOutsideCandidates: under a candidate cap the removal
// model prices every pair with the oracle's exact pair score over the
// candidate-pair reviewer totals, both a pair inside a paper's candidates
// and an assigned pair outside them (reachable after a densified stage),
// never as zero.
func TestProbPricesPairsOutsideCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	in := randomConference(rng, 60, 30, 10, 3) // MinWorkload: stages densify
	sess, err := NewSession(in.Clone(), SessionConfig{CandidateCap: 3})
	if err != nil {
		t.Fatal(err)
	}
	a, err := sess.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var pairs engine.Matrix
	if err := sess.eng.FillProfitSparse(context.Background(), &pairs, engine.ProfitSpec{}, sess.cands); err != nil {
		t.Fatal(err)
	}
	active := make([]bool, in.NumPapers())
	for p := range active {
		active[p] = true
	}
	run := sraRun{
		cfg:           SRA{Model: ProbCoverage},
		eng:           sess.eng,
		reviewerTotal: pairReviewerTotals(pairs.Rows(), active, in.NumReviewers(), sess.cands),
	}
	check := func(p, r int, what string) {
		t.Helper()
		got := run.prob(r, p, 1)
		want := sess.eng.PairScore(r, p) / run.reviewerTotal[r]
		if got == 0 || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s pair (r=%d, p=%d): prob = %v, want %v (non-zero)", what, r, p, got, want)
		}
	}
	inside, outside := false, false
	for p, g := range a.Groups {
		for _, r := range g {
			if run.reviewerTotal[r] == 0 || sess.eng.PairScore(r, p) == 0 {
				continue
			}
			if slices.Contains(sess.cands[p], int32(r)) {
				if !inside {
					check(p, r, "candidate")
					inside = true
				}
			} else if !outside {
				check(p, r, "out-of-candidate")
				outside = true
			}
		}
	}
	if !inside || !outside {
		t.Fatalf("no scored assigned pair inside (%v) or outside (%v) the candidates", inside, outside)
	}
}
