package cra

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// sectionFourInstance is the 3×3 example of Section 4.2 where greedy
// assignment of r1 to two papers in the first stage hurts the total score.
func sectionFourInstance() *core.Instance {
	reviewers := []core.Reviewer{
		{ID: "r1", Topics: core.Vector{0.1, 0.5, 0.4}},
		{ID: "r2", Topics: core.Vector{1, 0, 0}},
		{ID: "r3", Topics: core.Vector{0, 1, 0}},
	}
	papers := []core.Paper{
		{ID: "p1", Topics: core.Vector{0.6, 0, 0.4}},
		{ID: "p2", Topics: core.Vector{0.5, 0.5, 0}},
		{ID: "p3", Topics: core.Vector{0.5, 0.5, 0}},
	}
	return core.NewInstance(papers, reviewers, 2, 2)
}

func randomConference(rng *rand.Rand, p, r, t, delta int) *core.Instance {
	papers := make([]core.Paper, p)
	for i := range papers {
		papers[i] = core.Paper{Topics: randVec(rng, t)}
	}
	reviewers := make([]core.Reviewer, r)
	for i := range reviewers {
		reviewers[i] = core.Reviewer{Topics: randVec(rng, t)}
	}
	in := core.NewInstance(papers, reviewers, delta, 0)
	in.Workload = in.MinWorkload()
	return in
}

func randVec(rng *rand.Rand, t int) core.Vector {
	v := make(core.Vector, t)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v.Normalized()
}

func allAlgorithms() []Algorithm {
	return []Algorithm{
		StableMatching{},
		PairILP{},
		exactPairILP{},
		Greedy{},
		Greedy{Naive: true},
		BRGG{},
		SDGA{},
		hungarianSDGA{},
		WithRefiner{Base: SDGA{}, Refiner: SRA{Omega: 3, MaxRounds: 20}},
		WithRefiner{Base: SDGA{}, Refiner: LocalSearch{MaxMoves: 500, Patience: 200}},
	}
}

func TestAllAlgorithmsProduceValidAssignments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := randomConference(rng, 20, 8, 6, 3)
	for _, alg := range allAlgorithms() {
		a, err := alg.Assign(in)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		work := *in
		work.Workload = in.MinWorkload()
		if err := work.ValidateAssignment(a); err != nil {
			t.Errorf("%s produced an invalid assignment: %v", alg.Name(), err)
		}
	}
}

func TestAlgorithmsRespectConflicts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := randomConference(rng, 10, 8, 5, 2)
	in.Workload = in.MinWorkload() + 1 // headroom so conflicts stay feasible
	for p := 0; p < in.NumPapers(); p += 2 {
		in.AddConflict(p%in.NumReviewers(), p)
	}
	for _, alg := range allAlgorithms() {
		a, err := alg.Assign(in)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		for p, g := range a.Groups {
			for _, r := range g {
				if in.IsConflict(r, p) {
					t.Errorf("%s assigned conflicting pair (r%d, p%d)", alg.Name(), r, p)
				}
			}
		}
	}
}

func TestSDGABeatsNaiveFirstStageGreedy(t *testing.T) {
	in := sectionFourInstance()
	sdga, err := SDGA{}.Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	score := in.AssignmentScore(sdga)
	// The optimum of this instance assigns r1 to p1 (covering topic t3) and
	// spreads r2/r3 over the remaining slots; SDGA must reach at least the
	// greedy score and in this construction strictly beat the "spend r1
	// early" assignment of Section 4.2, which scores 0.6+1.0+1.0 = 2.6.
	if score < 2.6-1e-9 {
		t.Fatalf("SDGA score = %v, want >= 2.6", score)
	}
}

// With δp = 1 the whole assignment is a single Stage-WGRAP, so SDGA and the
// Hungarian reference (hungarianSDGA) must return the same optimal value.
// For δp > 1 the stage optima may be non-unique, in which case the
// downstream stages (and hence the total scores) can legitimately differ;
// there the test only requires both results to be valid assignments.
func TestSDGAStageSolversAgree(t *testing.T) {
	if err := quick.Check(sdgaStageSolversAgree, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// sdgaStageSolversAgree is the property of TestSDGAStageSolversAgree: on a
// random conference drawn from seed, SDGA and the Hungarian reference both
// return a valid assignment, and single-stage runs score the same.
func sdgaStageSolversAgree(seed int64) bool {
	in := stageSolverConference(seed)
	singleStage := in.GroupSize == 1
	a1, err1 := SDGA{}.Assign(in)
	a2, err2 := hungarianSDGA{}.Assign(in)
	if err1 != nil || err2 != nil {
		return false
	}
	work := *in
	work.Workload = in.MinWorkload()
	if work.ValidateAssignment(a1) != nil || work.ValidateAssignment(a2) != nil {
		return false
	}
	if singleStage {
		return math.Abs(in.AssignmentScore(a1)-in.AssignmentScore(a2)) < 1e-6
	}
	return true
}

// stageSolverConference draws the random conference of
// sdgaStageSolversAgree from seed: δp is 1 for half the seeds, else 2 or 3.
func stageSolverConference(seed int64) *core.Instance {
	rng := rand.New(rand.NewSource(seed))
	delta := 1
	if rng.Intn(2) != 0 {
		delta = 2 + rng.Intn(2)
	}
	return randomConference(rng, 4+rng.Intn(10), 4+rng.Intn(6), 3+rng.Intn(6), delta)
}

// backOffSeed draws a feasible conference on which SDGA's third stage has no
// plan even at the reviewers' full remaining workload.
const backOffSeed = -4842148166799108337

// TestSDGAStageSolversAgreeRegressions pins seeds the property once failed
// on. backOffSeed draws P=5, R=4, δp=3, δr=4: stages 1–2 use up reviewers 0
// and 3, and stage 3 has no plan even at the full remaining workload,
// although the instance is feasible; the stage back-off must complete it.
func TestSDGAStageSolversAgreeRegressions(t *testing.T) {
	for _, seed := range []int64{backOffSeed} {
		if !sdgaStageSolversAgree(seed) {
			t.Errorf("seed %d: SDGA stage solvers disagree or fail", seed)
		}
	}
}

func TestGreedyHeapMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomConference(rng, 3+rng.Intn(10), 4+rng.Intn(6), 2+rng.Intn(6), 2)
		a1, err1 := Greedy{}.Assign(in)
		a2, err2 := Greedy{Naive: true}.Assign(in)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(in.AssignmentScore(a1)-in.AssignmentScore(a2)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// exhaustive computes the optimal WGRAP score on a tiny instance.
func exhaustive(in *core.Instance) float64 {
	P := in.NumPapers()
	best := -1.0
	var groups [][]int
	var gen func(start int, cur []int)
	gen = func(start int, cur []int) {
		if len(cur) == in.GroupSize {
			groups = append(groups, append([]int(nil), cur...))
			return
		}
		for r := start; r < in.NumReviewers(); r++ {
			gen(r+1, append(cur, r))
		}
	}
	gen(0, nil)
	loads := make([]int, in.NumReviewers())
	var rec func(p int, score float64)
	rec = func(p int, score float64) {
		if p == P {
			if score > best {
				best = score
			}
			return
		}
		for _, g := range groups {
			ok := true
			for _, r := range g {
				if loads[r] >= in.Workload || in.IsConflict(r, p) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for _, r := range g {
				loads[r]++
			}
			rec(p+1, score+in.GroupScore(p, g))
			for _, r := range g {
				loads[r]--
			}
		}
	}
	rec(0, 0)
	return best
}

// Property (Theorem 2): SDGA achieves at least half the optimal score on
// small random instances; SDGA-SRA only improves it.
func TestSDGAApproximationBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomConference(rng, 2+rng.Intn(3), 4+rng.Intn(2), 2+rng.Intn(4), 2)
		opt := exhaustive(in)
		if opt <= 0 {
			return true
		}
		a, err := SDGA{}.Assign(in)
		if err != nil {
			return false
		}
		score := in.AssignmentScore(a)
		if score < 0.5*opt-1e-9 {
			return false
		}
		refined, err := (SRA{Omega: 3, MaxRounds: 30}).Refine(in, a)
		if err != nil {
			return false
		}
		return in.AssignmentScore(refined) >= score-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Greedy achieves at least 1/3 of the optimum (its proven bound).
func TestGreedyApproximationBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomConference(rng, 2+rng.Intn(3), 4+rng.Intn(2), 2+rng.Intn(4), 2)
		opt := exhaustive(in)
		if opt <= 0 {
			return true
		}
		a, err := Greedy{}.Assign(in)
		if err != nil {
			return false
		}
		return in.AssignmentScore(a) >= opt/3-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPairILPMaximisesPairObjective(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomConference(rng, 2+rng.Intn(3), 4+rng.Intn(3), 2+rng.Intn(4), 2)
		a, err := PairILP{}.Assign(in)
		if err != nil {
			return false
		}
		got := PairObjective(in, a)
		// Compare against every other algorithm's pair objective: the exact
		// optimiser must dominate them all.
		for _, alg := range []Algorithm{Greedy{}, SDGA{}, StableMatching{}} {
			b, err := alg.Assign(in)
			if err != nil {
				return false
			}
			if PairObjective(in, b) > got+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// The deferred-acceptance phase of the SM baseline must be stable: no
// reviewer-paper pair exists where both would prefer each other over someone
// they currently hold. (The subsequent quota-completion step can break strict
// stability because WGRAP's group-size constraint is hard.)
func TestStableMatchingPhaseHasNoBlockingPairs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomConference(rng, 3+rng.Intn(8), 4+rng.Intn(6), 3+rng.Intn(5), 2)
		in.Workload = in.MinWorkload()
		a, err := deferredAcceptance(context.Background(), engine.New(in))
		if err != nil {
			return false
		}
		return len(BlockingPairs(in, a)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStableMatchingAssignFillsQuotas(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	in := randomConference(rng, 10, 5, 4, 2)
	a, err := StableMatching{}.Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	work := *in
	work.Workload = in.MinWorkload()
	if err := work.ValidateAssignment(a); err != nil {
		t.Fatalf("SM output invalid: %v", err)
	}
}

func TestSRANeverDecreasesScore(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomConference(rng, 4+rng.Intn(10), 5+rng.Intn(6), 3+rng.Intn(6), 2+rng.Intn(2))
		base, err := SDGA{}.Assign(in)
		if err != nil {
			return false
		}
		for _, model := range []ProbabilityModel{ProbCoverageDecay, ProbCoverage, ProbUniform} {
			refined, err := (SRA{Omega: 3, MaxRounds: 15, Model: model, Seed: seed}).Refine(in, base)
			if err != nil {
				return false
			}
			work := *in
			work.Workload = in.MinWorkload()
			if work.ValidateAssignment(refined) != nil {
				return false
			}
			if in.AssignmentScore(refined) < in.AssignmentScore(base)-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSRARefineContextNeverWorse: refinement under a time budget returns a
// valid assignment scoring at least as much as its input.
func TestSRARefineContextNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := randomConference(rng, 10, 6, 5, 2)
	base, err := Greedy{}.Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := SRA{Omega: 5, TimeBudget: time.Second}.RefineContext(context.Background(), in, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.ValidateAssignment(refined); err != nil {
		t.Fatal(err)
	}
	if in.AssignmentScore(refined) < in.AssignmentScore(base)-1e-9 {
		t.Fatal("refinement decreased the score")
	}
}

// TestSRARefineContextAnytime: refinement under an already-cancelled context
// still returns a valid assignment no worse than its input, with a nil error
// (anytime semantics).
func TestSRARefineContextAnytime(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	in := randomConference(rng, 10, 6, 5, 2)
	base, err := Greedy{}.Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	refined, err := SRA{Omega: 5}.RefineContext(ctx, in, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.ValidateAssignment(refined); err != nil {
		t.Fatal(err)
	}
	if in.AssignmentScore(refined) < in.AssignmentScore(base)-1e-9 {
		t.Fatal("cancelled refinement returned a worse assignment")
	}
}

func TestSRARefineDoesNotModifyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := randomConference(rng, 8, 6, 5, 2)
	base, err := SDGA{}.Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := base.Clone()
	if _, err := (SRA{Omega: 3, MaxRounds: 10}).Refine(in, base); err != nil {
		t.Fatal(err)
	}
	for p := range snapshot.Groups {
		if len(snapshot.Groups[p]) != len(base.Groups[p]) {
			t.Fatal("Refine modified its input assignment")
		}
		for i := range snapshot.Groups[p] {
			if snapshot.Groups[p][i] != base.Groups[p][i] {
				t.Fatal("Refine modified its input assignment")
			}
		}
	}
}

func TestSRAOnRoundCallback(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := randomConference(rng, 10, 6, 5, 2)
	base, err := SDGA{}.Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	var rounds int
	var lastScore float64
	refiner := SRA{Omega: 3, MaxRounds: 12}
	refiner.OnRound = func(round int, best float64, _ time.Duration) {
		rounds = round
		if best < lastScore-1e-12 {
			t.Fatal("best score decreased across rounds")
		}
		lastScore = best
	}
	if _, err := refiner.Refine(in, base); err != nil {
		t.Fatal(err)
	}
	if rounds == 0 {
		t.Fatal("OnRound was never called")
	}
}

func TestLocalSearchNeverDecreasesScore(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := randomConference(rng, 12, 8, 6, 3)
	base, err := Greedy{}.Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := (LocalSearch{MaxMoves: 2000, Patience: 500}).Refine(in, base)
	if err != nil {
		t.Fatal(err)
	}
	work := *in
	work.Workload = in.MinWorkload()
	if err := work.ValidateAssignment(refined); err != nil {
		t.Fatalf("local search broke feasibility: %v", err)
	}
	if in.AssignmentScore(refined) < in.AssignmentScore(base)-1e-9 {
		t.Fatal("local search decreased the score")
	}
}

func TestWithRefinerName(t *testing.T) {
	alg := WithRefiner{Base: SDGA{}, Refiner: SRA{}}
	if alg.Name() != "SDGA-SRA" {
		t.Fatalf("Name = %q", alg.Name())
	}
}

func TestPrepareDefaultsWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	in := randomConference(rng, 10, 5, 4, 2)
	in.Workload = 0
	a, err := SDGA{}.Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	loads := a.ReviewerLoads(in.NumReviewers())
	min := in.MinWorkload()
	for r, l := range loads {
		if l > min {
			t.Fatalf("reviewer %d load %d exceeds minimum workload %d", r, l, min)
		}
	}
}

func TestInvalidInstanceRejected(t *testing.T) {
	in := core.NewInstance(nil, nil, 2, 2)
	for _, alg := range []Algorithm{Greedy{}, SDGA{}, BRGG{}, StableMatching{}, PairILP{}} {
		if _, err := alg.Assign(in); err == nil {
			t.Errorf("%s accepted an empty instance", alg.Name())
		}
	}
}

// --- Regression seeds: previously failing quick-check seeds, pinned so any
// --- regression surfaces with full detail (folded in from the old scratch
// --- debug tests).

func TestRegressionSeedSDGASolvers(t *testing.T) {
	seed := int64(8687629866177144313)
	rng := rand.New(rand.NewSource(seed))
	in := randomConference(rng, 4+rng.Intn(10), 4+rng.Intn(6), 3+rng.Intn(6), 2+rng.Intn(2))
	a1, err1 := SDGA{}.Assign(in)
	a2, err2 := hungarianSDGA{}.Assign(in)
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v %v", err1, err2)
	}
	work := *in
	work.Workload = in.MinWorkload()
	for name, a := range map[string]*core.Assignment{"flow": a1, "hungarian": a2} {
		if err := work.ValidateAssignment(a); err != nil {
			t.Errorf("%s: invalid assignment: %v", name, err)
		}
	}
}

func TestRegressionSeedSRA(t *testing.T) {
	seed := int64(6659235318012465962)
	rng := rand.New(rand.NewSource(seed))
	in := randomConference(rng, 4+rng.Intn(10), 5+rng.Intn(6), 3+rng.Intn(6), 2+rng.Intn(2))
	base, err := SDGA{}.Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []ProbabilityModel{ProbCoverageDecay, ProbCoverage, ProbUniform} {
		refined, err := (SRA{Omega: 3, MaxRounds: 15, Model: model, Seed: seed}).Refine(in, base)
		if err != nil {
			t.Fatalf("model %v: %v", model, err)
		}
		work := *in
		work.Workload = in.MinWorkload()
		if err := work.ValidateAssignment(refined); err != nil {
			t.Errorf("model %v: invalid: %v", model, err)
		}
		if in.AssignmentScore(refined) < in.AssignmentScore(base)-1e-9 {
			t.Errorf("model %v: score decreased", model)
		}
	}
}

func TestRegressionSeedGreedy(t *testing.T) {
	seed := int64(284869796476506422)
	rng := rand.New(rand.NewSource(seed))
	in := randomConference(rng, 3+rng.Intn(10), 4+rng.Intn(6), 2+rng.Intn(6), 2)
	a1, err1 := Greedy{}.Assign(in)
	a2, err2 := Greedy{Naive: true}.Assign(in)
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v %v", err1, err2)
	}
	if s1, s2 := in.AssignmentScore(a1), in.AssignmentScore(a2); math.Abs(s1-s2) > 1e-9 {
		t.Errorf("heap score %v != naive score %v (the two variants must make identical choices)", s1, s2)
	}
}
