package cra

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestSDGAFallbackResolve forces the stage-capacity fallback (workload
// headroom + conflicts that make the equal per-stage partition infeasible)
// and checks that the incremental Resolve path yields valid, complete,
// deterministic assignments. Per-stage objective parity of Resolve against
// a fresh solve is covered by the flow package's Resolve tests.
func TestSDGAFallbackResolve(t *testing.T) {
	fallbacks := 0
	stageFallbackHook = func() { fallbacks++ }
	defer func() { stageFallbackHook = nil }()
	trials := 0
	recovered := 0
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := randomConference(rng, 6+rng.Intn(6), 3+rng.Intn(3), 4, 2)
		in.Workload = in.MinWorkload() + 1
		// Dense conflicts push tail stages into the fallback.
		for p := 0; p < in.NumPapers(); p++ {
			if rng.Float64() < 0.5 {
				in.AddConflict(rng.Intn(in.NumReviewers()), p)
			}
		}
		before := fallbacks
		a1, err1 := SDGA{}.Assign(in)
		if err1 != nil {
			continue
		}
		if fallbacks > before {
			recovered++
		}
		trials++
		if err := in.ValidateAssignment(a1); err != nil {
			t.Fatalf("seed %d: assignment invalid: %v", seed, err)
		}
		again, err := SDGA{}.Assign(in)
		if err != nil {
			t.Fatalf("seed %d: rerun failed: %v", seed, err)
		}
		if math.Abs(in.AssignmentScore(a1)-in.AssignmentScore(again)) > 1e-12 {
			t.Fatalf("seed %d: SDGA with Resolve fallback is nondeterministic", seed)
		}
	}
	if trials == 0 {
		t.Fatal("no feasible instances drawn")
	}
	if fallbacks == 0 {
		t.Fatal("the stage-capacity fallback was never exercised")
	}
	if recovered == 0 {
		t.Fatal("no instance recovered through the Resolve fallback")
	}
}

// TestPairILPTransportSolversAgree checks that the ARAP optimum of the
// transportation solve is identical to the genuine integer program's (which
// validates the total-unimodularity shortcut and exercises internal/ilp's
// transport-seeded incumbent). Parity with the SPFA reference solver is
// covered by the flow package's parity tests.
func TestPairILPTransportSolversAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomConference(rng, 2+rng.Intn(3), 4+rng.Intn(3), 2+rng.Intn(4), 2)
		objectives := make([]float64, 0, 2)
		for _, alg := range []Algorithm{
			PairILP{},
			PairILP{ViaILP: true},
		} {
			a, err := alg.Assign(in)
			if err != nil {
				return false
			}
			objectives = append(objectives, PairObjective(in, a))
		}
		return math.Abs(objectives[0]-objectives[1]) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
