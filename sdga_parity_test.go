package wgrap

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cra"
)

// sdgaParityInstance draws the small conference of the SDGA parity tests
// from seed: P in [10, 40), R in [8, 28), T in [4, 12), δp in [2, 5) and the
// minimum balanced workload.
func sdgaParityInstance(seed int64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	papers, reviewers := randomProblem(rng, 10+rng.Intn(30), 8+rng.Intn(20), 4+rng.Intn(8))
	return NewInstance(papers, reviewers, 2+rng.Intn(3), 0)
}

// TestSDGAMatchesSolver: cra.SDGA is a cold session solve, so it returns
// exactly the groups a Solver running MethodSDGA returns — dense and under a
// candidate cap — and fails exactly when the Solver does.
func TestSDGAMatchesSolver(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		in := sdgaParityInstance(seed)
		for _, k := range []int{0, 6} {
			a, aErr := cra.SDGA{CandidateCap: k}.Assign(in)
			res, sErr := solve(context.Background(), in, WithMethod(MethodSDGA), WithCandidateCap(k))
			if (aErr == nil) != (sErr == nil) {
				t.Fatalf("seed %d, cap %d: SDGA err=%v, Solver err=%v", seed, k, aErr, sErr)
			}
			if aErr != nil {
				continue
			}
			if !reflect.DeepEqual(a.Sorted(), res.Assignment.Sorted()) {
				t.Fatalf("seed %d, cap %d: SDGA and Solver assignments differ", seed, k)
			}
		}
	}
}

// TestSRAMatchesSolver: cra.SRA refines on a throwaway session, so SDGA
// followed by cra.SRA returns exactly the groups a Solver running
// MethodSDGASRA with the same ω and seed returns, and fails exactly when the
// Solver does.
func TestSRAMatchesSolver(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		in := sdgaParityInstance(seed)
		alg := cra.WithRefiner{Base: cra.SDGA{}, Refiner: cra.SRA{Omega: 3, Seed: seed + 1}}
		a, aErr := alg.Assign(in)
		res, sErr := solve(context.Background(), in, WithMethod(MethodSDGASRA), WithOmega(3), WithSeed(seed+1))
		if (aErr == nil) != (sErr == nil) {
			t.Fatalf("seed %d: SDGA-SRA err=%v, Solver err=%v", seed, aErr, sErr)
		}
		if aErr != nil {
			continue
		}
		if !reflect.DeepEqual(a.Sorted(), res.Assignment.Sorted()) {
			t.Fatalf("seed %d: SDGA-SRA and Solver assignments differ", seed)
		}
	}
}

// TestSolverCandidateCapKeepsFeasibility pins two draws on which the sparse
// escape hatch once reported a feasible instance infeasible: a stage whose
// failed search ran through papers still limited to their candidates, which
// were never widened. Seed 21 draws P=30, R=15, δp=3, δr=6 and seed 114
// P=30, R=10, δp=3, δr=9; both solve dense, so they must solve under the
// candidate cap too, through the Solver and through cra.SDGA.
func TestSolverCandidateCapKeepsFeasibility(t *testing.T) {
	for _, seed := range []int64{21, 114} {
		in := sdgaParityInstance(seed)
		if _, err := solve(context.Background(), in, WithMethod(MethodSDGA)); err != nil {
			t.Fatalf("seed %d: dense solve: %v", seed, err)
		}
		res, err := solve(context.Background(), in, WithMethod(MethodSDGA), WithCandidateCap(6))
		if errors.Is(err, ErrInfeasible) {
			t.Fatalf("seed %d: candidate cap made a feasible instance infeasible", seed)
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := in.ValidateAssignment(res.Assignment); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a, err := cra.SDGA{CandidateCap: 6}.Assign(in)
		if err != nil {
			t.Fatalf("seed %d: cra.SDGA: %v", seed, err)
		}
		if err := in.ValidateAssignment(a); err != nil {
			t.Fatalf("seed %d: cra.SDGA: %v", seed, err)
		}
	}
}
