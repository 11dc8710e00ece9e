package cra

import (
	"context"

	"repro/internal/core"
)

// SDGA is the Stage Deepening Greedy Algorithm (Algorithm 2): the assignment
// is built in δp stages; at each stage exactly one reviewer is added to every
// paper by solving a linear assignment that maximises the total marginal gain
// (Definition 9 and Lemma 2), with the per-stage reviewer workload capped at
// ⌈δr/δp⌉. SDGA is a (1−1/e)-approximation when δp divides δr and a
// 1/2-approximation otherwise (Theorems 1 and 2).
//
// Each call is a cold Solve of a throwaway Session over a clone of the
// instance, so SDGA runs the session's stage loop: the fused gain oracle of
// internal/engine fills each stage's profit matrix with the marginal gains
// in parallel, and each stage is one transportation solve. The only term
// added to a gain is the session's tie-break (see engine.TieBreak), which
// makes every stage optimum unique, so SDGA returns exactly the assignment
// a session solve of the same instance returns, at any GOMAXPROCS.
type SDGA struct {
	// CandidateCap, when positive, restricts every stage to the top-k
	// candidate reviewers per paper (by approximate coverage score, via the
	// inverted topic index), making the matrix build and each stage solve
	// O(P·k) instead of O(P·R). Papers whose candidates saturate are widened
	// to the full pool by the transport's escape hatch, so feasibility never
	// regresses. 0 keeps the exact dense path.
	CandidateCap int
}

// Name implements Algorithm.
func (SDGA) Name() string { return "SDGA" }

// Assign implements Algorithm.
func (s SDGA) Assign(instance *core.Instance) (*core.Assignment, error) {
	return s.AssignContext(context.Background(), instance)
}

// AssignContext implements Algorithm; cancellation is checked between and
// inside the δp stage solves.
func (s SDGA) AssignContext(ctx context.Context, instance *core.Instance) (*core.Assignment, error) {
	in, err := prepare(instance)
	if err != nil {
		return nil, err
	}
	sess, err := NewSession(in.Clone(), SessionConfig{CandidateCap: s.CandidateCap})
	if err != nil {
		return nil, err
	}
	return sess.Solve(ctx)
}

// stageFallbackHook, when non-nil, is invoked once for every stage that
// falls back to the reviewers' full remaining workload, by either route (a
// stage short of slots by count before its solve, or a failed solve at the
// stage caps); tests use it to assert the fallback is actually exercised.
var stageFallbackHook func()
