package cra

import (
	"context"
	"runtime"

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
// internal/engine fills each stage's profit matrix in parallel, and each
// stage is one transportation solve. The session's tie-break (see tieBreak)
// makes every stage optimum unique, so SDGA returns exactly the assignment a
// session solve of the same instance returns.
type SDGA struct {
	// Shards bounds the goroutines the stage transport uses to load and seed
	// each stage instance, sharded across papers — the same parallel axis the
	// engine's profit-matrix build already exploits. 0 means GOMAXPROCS, 1
	// serial. The assignment is identical for every value (the parallel
	// passes write disjoint per-paper state; everything order-sensitive stays
	// serial), so sharding is on by default.
	Shards int
	// PairBonus optionally adds a modular per-pair term to the marginal gain
	// used by every stage (e.g. reviewer bids, see internal/bids). A modular
	// bonus keeps the overall objective submodular, so the approximation
	// guarantee is preserved for the blended objective. Called concurrently
	// during the matrix build; it must be safe for concurrent use.
	PairBonus func(r, p int) float64
	// GainWeight scales the coverage part of the marginal gain when a
	// PairBonus is supplied (0 means 1, i.e. plain coverage).
	GainWeight float64
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
	cfg := SessionConfig{Shards: s.Shards, CandidateCap: s.CandidateCap}
	if s.PairBonus != nil {
		cfg.Bonus = func(p, r int) float64 { return s.PairBonus(r, p) }
		cfg.GainWeight = s.GainWeight
	}
	sess, err := NewSession(in.Clone(), cfg)
	if err != nil {
		return nil, err
	}
	return sess.Solve(ctx)
}

// shardWorkers resolves a Shards setting: 0 means one worker per available
// CPU, anything below 1 is serial.
func shardWorkers(n int) int {
	if n == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		return 1
	}
	return n
}

// stageFallbackHook, when non-nil, is invoked whenever a stage falls back to
// the reviewers' full remaining workload; tests use it to assert the fallback
// (and its incremental Resolve) is actually exercised.
var stageFallbackHook func()
