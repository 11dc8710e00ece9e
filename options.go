package wgrap

import (
	"fmt"
	"time"

	"repro/internal/cra"
)

// Option configures a Solver. All defaults are resolved in one place —
// resolveOptions: method sdga-sra, ω=10, seed 1, no refinement budget.
type Option func(*options)

// options is the resolved configuration of a Solver.
type options struct {
	method           Method
	omega            int
	refinementBudget time.Duration
	seed             int64
	candidateCap     int
	progress         func(Snapshot)
	journalDir       string
	snapshotEvery    int
	fsyncInterval    time.Duration
}

// resolveOptions applies opts over the documented defaults.
func resolveOptions(opts []Option) options {
	o := options{
		method:        MethodSDGASRA,
		omega:         10,
		seed:          1,
		snapshotEvery: 4096,
		fsyncInterval: 5 * time.Millisecond,
	}
	for _, f := range opts {
		f(&o)
	}
	return o
}

// sra builds the stochastic-refinement configuration of the SDGA-SRA
// pipeline from the resolved options.
func (o options) sra() cra.SRA {
	return cra.SRA{Omega: o.omega, TimeBudget: o.refinementBudget, Seed: o.seed}
}

// WithMethod selects the assignment algorithm (default MethodSDGASRA).
func WithMethod(m Method) Option { return func(o *options) { o.method = m } }

// WithOmega sets the convergence threshold ω of the stochastic refinement
// (default 10, the paper's setting). Non-positive values fall back to the
// default.
func WithOmega(omega int) Option {
	return func(o *options) {
		if omega > 0 {
			o.omega = omega
		}
	}
}

// WithRefinementBudget caps the wall-clock refinement time. It composes
// with the context passed to Solve/Resolve: the earlier deadline stops the
// (anytime) refinement.
func WithRefinementBudget(d time.Duration) Option {
	return func(o *options) { o.refinementBudget = d }
}

// WithSeed makes the stochastic steps reproducible (default 1). Zero falls
// back to the default.
func WithSeed(seed int64) Option {
	return func(o *options) {
		if seed != 0 {
			o.seed = seed
		}
	}
}

// WithProgress registers a streaming progress callback (see
// Solver.OnImprovement, which can also set it after construction).
func WithProgress(fn func(Snapshot)) Option {
	return func(o *options) { o.progress = fn }
}

// WithCandidateCap enables sparse candidate pruning: every solve restricts
// each paper to its top-k candidate reviewers (ranked by approximate coverage
// score through an inverted topic index), making the per-stage matrix builds
// and transportation solves O(P·k) instead of O(P·R) — the sub-quadratic path
// that carries the solver to very large pools. Papers whose candidates all
// saturate are transparently widened back to the full pool, so a feasible
// instance never becomes infeasible under pruning; the objective may drop by
// the candidate truncation, a measured epsilon at paper scale (see the
// README's candidate-pruning section). The default 0 (and any non-positive
// value, and any k at or above the pool size) keeps the exact dense path and
// bit-identical results. Ignored by the baseline methods (greedy, brgg, sm,
// ilp).
func WithCandidateCap(k int) Option {
	return func(o *options) {
		if k > 0 {
			o.candidateCap = k
		}
	}
}

// WithJournalDir makes the session durable: dir is initialised with a
// snapshot of the starting instance, every accepted edit is appended to a
// checksummed journal in it, and RestoreSolver(dir) rebuilds the session
// after a crash or restart (see durability.go for the full model).
// NewSolver fails with ErrJournalExists when dir already holds session
// state. The empty default keeps the session purely in-memory.
func WithJournalDir(dir string) Option {
	return func(o *options) { o.journalDir = dir }
}

// WithSnapshotEvery sets how many journaled edits accumulate before the
// session compacts — rewrites the snapshot at the current state and resets
// the journal, bounding restore time (default 4096). Non-positive values
// fall back to the default. Only meaningful with WithJournalDir.
func WithSnapshotEvery(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.snapshotEvery = n
		}
	}
}

// WithFsyncInterval sets the group-commit window of the edit journal: with
// a positive d (default 5ms) accepted edits are fsynced in batches at most
// d apart, so a crash loses at most the last window; d <= 0 fsyncs every
// edit before its mutator returns. Only meaningful with WithJournalDir.
func WithFsyncInterval(d time.Duration) Option {
	return func(o *options) { o.fsyncInterval = d }
}

// baseline maps the resolved method to the cold construction algorithm of
// the four baseline methods, which re-run cold on every solve. The
// SDGA-based methods run through cra.Session instead: nil, nil.
func (o options) baseline() (cra.Algorithm, error) {
	switch o.method {
	case MethodSDGASRA, MethodSDGA:
		return nil, nil
	case MethodGreedy:
		return cra.Greedy{}, nil
	case MethodBRGG:
		return cra.BRGG{}, nil
	case MethodStableMatching:
		return cra.StableMatching{}, nil
	case MethodPairILP:
		return cra.PairILP{}, nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownMethod, o.method)
	}
}
