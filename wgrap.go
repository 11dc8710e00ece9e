// Package wgrap is the public API of the Weighted-coverage Group-based
// Reviewer Assignment library, a reproduction of "Weighted Coverage based
// Reviewer Assignment" (Kou, U, Mamoulis, Gong — SIGMOD 2015) grown into a
// serving-oriented assignment engine.
//
// The package exposes the paper's data model (topic vectors, reviewers,
// papers, assignments), the exact Journal Reviewer Assignment solver (the
// Branch-and-Bound Algorithm, BBA), the approximate Conference Reviewer
// Assignment algorithms (the Stage Deepening Greedy Algorithm SDGA, its
// stochastic refinement SRA, and the baselines used in the paper's
// evaluation), the evaluation metrics, and the topic-extraction pipeline
// (Author-Topic Model plus EM inference).
//
// # Solver sessions
//
// The primary entry point is the long-lived Solver session. Real conference
// workloads are incremental — papers are withdrawn, reviewers declare late
// conflicts, workloads change — so the Solver owns its hot state (profit
// matrices, per-stage transportation solvers, refinement scratch) across
// calls and re-solves warm after edits:
//
//	in := wgrap.NewInstance(papers, reviewers, 3, 0) // δp=3, minimum workload
//	solver, err := wgrap.NewSolver(in)               // default SDGA-SRA pipeline
//	res, err := solver.Solve(ctx)                    // cold solve
//	// … a reviewer declares a conflict of interest:
//	err = solver.AddConflict(r, p)
//	res, err = solver.Resolve(ctx)                   // warm re-solve: much faster
//
// Resolve re-fills only the profit-matrix rows the edits dirtied and
// re-solves each SDGA stage's transportation from the retained flow and
// duals; the result matches what a cold Solve of the edited instance would
// return. Streaming anytime progress is available through
// Solver.OnImprovement (or the WithProgress option); structured sentinel
// errors (ErrInfeasible, ErrConflictSaturated, …) classify every failure.
//
// Long-running calls are cancellable: construction aborts with the context
// error, the (anytime) refinement phase stops gracefully at the deadline and
// keeps the best assignment found. The hot paths — marginal-gain evaluation
// and profit-matrix construction — run through the fused, parallel gain
// engine of internal/engine; the transportation solves through the
// warm-startable Dijkstra solver of internal/flow.
//
// # Concurrent serving
//
// A Solver is safe for concurrent use, with a read path that never blocks on
// a running solve. Every successful Solve or Resolve publishes an immutable,
// versioned View (an atomically swapped snapshot); View, Result and Progress
// read the latest one lock-free from any goroutine, at any time — including
// mid-solve:
//
//	v := solver.View()           // never blocks; v.Version is monotone
//	_ = v.Result, v.Warm, v.Edits
//
// Edits from concurrent goroutines are judged immediately, by the session's
// own edit rules run on a copy of its edit state that is advanced ahead of
// the session, and coalesced into a pending batch; when no solve is running
// they apply synchronously,
// otherwise they wait for the running solve to finish and drain with the
// next one. ResolveAsync returns a Ticket right away and drains the whole
// pending batch as one warm re-solve in the background; several outstanding
// tickets coalesce into a single solve and all complete with the same
// published Result. The coalesced warm re-solve returns the same assignment
// a cold solve of the identically edited instance would.
//
// Progress callbacks run on the solving goroutine while the solve lock is
// held: calling the blocking Solve or Resolve from inside one panics (it
// would deadlock); View, Progress, Result, the edit mutators and
// ResolveAsync are all callback-safe.
//
// For single-paper (journal) assignment, AssignJournalContext returns the
// exact optimum via branch and bound and TopReviewerGroupsContext the k best
// groups.
package wgrap

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/jra"
)

// Re-exported core types: the data model of Definition 3.
type (
	// Vector is a T-dimensional topic vector.
	Vector = core.Vector
	// Paper is a submission with its topic vector.
	Paper = core.Paper
	// Reviewer is a candidate reviewer with their expertise vector.
	Reviewer = core.Reviewer
	// Instance bundles papers, reviewers, the group size δp, the workload δr,
	// conflicts of interest and the scoring function.
	Instance = core.Instance
	// Assignment maps every paper to its group of reviewers.
	Assignment = core.Assignment
	// ScoreFunc scores how well an expertise vector covers a paper vector.
	ScoreFunc = core.ScoreFunc
	// JournalResult is the outcome of a journal (single-paper) assignment.
	JournalResult = jra.Result
)

// Scoring functions of Definition 1 and Appendix B.
var (
	// WeightedCoverage is the paper's default quality measure (Definition 1).
	WeightedCoverage = core.WeightedCoverage
	// ReviewerCoverage is the winner-takes-all reviewer-side alternative cR.
	ReviewerCoverage = core.ReviewerCoverage
	// PaperCoverage is the paper-side alternative cP.
	PaperCoverage = core.PaperCoverage
	// DotProduct is the inner-product alternative cD.
	DotProduct = core.DotProduct
)

// NewInstance builds a WGRAP instance. groupSize is δp (reviewers per paper);
// workload is δr (papers per reviewer), where 0 selects the minimum balanced
// workload ⌈P·δp/R⌉ used throughout the paper's experiments.
func NewInstance(papers []Paper, reviewers []Reviewer, groupSize, workload int) *Instance {
	in := core.NewInstance(papers, reviewers, groupSize, workload)
	if workload == 0 && len(reviewers) > 0 {
		in.Workload = in.MinWorkload()
	}
	return in
}

// Method identifies a conference assignment algorithm.
type Method string

// Conference assignment methods (Section 4 and the baselines of Section 5.2).
const (
	// MethodSDGASRA is the paper's recommended pipeline: the Stage Deepening
	// Greedy Algorithm followed by stochastic refinement. Default.
	MethodSDGASRA Method = "sdga-sra"
	// MethodSDGA is the Stage Deepening Greedy Algorithm alone
	// ((1−1/e)- or 1/2-approximation).
	MethodSDGA Method = "sdga"
	// MethodGreedy is the pairwise greedy of Long et al. (1/3-approximation).
	MethodGreedy Method = "greedy"
	// MethodBRGG is the Best Reviewer Group Greedy baseline.
	MethodBRGG Method = "brgg"
	// MethodStableMatching is the capacitated Gale–Shapley baseline (SM).
	MethodStableMatching Method = "sm"
	// MethodPairILP maximises the pair-additive (ARAP) objective exactly.
	MethodPairILP Method = "ilp"
)

// Methods lists the available conference assignment methods.
func Methods() []Method {
	return []Method{MethodSDGASRA, MethodSDGA, MethodGreedy, MethodBRGG, MethodStableMatching, MethodPairILP}
}

// Result is the outcome of a conference assignment.
type Result struct {
	// Assignment holds, for every paper index, the assigned reviewer
	// indices; papers withdrawn from the session have empty groups.
	Assignment *Assignment
	// Score is the WGRAP objective value (sum of per-paper coverage scores
	// over the active papers).
	Score float64
	// AverageCoverage is Score divided by the number of active papers.
	AverageCoverage float64
	// LowestCoverage is the coverage score of the worst-served active paper.
	LowestCoverage float64
	// Elapsed is the wall-clock time of the assignment.
	Elapsed time.Duration
	// Method echoes the algorithm used.
	Method Method
}

// AssignJournal finds the optimal reviewer group for a single-paper instance
// (the Journal Reviewer Assignment of Definition 6) with the exact
// Branch-and-Bound Algorithm. It is AssignJournalContext with
// context.Background().
func AssignJournal(in *Instance) (JournalResult, error) {
	return AssignJournalContext(context.Background(), in)
}

// AssignJournalContext is AssignJournal under a context: the exact search
// polls ctx and aborts with its error when cancelled (there is no partial
// optimum to return). Conflict saturation surfaces as ErrConflictSaturated.
func AssignJournalContext(ctx context.Context, in *Instance) (JournalResult, error) {
	res, err := jra.BranchAndBound{}.SolveContext(ctx, in)
	return res, wrapErr(err)
}

// TopReviewerGroups returns the k best reviewer groups for a single-paper
// instance, best first. It is TopReviewerGroupsContext with
// context.Background().
func TopReviewerGroups(in *Instance, k int) ([]JournalResult, error) {
	return TopReviewerGroupsContext(context.Background(), in, k)
}

// TopReviewerGroupsContext is TopReviewerGroups under a context (see
// AssignJournalContext).
func TopReviewerGroupsContext(ctx context.Context, in *Instance, k int) ([]JournalResult, error) {
	res, err := jra.BranchAndBound{}.TopKContext(ctx, in, k)
	return res, wrapErr(err)
}

// OptimalityRatio returns the assignment's score relative to the ideal
// (workload-free) assignment, the quality metric of Section 5.2.
func OptimalityRatio(in *Instance, a *Assignment) float64 {
	return eval.OptimalityRatio(in, a)
}

// SuperiorityRatio returns the fraction of papers that are served at least as
// well by x as by y, together with the fraction of exact ties.
func SuperiorityRatio(in *Instance, x, y *Assignment) (betterOrEqual, ties float64) {
	s := eval.SuperiorityRatio(in, x, y)
	return s.BetterOrEqual, s.Ties
}
