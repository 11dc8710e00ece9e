package wgrap

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/cra"
	"repro/internal/flow"
	"repro/internal/jra"
)

// Structured sentinel errors. Every error returned by the package either is
// one of these (wrapped with detail, so test with errors.Is), a context
// error (context.Canceled / context.DeadlineExceeded passed through
// untouched), or an internal error that has no public classification.
var (
	// ErrUnknownMethod reports an unrecognised assignment Method.
	ErrUnknownMethod = errors.New("wgrap: unknown method")
	// ErrInvalidInstance reports a malformed instance: no papers or
	// reviewers, inconsistent topic dimensions, a NaN or ±Inf topic weight,
	// non-positive constraints or out-of-range conflict indices.
	ErrInvalidInstance = errors.New("wgrap: invalid instance")
	// ErrInfeasible reports that no assignment can satisfy the constraints:
	// the reviewer pool's total capacity R·δr is below the demand P·δp, or a
	// transportation stage cannot serve every paper.
	ErrInfeasible = errors.New("wgrap: infeasible instance")
	// ErrConflictSaturated reports that conflicts of interest leave a paper
	// with fewer than δp eligible reviewers, so the paper can never receive
	// a full group. Solver.AddConflict returns it to reject the edit;
	// RestorePaper returns it when conflicts accumulated while the paper was
	// withdrawn.
	ErrConflictSaturated = errors.New("wgrap: conflicts leave a paper with fewer eligible reviewers than the group size")
	// ErrInvalidEdit reports a session edit with out-of-range indices, a
	// mismatched topic dimension, a NaN or ±Inf topic weight, or a
	// non-positive workload.
	ErrInvalidEdit = errors.New("wgrap: invalid edit")
	// ErrJournalExists reports that WithJournalDir points at a directory that
	// already holds durable session state; restore it with RestoreSolver
	// instead of overwriting.
	ErrJournalExists = errors.New("wgrap: journal directory already holds session state")
)

// wrapErr maps internal-layer errors onto the public sentinels; context
// errors pass through untouched so errors.Is(err, context.Canceled) keeps
// working across the boundary.
func wrapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return err
	case errors.Is(err, cra.ErrConflictSaturated) || errors.Is(err, jra.ErrTooFewCandidates):
		return fmt.Errorf("%w: %v", ErrConflictSaturated, err)
	case errors.Is(err, flow.ErrInfeasible) || errors.Is(err, cra.ErrInsufficientCapacity):
		return fmt.Errorf("%w: %v", ErrInfeasible, err)
	default:
		return err
	}
}

// wrapInstanceErr classifies an instance-validation failure: capacity
// shortfalls are feasibility problems, everything else is malformed input.
func wrapInstanceErr(in *Instance, err error) error {
	if err == nil {
		return nil
	}
	if len(in.Papers) > 0 && len(in.Reviewers) > 0 &&
		in.GroupSize > 0 && in.Workload > 0 &&
		!core.HasCapacity(in.NumReviewers(), in.Workload, in.NumPapers()*in.GroupSize) {
		return fmt.Errorf("%w: %v", ErrInfeasible, err)
	}
	return fmt.Errorf("%w: %v", ErrInvalidInstance, err)
}
