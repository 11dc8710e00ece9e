package cra

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/core"
)

// ErrInvalidEdit is returned for a malformed session edit: an index out of
// range, a reviewer whose topic vector has the wrong dimension or a NaN or
// ±Inf weight, a non-positive workload, or an unknown op.
var ErrInvalidEdit = errors.New("cra: invalid edit")

// EditOp names a session edit; there is one per Session mutator.
type EditOp uint8

// The session edits.
const (
	// OpAddConflict registers a conflict of interest between reviewer R and
	// paper P.
	OpAddConflict EditOp = iota
	// OpWithdrawPaper withdraws paper P.
	OpWithdrawPaper
	// OpRestorePaper restores the withdrawn paper P.
	OpRestorePaper
	// OpAddReviewer appends Reviewer to the pool.
	OpAddReviewer
	// OpSetWorkload sets the per-reviewer workload δr to Workload.
	OpSetWorkload
)

// Edit is one session edit. Op selects which of the other fields it reads.
type Edit struct {
	Op       EditOp
	R, P     int
	Reviewer core.Reviewer
	Workload int
}

// EditState is what the edit rules read: the pool size, the topic
// dimension, δp, δr, the number of active papers, the withdrawn flags, the
// per-paper conflict counts and the conflict set. Check judges an edit
// against it and Apply advances it, so a Session and any copy of its state
// advanced by the same edits in the same order agree on every verdict. The
// wgrap.Solver keeps such a copy to answer an edit while a solve owns the
// session.
type EditState struct {
	reviewers int
	topics    int
	groupSize int
	workload  int
	activeN   int
	withdrawn []bool
	// conflictN[p] counts paper p's conflicts, so the saturation rule is
	// O(1) instead of a scan of the conflict set.
	conflictN []int
	conflicts map[core.Conflict]struct{}
}

// NewEditState builds the edit state of in, with the papers flagged in
// withdrawn (nil for none) withdrawn. It copies everything it keeps.
func NewEditState(in *core.Instance, withdrawn []bool) EditState {
	P := in.NumPapers()
	e := EditState{
		reviewers: in.NumReviewers(),
		topics:    in.NumTopics(),
		groupSize: in.GroupSize,
		workload:  in.Workload,
		withdrawn: make([]bool, P),
		conflictN: make([]int, P),
		conflicts: make(map[core.Conflict]struct{}),
	}
	copy(e.withdrawn, withdrawn)
	for _, w := range e.withdrawn {
		if !w {
			e.activeN++
		}
	}
	for _, c := range in.Conflicts() {
		if c.Paper >= 0 && c.Paper < P {
			e.conflicts[c] = struct{}{}
			e.conflictN[c.Paper]++
		}
	}
	return e
}

// Clone returns a deep copy: Apply on either copy leaves the other as it
// was.
func (e *EditState) Clone() EditState {
	c := *e
	c.withdrawn = slices.Clone(e.withdrawn)
	c.conflictN = slices.Clone(e.conflictN)
	c.conflicts = maps.Clone(e.conflicts)
	return c
}

// Active reports whether paper p exists and is not withdrawn.
func (e *EditState) Active(p int) bool {
	return p >= 0 && p < len(e.withdrawn) && !e.withdrawn[p]
}

// ActivePapers returns the number of papers not withdrawn.
func (e *EditState) ActivePapers() int { return e.activeN }

// Reviewers returns the size of the reviewer pool.
func (e *EditState) Reviewers() int { return e.reviewers }

// eligible returns how many reviewers may serve paper p.
func (e *EditState) eligible(p int) int { return e.reviewers - e.conflictN[p] }

// saturated returns the first active paper with fewer than δp eligible
// reviewers, or -1 when there is none.
func (e *EditState) saturated() int {
	for p, w := range e.withdrawn {
		if !w && e.eligible(p) < e.groupSize {
			return p
		}
	}
	return -1
}

// Check judges ed without changing anything. It returns ErrInvalidEdit for
// a malformed edit, ErrConflictSaturated for a conflict or a restore that
// would leave an active paper with fewer than δp eligible reviewers, and
// ErrInsufficientCapacity for a restore or a workload the pool cannot carry.
// An edit that changes nothing (a duplicate conflict, withdrawing a
// withdrawn paper) is accepted.
func (e *EditState) Check(ed *Edit) error {
	papers := len(e.withdrawn)
	switch ed.Op {
	case OpAddConflict:
		if ed.R < 0 || ed.R >= e.reviewers || ed.P < 0 || ed.P >= papers {
			return fmt.Errorf("%w: conflict (%d,%d) out of range", ErrInvalidEdit, ed.R, ed.P)
		}
		if _, dup := e.conflicts[core.Conflict{Reviewer: ed.R, Paper: ed.P}]; dup {
			return nil
		}
		if !e.withdrawn[ed.P] && e.eligible(ed.P)-1 < e.groupSize {
			return fmt.Errorf("%w (paper %d)", ErrConflictSaturated, ed.P)
		}
	case OpWithdrawPaper, OpRestorePaper:
		if ed.P < 0 || ed.P >= papers {
			return fmt.Errorf("%w: paper %d out of range", ErrInvalidEdit, ed.P)
		}
		if ed.Op == OpRestorePaper && e.withdrawn[ed.P] {
			if e.eligible(ed.P) < e.groupSize {
				return fmt.Errorf("%w (paper %d)", ErrConflictSaturated, ed.P)
			}
			if !core.HasCapacity(e.reviewers, e.workload, (e.activeN+1)*e.groupSize) {
				return ErrInsufficientCapacity
			}
		}
	case OpAddReviewer:
		if d := ed.Reviewer.Topics.Dim(); d != e.topics {
			return fmt.Errorf("%w: reviewer has %d topics, want %d", ErrInvalidEdit, d, e.topics)
		}
		if k := ed.Reviewer.Topics.NonFinite(); k >= 0 {
			return fmt.Errorf("%w: reviewer topic %d weight %v is not finite", ErrInvalidEdit, k, ed.Reviewer.Topics[k])
		}
	case OpSetWorkload:
		if ed.Workload <= 0 {
			return fmt.Errorf("%w: workload δr must be positive, got %d", ErrInvalidEdit, ed.Workload)
		}
		if !core.HasCapacity(e.reviewers, ed.Workload, e.activeN*e.groupSize) {
			return ErrInsufficientCapacity
		}
	default:
		return fmt.Errorf("%w: unknown op %d", ErrInvalidEdit, ed.Op)
	}
	return nil
}

// Apply advances the state by ed, which must have passed Check against
// this state, and reports whether ed changed anything.
func (e *EditState) Apply(ed *Edit) bool {
	switch ed.Op {
	case OpAddConflict:
		c := core.Conflict{Reviewer: ed.R, Paper: ed.P}
		if _, dup := e.conflicts[c]; dup {
			return false
		}
		e.conflicts[c] = struct{}{}
		e.conflictN[ed.P]++
	case OpWithdrawPaper, OpRestorePaper:
		withdraw := ed.Op == OpWithdrawPaper
		if e.withdrawn[ed.P] == withdraw {
			return false
		}
		e.withdrawn[ed.P] = withdraw
		if withdraw {
			e.activeN--
		} else {
			e.activeN++
		}
	case OpAddReviewer:
		e.reviewers++
	case OpSetWorkload:
		if ed.Workload == e.workload {
			return false
		}
		e.workload = ed.Workload
	}
	return true
}
