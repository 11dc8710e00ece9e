package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// Reviewer is a member of the candidate reviewer pool. Topics is the
// T-dimensional expertise vector extracted from the reviewer's publication
// record (Section 2.4). HIndex is optional metadata used by the h-index
// scaling experiment (Figure 21(d)).
type Reviewer struct {
	ID     string
	Name   string
	Topics Vector
	HIndex int
}

// Paper is a submission. Topics is the T-dimensional content vector of the
// paper (Section 2.4).
type Paper struct {
	ID     string
	Title  string
	Topics Vector
}

// Conflict identifies a reviewer-paper pair that must never be assigned
// (conflict of interest). Indices refer to positions in Instance.Reviewers
// and Instance.Papers.
type Conflict struct {
	Reviewer int
	Paper    int
}

// Instance bundles everything a WGRAP solver needs: the papers, the reviewer
// pool, the group size constraint δp, the reviewer workload δr, the conflicts
// of interest and the scoring function.
type Instance struct {
	Papers    []Paper
	Reviewers []Reviewer

	// GroupSize is δp: the exact number of reviewers every paper receives.
	GroupSize int
	// Workload is δr: the maximum number of papers per reviewer.
	Workload int

	// Score is the per-pair / per-group coverage scoring function. Nil means
	// WeightedCoverage (Definition 1).
	Score ScoreFunc

	// conflicts[p] lists the reviewers in conflict with paper p, ascending
	// and without repeats; nil until the first conflict is added. stray
	// holds the pairs whose paper index was out of range when added, in the
	// order added, so that Validate can refuse them.
	conflicts [][]int
	stray     []Conflict

	// version counts structural mutations made through the Instance's
	// methods (AddConflict, AddReviewer). Long-lived solver sessions use it
	// to detect instance drift and invalidate warm state conservatively.
	version uint64
}

// NewInstance builds an instance with the weighted coverage scoring function
// and no conflicts of interest.
func NewInstance(papers []Paper, reviewers []Reviewer, groupSize, workload int) *Instance {
	return &Instance{
		Papers:    papers,
		Reviewers: reviewers,
		GroupSize: groupSize,
		Workload:  workload,
		Score:     WeightedCoverage,
	}
}

// NumPapers returns P.
func (in *Instance) NumPapers() int { return len(in.Papers) }

// NumReviewers returns R.
func (in *Instance) NumReviewers() int { return len(in.Reviewers) }

// NumTopics returns T, taken from the first paper or reviewer vector.
func (in *Instance) NumTopics() int {
	if len(in.Papers) > 0 {
		return in.Papers[0].Topics.Dim()
	}
	if len(in.Reviewers) > 0 {
		return in.Reviewers[0].Topics.Dim()
	}
	return 0
}

// ScoreFn returns the configured scoring function, defaulting to
// WeightedCoverage when none was set.
func (in *Instance) ScoreFn() ScoreFunc {
	if in.Score == nil {
		return WeightedCoverage
	}
	return in.Score
}

// AddConflict registers a conflict of interest between reviewer r and paper
// p. Add a paper before its conflicts: a pair whose paper index is out of
// range when added stays out of range, and Validate refuses it. Adding
// reviewers in ascending order per paper appends; any other order inserts.
func (in *Instance) AddConflict(r, p int) {
	in.version++
	if p < 0 || p >= len(in.Papers) {
		in.stray = append(in.stray, Conflict{Reviewer: r, Paper: p})
		return
	}
	if len(in.conflicts) <= p {
		in.conflicts = append(in.conflicts, make([][]int, len(in.Papers)-len(in.conflicts))...)
	}
	list := in.conflicts[p]
	if i, found := slices.BinarySearch(list, r); !found {
		in.conflicts[p] = slices.Insert(list, i, r)
	}
}

// AddReviewer appends a reviewer to the pool and returns its index.
func (in *Instance) AddReviewer(r Reviewer) int {
	in.Reviewers = append(in.Reviewers, r)
	in.version++
	return len(in.Reviewers) - 1
}

// Version counts the structural mutations made through the instance's
// methods; it changes whenever a conflict or reviewer is added. Sessions
// record it to detect edits and invalidate warm solver state.
func (in *Instance) Version() uint64 { return in.version }

// Clone returns a session-private copy of the instance: the paper and
// reviewer slices and the conflict set are copied, so later mutations of the
// original (or of the clone) do not leak across. Topic vectors are shared —
// they are treated as immutable throughout the library.
func (in *Instance) Clone() *Instance {
	c := &Instance{
		Papers:    append([]Paper(nil), in.Papers...),
		Reviewers: append([]Reviewer(nil), in.Reviewers...),
		GroupSize: in.GroupSize,
		Workload:  in.Workload,
		Score:     in.Score,
		version:   in.version,
	}
	if in.conflicts != nil {
		// One backing array for every list; each list's capacity ends at
		// its length, so an AddConflict on the clone copies the list first.
		flat := make([]int, 0, in.numListed())
		c.conflicts = make([][]int, len(in.conflicts))
		for p, list := range in.conflicts {
			off := len(flat)
			flat = append(flat, list...)
			c.conflicts[p] = flat[off:len(flat):len(flat)]
		}
	}
	c.stray = slices.Clone(in.stray)
	return c
}

// numListed counts the conflicts of the per-paper lists.
func (in *Instance) numListed() int {
	n := 0
	for _, list := range in.conflicts {
		n += len(list)
	}
	return n
}

// IsConflict reports whether assigning reviewer r to paper p is forbidden.
// It inlines, so on an instance without conflicts it costs no call.
func (in *Instance) IsConflict(r, p int) bool {
	return (in.conflicts != nil || in.stray != nil) && in.findConflict(r, p)
}

// findConflict is IsConflict's lookup: a binary search of paper p's list,
// or a scan of the out-of-range pairs.
func (in *Instance) findConflict(r, p int) bool {
	if uint(p) < uint(len(in.conflicts)) {
		_, found := slices.BinarySearch(in.conflicts[p], r)
		return found
	}
	return slices.Contains(in.stray, Conflict{Reviewer: r, Paper: p})
}

// PaperConflicts returns the reviewers in conflict with paper p, ascending
// and without repeats (nil for none, and for a paper index out of range).
// The slice is the instance's own: callers must not modify it, and it is
// valid until the next AddConflict.
func (in *Instance) PaperConflicts(p int) []int {
	if p < 0 || p >= len(in.conflicts) {
		return nil
	}
	return in.conflicts[p]
}

// Conflicts returns all registered conflicts of interest in ascending
// (paper, reviewer) order, each once.
func (in *Instance) Conflicts() []Conflict {
	out := make([]Conflict, 0, in.numListed()+len(in.stray))
	for p, list := range in.conflicts {
		for _, r := range list {
			out = append(out, Conflict{Reviewer: r, Paper: p})
		}
	}
	if len(in.stray) > 0 {
		out = append(out, in.stray...)
		slices.SortFunc(out, func(a, b Conflict) int {
			return cmp.Or(cmp.Compare(a.Paper, b.Paper), cmp.Compare(a.Reviewer, b.Reviewer))
		})
		out = slices.Compact(out)
	}
	return out
}

// MinWorkload returns the smallest feasible reviewer workload
// ⌈P·δp / R⌉ (Section 5.2 uses this as the default δr).
func (in *Instance) MinWorkload() int {
	if in.NumReviewers() == 0 {
		return 0
	}
	need := in.NumPapers() * in.GroupSize
	return (need + in.NumReviewers() - 1) / in.NumReviewers()
}

// StageWorkload returns the per-stage reviewer workload ⌈δr/δp⌉ used by the
// Stage Deepening Greedy Algorithm (Definition 9), computed as
// (δr−1)/δp+1 so that no δr overflows it.
func (in *Instance) StageWorkload() int {
	if in.GroupSize <= 0 || in.Workload <= 0 {
		return 0
	}
	return (in.Workload-1)/in.GroupSize + 1
}

// HasCapacity reports whether a pool of R reviewers, each taking at most
// workload δr papers, can carry demand review slots: R·δr ≥ demand. It
// compares δr with ⌈demand/R⌉ and never forms the product R·δr, which wraps
// around once δr reaches 2⁶³/R; δr comes from outside the program, in create
// and edit requests.
func HasCapacity(reviewers, workload, demand int) bool {
	if demand <= 0 {
		return true
	}
	if reviewers <= 0 {
		return false
	}
	return workload >= (demand-1)/reviewers+1
}

// Validate checks that the instance is well formed: consistent vector
// dimensions, finite topic weights, positive constraints and enough total
// reviewer capacity (R·δr ≥ P·δp as assumed in Section 2.2).
func (in *Instance) Validate() error {
	if len(in.Papers) == 0 {
		return errors.New("core: instance has no papers")
	}
	if len(in.Reviewers) == 0 {
		return errors.New("core: instance has no reviewers")
	}
	if in.GroupSize <= 0 {
		return fmt.Errorf("core: group size δp must be positive, got %d", in.GroupSize)
	}
	if in.Workload <= 0 {
		return fmt.Errorf("core: workload δr must be positive, got %d", in.Workload)
	}
	t := in.NumTopics()
	if t == 0 {
		return errors.New("core: topic dimension is zero")
	}
	for i, p := range in.Papers {
		if p.Topics.Dim() != t {
			return fmt.Errorf("core: paper %d has %d topics, want %d", i, p.Topics.Dim(), t)
		}
		if k := p.Topics.NonFinite(); k >= 0 {
			return fmt.Errorf("core: paper %d topic %d weight %v is not finite", i, k, p.Topics[k])
		}
	}
	for i, r := range in.Reviewers {
		if r.Topics.Dim() != t {
			return fmt.Errorf("core: reviewer %d has %d topics, want %d", i, r.Topics.Dim(), t)
		}
		if k := r.Topics.NonFinite(); k >= 0 {
			return fmt.Errorf("core: reviewer %d topic %d weight %v is not finite", i, k, r.Topics[k])
		}
	}
	if in.GroupSize > in.NumReviewers() {
		return fmt.Errorf("core: group size δp=%d exceeds reviewer pool R=%d", in.GroupSize, in.NumReviewers())
	}
	if !HasCapacity(in.NumReviewers(), in.Workload, in.NumPapers()*in.GroupSize) {
		return fmt.Errorf("core: insufficient capacity: R=%d reviewers at δr=%d cannot carry P·δp=%d",
			in.NumReviewers(), in.Workload, in.NumPapers()*in.GroupSize)
	}
	for p, list := range in.conflicts {
		if len(list) == 0 {
			continue
		}
		if lo, hi := list[0], list[len(list)-1]; lo < 0 || hi >= in.NumReviewers() || p >= in.NumPapers() {
			r := lo
			if lo >= 0 {
				r = hi
			}
			return fmt.Errorf("core: conflict (%d,%d) out of range", r, p)
		}
	}
	if len(in.stray) > 0 {
		return fmt.Errorf("core: conflict (%d,%d) out of range", in.stray[0].Reviewer, in.stray[0].Paper)
	}
	return nil
}

// JournalInstance builds a single-paper instance (the Journal Reviewer
// Assignment special case of Definition 6) that shares the reviewer pool,
// scoring function and conflicts of paper p in the receiver.
func (in *Instance) JournalInstance(p int) *Instance {
	ji := &Instance{
		Papers:    []Paper{in.Papers[p]},
		Reviewers: in.Reviewers,
		GroupSize: in.GroupSize,
		Workload:  1,
		Score:     in.Score,
	}
	for _, r := range in.PaperConflicts(p) {
		ji.AddConflict(r, 0)
	}
	return ji
}
