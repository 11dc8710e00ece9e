package core

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func conferenceInstance() *Instance {
	// The 3-reviewer / 3-paper example of Section 4.2.
	reviewers := []Reviewer{
		{ID: "r1", Topics: Vector{0.1, 0.5, 0.4}},
		{ID: "r2", Topics: Vector{1, 0, 0}},
		{ID: "r3", Topics: Vector{0, 1, 0}},
	}
	papers := []Paper{
		{ID: "p1", Topics: Vector{0.6, 0, 0.4}},
		{ID: "p2", Topics: Vector{0.5, 0.5, 0}},
		{ID: "p3", Topics: Vector{0.5, 0.5, 0}},
	}
	return NewInstance(papers, reviewers, 2, 2)
}

func TestInstanceBasics(t *testing.T) {
	in := conferenceInstance()
	if in.NumPapers() != 3 || in.NumReviewers() != 3 || in.NumTopics() != 3 {
		t.Fatalf("sizes = %d/%d/%d", in.NumPapers(), in.NumReviewers(), in.NumTopics())
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := in.MinWorkload(); got != 2 {
		t.Fatalf("MinWorkload = %d, want 2", got)
	}
	if got := in.StageWorkload(); got != 1 {
		t.Fatalf("StageWorkload = %d, want 1", got)
	}
}

func TestInstanceValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Instance)
		want   string
	}{
		{"no papers", func(in *Instance) { in.Papers = nil }, "no papers"},
		{"no reviewers", func(in *Instance) { in.Reviewers = nil }, "no reviewers"},
		{"bad group size", func(in *Instance) { in.GroupSize = 0 }, "group size"},
		{"bad workload", func(in *Instance) { in.Workload = -1 }, "workload"},
		{"dim mismatch paper", func(in *Instance) { in.Papers[1].Topics = Vector{1} }, "paper 1"},
		{"dim mismatch reviewer", func(in *Instance) { in.Reviewers[2].Topics = Vector{1} }, "reviewer 2"},
		{"NaN paper weight", func(in *Instance) { in.Papers[1].Topics = withWeight(in.Papers[1].Topics, 0, math.NaN()) }, "paper 1 topic 0 weight NaN is not finite"},
		{"+Inf reviewer weight", func(in *Instance) { in.Reviewers[2].Topics = withWeight(in.Reviewers[2].Topics, 1, math.Inf(1)) }, "reviewer 2 topic 1 weight +Inf"},
		{"-Inf reviewer weight", func(in *Instance) { in.Reviewers[0].Topics = withWeight(in.Reviewers[0].Topics, 2, math.Inf(-1)) }, "reviewer 0 topic 2 weight -Inf"},
		{"group larger than pool", func(in *Instance) { in.GroupSize = 9 }, "exceeds reviewer pool"},
		{"capacity", func(in *Instance) { in.Workload = 1 }, "insufficient capacity"},
		{"conflict range", func(in *Instance) { in.AddConflict(99, 0) }, "out of range"},
	}
	for _, c := range cases {
		in := conferenceInstance()
		c.mutate(in)
		err := in.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want substring %q", c.name, err, c.want)
		}
	}
}

// TestHasCapacity: the capacity rule R·δr ≥ demand holds exactly at the
// boundary and stays right where the product R·δr would wrap around.
func TestHasCapacity(t *testing.T) {
	cases := []struct {
		r, w, demand int
		want         bool
	}{
		{4, 3, 12, true}, {4, 3, 13, false}, {4, 4, 13, true},
		{12, 4, 48, true}, {12, 3, 48, false},
		{5, 0, 0, true}, {0, 7, 1, false}, {3, -1, 1, false},
		{12, 1 << 62, 48, true},   // R·δr wraps to 0
		{12, 1<<62 + 4, 48, true}, // R·δr wraps to 48
		{3, math.MaxInt, math.MaxInt, true},
		{4, math.MaxInt / 4, math.MaxInt, false},
	}
	for _, c := range cases {
		if got := HasCapacity(c.r, c.w, c.demand); got != c.want {
			t.Errorf("HasCapacity(%d, %d, %d) = %v, want %v", c.r, c.w, c.demand, got, c.want)
		}
	}
	in := conferenceInstance()
	in.Workload = math.MaxInt
	if err := in.Validate(); err != nil {
		t.Fatalf("δr = MaxInt: %v", err)
	}
	if got, want := in.StageWorkload(), (math.MaxInt-1)/in.GroupSize+1; got != want {
		t.Fatalf("StageWorkload at δr = MaxInt = %d, want %d", got, want)
	}
}

// withWeight returns a copy of v with weight t replaced by x.
func withWeight(v Vector, t int, x float64) Vector {
	c := v.Clone()
	c[t] = x
	return c
}

func TestConflicts(t *testing.T) {
	in := conferenceInstance()
	if in.IsConflict(0, 0) {
		t.Fatal("unexpected conflict")
	}
	in.AddConflict(0, 1)
	if !in.IsConflict(0, 1) || in.IsConflict(1, 0) {
		t.Fatal("conflict lookup wrong")
	}
	if got := len(in.Conflicts()); got != 1 {
		t.Fatalf("Conflicts() returned %d entries", got)
	}
}

// TestConflictLists: the per-paper lists stay ascending and without
// repeats whatever order conflicts are added in, Conflicts lists every pair
// once in (paper, reviewer) order, a clone's lists are its own, and a pair
// out of range is kept for Validate to refuse.
func TestConflictLists(t *testing.T) {
	in := conferenceInstance()
	for _, c := range [][2]int{{2, 1}, {0, 1}, {2, 0}, {2, 1}, {1, 1}, {0, 2}} {
		in.AddConflict(c[0], c[1])
	}
	if got := in.PaperConflicts(1); !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("PaperConflicts(1) = %v, want [0 1 2]", got)
	}
	if in.PaperConflicts(-1) != nil || in.PaperConflicts(in.NumPapers()) != nil {
		t.Fatal("PaperConflicts out of range is not nil")
	}
	want := []Conflict{{2, 0}, {0, 1}, {1, 1}, {2, 1}, {0, 2}}
	if got := in.Conflicts(); !slices.Equal(got, want) {
		t.Fatalf("Conflicts() = %v, want %v", got, want)
	}
	c := in.Clone()
	c.AddConflict(1, 0)
	if in.IsConflict(1, 0) || !slices.Equal(in.PaperConflicts(0), []int{2}) {
		t.Fatalf("clone's AddConflict reached the original: %v", in.PaperConflicts(0))
	}
	if !slices.Equal(c.PaperConflicts(0), []int{1, 2}) || !slices.Equal(c.PaperConflicts(1), []int{0, 1, 2}) {
		t.Fatalf("clone lists %v %v", c.PaperConflicts(0), c.PaperConflicts(1))
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{-1, in.NumPapers()} {
		bad := in.Clone()
		bad.AddConflict(0, p)
		bad.AddConflict(0, p)
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("paper %d: Validate = %v, want out of range", p, err)
		}
		if !bad.IsConflict(0, p) || len(bad.Conflicts()) != len(want)+1 {
			t.Fatalf("paper %d: stray pair lost: %v", p, bad.Conflicts())
		}
	}
}

func TestJournalInstance(t *testing.T) {
	in := conferenceInstance()
	in.AddConflict(1, 2)
	in.AddConflict(2, 0)
	ji := in.JournalInstance(2)
	if ji.NumPapers() != 1 || ji.Papers[0].ID != "p3" {
		t.Fatalf("JournalInstance paper = %+v", ji.Papers)
	}
	if !ji.IsConflict(1, 0) {
		t.Fatal("conflict of the selected paper not carried over")
	}
	if ji.IsConflict(2, 0) {
		t.Fatal("conflict of a different paper leaked into journal instance")
	}
	if ji.Workload != 1 {
		t.Fatalf("journal workload = %d, want 1", ji.Workload)
	}
}

func TestScoreFnDefault(t *testing.T) {
	in := conferenceInstance()
	in.Score = nil
	if got := in.PairScore(0, 1); !almostEqual(got, 0.6) {
		t.Fatalf("default PairScore = %v, want 0.6", got)
	}
	in.Score = DotProduct
	if got := in.ScoreFn()(Vector{1, 0, 0}, Vector{0.5, 0.5, 0}); !almostEqual(got, 0.5) {
		t.Fatalf("custom ScoreFn not used, got %v", got)
	}
}

func TestAssignmentBasics(t *testing.T) {
	a := NewAssignment(3)
	a.Assign(0, 2)
	a.Assign(0, 1)
	a.Assign(1, 2)
	if !a.Contains(0, 2) || a.Contains(2, 0) {
		t.Fatal("Contains wrong")
	}
	if a.Pairs() != 3 {
		t.Fatalf("Pairs = %d", a.Pairs())
	}
	loads := a.ReviewerLoads(4)
	if loads[2] != 2 || loads[1] != 1 || loads[0] != 0 {
		t.Fatalf("ReviewerLoads = %v", loads)
	}
	if !a.Remove(0, 2) || a.Remove(0, 2) {
		t.Fatal("Remove semantics wrong")
	}
	s := a.Sorted()
	if len(s.Groups[0]) != 1 || s.Groups[0][0] != 1 {
		t.Fatalf("Sorted = %+v", s.Groups)
	}
}

func TestAssignmentCloneIndependence(t *testing.T) {
	a := NewAssignment(2)
	a.Assign(0, 1)
	b := a.Clone()
	b.Assign(0, 2)
	if len(a.Groups[0]) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestAssignmentScoreSectionFourExample(t *testing.T) {
	in := conferenceInstance()
	// Greedy-style assignment from Section 4.2: giving r1 to p2 and p3 first
	// prevents topic t3 of p1 from being covered in the second stage.
	bad := NewAssignment(3)
	bad.Assign(1, 0) // r1 -> p2
	bad.Assign(2, 0) // r1 -> p3
	bad.Assign(0, 1) // r2 -> p1
	bad.Assign(0, 2) // r3 -> p1 (cannot cover t3)
	bad.Assign(1, 1)
	bad.Assign(2, 2)

	good := NewAssignment(3)
	good.Assign(0, 0) // reserve r1 for p1 so t3 is covered
	good.Assign(0, 1)
	good.Assign(1, 1)
	good.Assign(1, 2)
	good.Assign(2, 0)
	good.Assign(2, 2)

	if err := in.ValidateAssignment(good); err != nil {
		t.Fatalf("good assignment invalid: %v", err)
	}
	if in.AssignmentScore(good) <= in.AssignmentScore(bad) {
		t.Fatalf("expected reserving r1 to improve the score: good=%v bad=%v",
			in.AssignmentScore(good), in.AssignmentScore(bad))
	}
}

func TestValidateAssignmentErrors(t *testing.T) {
	in := conferenceInstance()
	full := func() *Assignment {
		a := NewAssignment(3)
		a.Assign(0, 0)
		a.Assign(0, 1)
		a.Assign(1, 1)
		a.Assign(1, 2)
		a.Assign(2, 0)
		a.Assign(2, 2)
		return a
	}
	if err := in.ValidateAssignment(full()); err != nil {
		t.Fatalf("valid assignment rejected: %v", err)
	}

	a := full()
	a.Groups[0] = a.Groups[0][:1]
	if err := in.ValidateAssignment(a); err == nil {
		t.Fatal("short group accepted")
	}

	a = full()
	a.Groups[1] = []int{2, 2}
	if err := in.ValidateAssignment(a); err == nil {
		t.Fatal("duplicate reviewer accepted")
	}

	a = full()
	a.Groups[1] = []int{2, 7}
	if err := in.ValidateAssignment(a); err == nil {
		t.Fatal("out-of-range reviewer accepted")
	}

	in2 := conferenceInstance()
	in2.AddConflict(0, 0)
	if err := in2.ValidateAssignment(full()); err == nil {
		t.Fatal("conflicting assignment accepted")
	}

	in3 := conferenceInstance()
	in3.Workload = 2
	b := full()
	// Overload reviewer 0 by swapping one slot.
	b.Groups[1] = []int{0, 1}
	if err := in3.ValidateAssignment(b); err == nil {
		t.Fatal("overloaded reviewer accepted")
	}

	if err := in.ValidateAssignment(NewAssignment(1)); err == nil {
		t.Fatal("wrong paper count accepted")
	}
}

func TestValidatePartial(t *testing.T) {
	in := conferenceInstance()
	a := NewAssignment(3)
	a.Assign(0, 0)
	if err := in.ValidatePartial(a); err != nil {
		t.Fatalf("partial assignment rejected: %v", err)
	}
	a.Assign(0, 1)
	a.Assign(0, 2)
	if err := in.ValidatePartial(a); err == nil {
		t.Fatal("oversized group accepted by ValidatePartial")
	}
}

func TestPaperScores(t *testing.T) {
	in := conferenceInstance()
	a := NewAssignment(3)
	a.Assign(0, 0)
	a.Assign(0, 1)
	scores := in.PaperScores(a)
	if len(scores) != 3 {
		t.Fatalf("len(scores) = %d", len(scores))
	}
	if !almostEqual(scores[0], in.GroupScore(0, []int{0, 1})) {
		t.Fatalf("scores[0] = %v", scores[0])
	}
	if scores[1] != 0 || scores[2] != 0 {
		t.Fatalf("unassigned papers should score 0: %v", scores)
	}
}

func TestRandomInstanceValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		in := randomInstance(rng, 1+rng.Intn(6), 3+rng.Intn(6), 2+rng.Intn(8))
		if err := in.Validate(); err != nil {
			t.Fatalf("random instance invalid: %v", err)
		}
	}
}

func TestInstanceVersionAndClone(t *testing.T) {
	in := NewInstance(
		[]Paper{{Topics: Vector{1, 0}}, {Topics: Vector{0, 1}}},
		[]Reviewer{{Topics: Vector{1, 0}}, {Topics: Vector{0, 1}}, {Topics: Vector{0.5, 0.5}}},
		2, 2)
	v0 := in.Version()
	in.AddConflict(0, 0)
	if in.Version() == v0 {
		t.Fatal("AddConflict did not bump the version")
	}
	if got := in.AddReviewer(Reviewer{Topics: Vector{0.2, 0.8}}); got != 3 {
		t.Fatalf("AddReviewer index = %d, want 3", got)
	}
	v1 := in.Version()

	c := in.Clone()
	if c.Version() != v1 || c.NumReviewers() != 4 || !c.IsConflict(0, 0) {
		t.Fatal("clone does not match the original")
	}
	// Mutations must not leak across the clone boundary, in either direction.
	c.AddConflict(1, 1)
	if in.IsConflict(1, 1) {
		t.Fatal("clone conflict leaked into the original")
	}
	in.AddReviewer(Reviewer{Topics: Vector{0.9, 0.1}})
	in.AddReviewer(Reviewer{Topics: Vector{0.1, 0.9}})
	if c.NumReviewers() != 4 {
		t.Fatal("original reviewer append leaked into the clone")
	}
	if in.Version() == c.Version() {
		t.Fatal("versions should have diverged")
	}
}
