package engine

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
)

// randInstance builds a random conference instance with the given scoring
// function.
func randInstance(rng *rand.Rand, p, r, t int, score core.ScoreFunc) *core.Instance {
	papers := make([]core.Paper, p)
	for i := range papers {
		papers[i] = core.Paper{Topics: randVec(rng, t)}
	}
	reviewers := make([]core.Reviewer, r)
	for i := range reviewers {
		reviewers[i] = core.Reviewer{Topics: randVec(rng, t)}
	}
	in := core.NewInstance(papers, reviewers, 3, 0)
	in.Workload = in.MinWorkload()
	in.Score = score
	return in
}

func randVec(rng *rand.Rand, t int) core.Vector {
	v := make(core.Vector, t)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v.Normalized()
}

// randGroupVec builds a partially filled group vector from a few random
// reviewers, so gains are exercised against non-trivial running groups.
func randGroupVec(rng *rand.Rand, in *core.Instance) core.Vector {
	g := make(core.Vector, in.NumTopics())
	for k := rng.Intn(3); k > 0; k-- {
		g.MaxInPlace(in.Reviewers[rng.Intn(in.NumReviewers())].Topics)
	}
	return g
}

// scoringTable lists the four paper scoring functions plus the nil default
// and an unrecognised custom function (which must hit the generic fallback).
func scoringTable() map[string]core.ScoreFunc {
	table := map[string]core.ScoreFunc{"nil-default": nil}
	for name, fn := range core.ScoringFunctions {
		table[name] = fn
	}
	// A custom function the oracle cannot recognise: squared coverage.
	table["custom-generic"] = func(g, p core.Vector) float64 {
		c := core.WeightedCoverage(g, p)
		return c * c
	}
	return table
}

// TestGainParity is the engine parity requirement: for every scoring
// function the fused gain must match core.Instance.GainWithVector to 1e-12
// on random instances.
func TestGainParity(t *testing.T) {
	for name, fn := range scoringTable() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 20; trial++ {
				in := randInstance(rng, 1+rng.Intn(8), 3+rng.Intn(10), 1+rng.Intn(40), fn)
				o := New(in)
				for p := 0; p < in.NumPapers(); p++ {
					g := randGroupVec(rng, in)
					for r := 0; r < in.NumReviewers(); r++ {
						want := in.GainWithVector(p, g, r)
						got := o.Gain(p, g, r)
						if math.Abs(got-want) > 1e-12 {
							t.Fatalf("trial %d: gain(p=%d, r=%d) = %.17g, want %.17g", trial, p, r, got, want)
						}
					}
				}
			}
		})
	}
}

// TestScoreParity checks the fused Score, PairScore and GroupScore against
// the generic core paths.
func TestScoreParity(t *testing.T) {
	for name, fn := range scoringTable() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 20; trial++ {
				in := randInstance(rng, 1+rng.Intn(6), 3+rng.Intn(8), 1+rng.Intn(30), fn)
				o := New(in)
				score := in.ScoreFn()
				for p := 0; p < in.NumPapers(); p++ {
					g := randGroupVec(rng, in)
					if got, want := o.Score(g, p), score(g, in.Papers[p].Topics); math.Abs(got-want) > 1e-12 {
						t.Fatalf("Score(p=%d) = %g, want %g", p, got, want)
					}
					for r := 0; r < in.NumReviewers(); r++ {
						if got, want := o.PairScore(r, p), in.PairScore(r, p); math.Abs(got-want) > 1e-12 {
							t.Fatalf("PairScore(r=%d, p=%d) = %g, want %g", r, p, got, want)
						}
					}
					group := []int{rng.Intn(in.NumReviewers()), rng.Intn(in.NumReviewers())}
					if got, want := o.GroupScore(p, group), in.GroupScore(p, group); math.Abs(got-want) > 1e-12 {
						t.Fatalf("GroupScore(p=%d, %v) = %g, want %g", p, group, got, want)
					}
				}
			}
		})
	}
}

// TestAssignmentScoreParity checks the fused assignment scoring against the
// core implementation.
func TestAssignmentScoreParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := randInstance(rng, 12, 9, 20, nil)
	a := core.NewAssignment(in.NumPapers())
	for p := 0; p < in.NumPapers(); p++ {
		for k := 0; k < in.GroupSize; k++ {
			a.Assign(p, rng.Intn(in.NumReviewers()))
		}
	}
	o := New(in)
	if got, want := o.AssignmentScore(a), in.AssignmentScore(a); math.Abs(got-want) > 1e-12 {
		t.Fatalf("AssignmentScore = %g, want %g", got, want)
	}
	ps, want := o.PaperScores(a), in.PaperScores(a)
	for p := range ps {
		if math.Abs(ps[p]-want[p]) > 1e-12 {
			t.Fatalf("PaperScores[%d] = %g, want %g", p, ps[p], want[p])
		}
	}
}

// TestFillProfitParity compares the parallel flat-matrix build against a
// straightforward sequential build through the core gain path, including
// forbidden cells and a modular bonus.
func TestFillProfitParity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		in := randInstance(rng, 5+rng.Intn(40), 4+rng.Intn(30), 1+rng.Intn(25), nil)
		for k := 0; k < 10; k++ {
			in.AddConflict(rng.Intn(in.NumReviewers()), rng.Intn(in.NumPapers()))
		}
		groupVecs := make([]core.Vector, in.NumPapers())
		for p := range groupVecs {
			groupVecs[p] = randGroupVec(rng, in)
		}
		const forbidden = -1e18
		bonus := func(p, r int) float64 { return float64(p) * 0.001 }
		o := New(in)
		var m Matrix
		spec := ProfitSpec{
			GroupVecs:      groupVecs,
			Forbidden:      func(p, r int) bool { return in.IsConflict(r, p) },
			ForbiddenValue: forbidden,
			Bonus:          bonus,
		}
		if err := o.FillProfit(context.Background(), &m, spec); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < in.NumPapers(); p++ {
			for r := 0; r < in.NumReviewers(); r++ {
				want := forbidden
				if !in.IsConflict(r, p) {
					want = in.GainWithVector(p, groupVecs[p], r) + bonus(p, r)
				}
				if math.Abs(m.Row(p)[r]-want) > 1e-12 {
					t.Fatalf("trial %d: cell (%d,%d) = %g, want %g", trial, p, r, m.Row(p)[r], want)
				}
			}
		}
	}
}

// TestFillPairScoresParity checks the pair-score convenience fill.
func TestFillPairScoresParity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := randInstance(rng, 17, 13, 15, core.DotProduct)
	o := New(in)
	var m Matrix
	if err := o.FillProfit(context.Background(), &m, ProfitSpec{}); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < in.NumPapers(); p++ {
		for r := 0; r < in.NumReviewers(); r++ {
			if got, want := m.Row(p)[r], in.PairScore(r, p); math.Abs(got-want) > 1e-12 {
				t.Fatalf("cell (%d,%d) = %g, want %g", p, r, got, want)
			}
		}
	}
}

// TestMatrixReuse verifies reset reuses the backing buffer and the row views
// stay consistent across shrinking and growing dimensions.
func TestMatrixReuse(t *testing.T) {
	var m Matrix
	m.reset(4, 6, nil)
	base := &m.data[0]
	m.Row(3)[5] = 42
	m.reset(2, 3, nil)
	if &m.data[0] != base {
		t.Fatal("shrinking reset reallocated the buffer")
	}
	m.Row(1)[2] = 7
	if m.Row(1)[2] != 7 {
		t.Fatal("row view does not alias the flat buffer")
	}
	if got := m.Rows(); len(got) != 2 || len(got[1]) != 3 {
		t.Fatalf("Rows() has shape %dx%d, want 2x3", len(got), len(got[1]))
	}
}

// TestFillProfitCancellation verifies a cancelled context aborts the build.
func TestFillProfitCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := randInstance(rng, 50, 50, 10, nil)
	o := New(in)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var m Matrix
	if err := o.FillProfit(ctx, &m, ProfitSpec{}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestClassify pins the recognition of the four paper scoring functions.
func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		fn   core.ScoreFunc
		want scoreKind
	}{
		{"nil", nil, kindWeighted},
		{"weighted", core.WeightedCoverage, kindWeighted},
		{"reviewer", core.ReviewerCoverage, kindReviewer},
		{"paper", core.PaperCoverage, kindPaper},
		{"dot-product", core.DotProduct, kindDot},
		{"custom", func(g, p core.Vector) float64 { return 0 }, kindGeneric},
	}
	for _, c := range cases {
		if got := classify(c.fn); got != c.want {
			t.Errorf("classify(%s) = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestGainZeroDenominator covers papers with an all-zero topic vector, whose
// scores are defined as 0 for every scoring function.
func TestGainZeroDenominator(t *testing.T) {
	for name, fn := range scoringTable() {
		in := &core.Instance{
			Papers:    []core.Paper{{Topics: core.Vector{0, 0, 0}}},
			Reviewers: []core.Reviewer{{Topics: core.Vector{0.5, 0.3, 0.2}}},
			GroupSize: 1, Workload: 1, Score: fn,
		}
		o := New(in)
		g := core.Vector{0.1, 0, 0}
		if got, want := o.Gain(0, g, 0), in.GainWithVector(0, g, 0); math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: zero-denominator gain = %g, want %g", name, got, want)
		}
	}
}

// TestFillProfitConcurrentDeterminism re-fills the same spec many times and
// requires bit-identical results, guarding against data races on the shared
// buffers (run with -race).
func TestFillProfitConcurrentDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	in := randInstance(rng, 60, 40, 12, nil)
	groupVecs := make([]core.Vector, in.NumPapers())
	for p := range groupVecs {
		groupVecs[p] = randGroupVec(rng, in)
	}
	o := New(in)
	var first []float64
	for round := 0; round < 5; round++ {
		var m Matrix
		if err := o.FillProfit(context.Background(), &m, ProfitSpec{GroupVecs: groupVecs}); err != nil {
			t.Fatal(err)
		}
		flat := append([]float64(nil), m.data...)
		if round == 0 {
			first = flat
			continue
		}
		for i := range flat {
			if flat[i] != first[i] {
				t.Fatalf("round %d: cell %d differs: %g vs %g", round, i, flat[i], first[i])
			}
		}
	}
	// Sanity: the fill visited every row (no forbidden cells, scores > 0
	// somewhere in each row for these dense random vectors).
	var m Matrix
	if err := o.FillProfit(context.Background(), &m, ProfitSpec{GroupVecs: groupVecs}); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < in.NumPapers(); p++ {
		row := append([]float64(nil), m.Row(p)...)
		sort.Float64s(row)
		if row[len(row)-1] < 0 {
			t.Fatalf("row %d looks unfilled", p)
		}
	}
}

// TestFillProfitRows: refilling a subset of rows after a spec change must
// leave every other row untouched and make the dirty rows identical to a
// full rebuild with the new spec.
func TestFillProfitRows(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	in := randInstance(rng, 50, 30, 10, nil)
	groupVecs := make([]core.Vector, in.NumPapers())
	for p := range groupVecs {
		groupVecs[p] = randGroupVec(rng, in)
	}
	o := New(in)
	var m Matrix
	spec := ProfitSpec{GroupVecs: groupVecs}
	if err := o.FillProfit(context.Background(), &m, spec); err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), m.data...)

	// Edit: two papers' group vectors change, one pair becomes forbidden.
	dirty := []int{7, 23}
	for _, p := range dirty {
		groupVecs[p] = randGroupVec(rng, in)
	}
	spec.Forbidden = func(p, r int) bool { return p == 7 && r == 3 }
	spec.ForbiddenValue = math.Inf(-1)
	if err := o.FillProfitRows(context.Background(), &m, spec, dirty); err != nil {
		t.Fatal(err)
	}

	var full Matrix
	if err := o.FillProfit(context.Background(), &full, spec); err != nil {
		t.Fatal(err)
	}
	isDirty := map[int]bool{7: true, 23: true}
	for p := 0; p < in.NumPapers(); p++ {
		for r := 0; r < in.NumReviewers(); r++ {
			got := m.Row(p)[r]
			if isDirty[p] {
				if got != full.Row(p)[r] {
					t.Fatalf("dirty row %d col %d: %g, want %g", p, r, got, full.Row(p)[r])
				}
			} else if got != before[p*in.NumReviewers()+r] {
				t.Fatalf("clean row %d col %d changed: %g vs %g", p, r, got, before[p*in.NumReviewers()+r])
			}
		}
	}

	// Dimension guard: a matrix that was never filled at the instance shape
	// must be rejected rather than silently resized.
	var stale Matrix
	stale.reset(2, 2, nil)
	if err := o.FillProfitRows(context.Background(), &stale, spec, dirty); err == nil {
		t.Fatal("stale-dimension matrix accepted")
	}
}
