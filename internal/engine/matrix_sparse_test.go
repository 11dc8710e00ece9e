package engine

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// randCandidates draws a sorted, duplicate-free candidate list of size k per
// paper.
func randCandidates(rng *rand.Rand, papers, reviewers, k int) [][]int32 {
	cands := make([][]int32, papers)
	for p := range cands {
		perm := rng.Perm(reviewers)[:k]
		c := make([]int32, k)
		for i, r := range perm {
			c[i] = int32(r)
		}
		for i := 1; i < len(c); i++ {
			for j := i; j > 0 && c[j] < c[j-1]; j-- {
				c[j], c[j-1] = c[j-1], c[j]
			}
		}
		cands[p] = c
	}
	return cands
}

// TestFillProfitSparseMatchesDense: every candidate cell of the sparse fill
// must be bit-identical to the corresponding cell of the dense fill, for a
// spec exercising group vectors, forbidden pairs and a bonus term, and
// FillProfitSparse without candidate lists must fill the dense layout
// exactly as FillProfit does.
func TestFillProfitSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := randInstance(rng, 40, 80, 16, nil)
	o := New(in)
	groupVecs := make([]core.Vector, in.NumPapers())
	for p := range groupVecs {
		groupVecs[p] = randGroupVec(rng, in)
	}
	spec := ProfitSpec{
		GroupVecs:      groupVecs,
		Forbidden:      func(p, r int) bool { return (p+r)%7 == 0 },
		ForbiddenValue: -1e30,
		Bonus:          func(p, r int) float64 { return float64(p*r) * 1e-6 },
	}
	var dense, sparse Matrix
	if err := o.FillProfit(context.Background(), &dense, spec); err != nil {
		t.Fatal(err)
	}
	cands := randCandidates(rng, in.NumPapers(), in.NumReviewers(), 12)
	if err := o.FillProfitSparse(context.Background(), &sparse, spec, cands); err != nil {
		t.Fatal(err)
	}
	var all Matrix
	if err := o.FillProfitSparse(context.Background(), &all, spec, nil); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < in.NumPapers(); p++ {
		if len(all.Row(p)) != in.NumReviewers() {
			t.Fatalf("paper %d: fill without candidates has %d cells, want %d", p, len(all.Row(p)), in.NumReviewers())
		}
		for r, v := range all.Row(p) {
			if math.Float64bits(v) != math.Float64bits(dense.Row(p)[r]) {
				t.Fatalf("paper %d reviewer %d: fill without candidates %v != FillProfit %v", p, r, v, dense.Row(p)[r])
			}
		}
	}
	for p := 0; p < in.NumPapers(); p++ {
		row := sparse.Row(p)
		if len(row) != len(cands[p]) {
			t.Fatalf("paper %d: sparse row has %d cells, want %d", p, len(row), len(cands[p]))
		}
		for x, r := range cands[p] {
			if row[x] != dense.Row(p)[r] {
				t.Fatalf("paper %d cand %d (reviewer %d): sparse %v != dense %v",
					p, x, r, row[x], dense.Row(p)[r])
			}
		}
	}

	// FillRowInto must reproduce the dense rows exactly (it is the
	// densification callback of the sparse transport path).
	buf := make([]float64, in.NumReviewers())
	for p := 0; p < in.NumPapers(); p += 7 {
		o.FillRowInto(buf, p, spec)
		for r, v := range buf {
			if v != dense.Row(p)[r] {
				t.Fatalf("FillRowInto paper %d reviewer %d: %v != %v", p, r, v, dense.Row(p)[r])
			}
		}
	}
}

// TestFillProfitRowsSparse: the dirty-row refill on a sparse matrix must
// update exactly the dirty rows' candidate cells and match a fresh sparse
// build of the new spec.
func TestFillProfitRowsSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := randInstance(rng, 30, 60, 12, nil)
	o := New(in)
	cands := randCandidates(rng, in.NumPapers(), in.NumReviewers(), 10)
	groupVecs := make([]core.Vector, in.NumPapers())
	for p := range groupVecs {
		groupVecs[p] = make(core.Vector, in.NumTopics())
	}
	spec := ProfitSpec{GroupVecs: groupVecs, ForbiddenValue: -1e30}
	var m Matrix
	if err := o.FillProfitSparse(context.Background(), &m, spec, cands); err != nil {
		t.Fatal(err)
	}
	// Edit two papers' group vectors and refill just those rows.
	dirty := []int{3, 17}
	for _, p := range dirty {
		groupVecs[p].MaxInPlace(in.Reviewers[p].Topics)
	}
	if err := o.FillProfitRows(context.Background(), &m, spec, dirty); err != nil {
		t.Fatal(err)
	}
	var fresh Matrix
	if err := o.FillProfitSparse(context.Background(), &fresh, spec, cands); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < in.NumPapers(); p++ {
		got, want := m.Row(p), fresh.Row(p)
		for x := range want {
			if got[x] != want[x] {
				t.Fatalf("paper %d cell %d: refill %v != fresh %v", p, x, got[x], want[x])
			}
		}
	}
}
