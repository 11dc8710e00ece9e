package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
)

// kernelInstance builds an instance that exercises every branch of the
// residual-topic kernel: papers and reviewers with zero topic weights, one
// paper with an all-zero vector (zero denominator), and conflicts.
func kernelInstance(rng *rand.Rand, P, R, T int, score core.ScoreFunc) *core.Instance {
	vec := func() core.Vector {
		v := make(core.Vector, T)
		for t := range v {
			if rng.Intn(3) > 0 {
				v[t] = rng.Float64()
			}
		}
		return v
	}
	papers := make([]core.Paper, P)
	for p := range papers {
		papers[p] = core.Paper{Topics: vec()}
	}
	papers[rng.Intn(P)].Topics = make(core.Vector, T)
	reviewers := make([]core.Reviewer, R)
	for r := range reviewers {
		reviewers[r] = core.Reviewer{Topics: vec()}
	}
	in := core.NewInstance(papers, reviewers, 2, 0)
	in.Score = score
	for k := 0; k < P; k++ {
		in.AddConflict(rng.Intn(R), rng.Intn(P))
	}
	return in
}

// kernelGroupVecs builds group vectors that cover some of each paper's
// topics exactly (g_t = p_t), overshoot others (g_t > p_t) and leave the
// rest partly or wholly open.
func kernelGroupVecs(rng *rand.Rand, in *core.Instance) []core.Vector {
	gv := make([]core.Vector, in.NumPapers())
	for p := range gv {
		g := make(core.Vector, in.NumTopics())
		g.MaxInPlace(in.Reviewers[rng.Intn(in.NumReviewers())].Topics)
		for t, pv := range in.Papers[p].Topics {
			switch rng.Intn(4) {
			case 0:
				g[t] = pv
			case 1:
				g[t] = pv + rng.Float64()
			}
		}
		gv[p] = g
	}
	return gv
}

// kernelSpecs lists the profit specs of the kernel tests: gains and pair
// scores, each plain and with forbidden cells plus a bonus.
func kernelSpecs(rng *rand.Rand, in *core.Instance) map[string]ProfitSpec {
	gv := kernelGroupVecs(rng, in)
	forbidden := func(p, r int) bool { return (p*7+r*3)%5 == 0 || in.IsConflict(r, p) }
	bonus := func(p, r int) float64 { return 1e-3 * float64((p*31+r*17)%11) }
	return map[string]ProfitSpec{
		"gain":              {GroupVecs: gv},
		"gain-forbid-bonus": {GroupVecs: gv, Forbidden: forbidden, ForbiddenValue: -1e18, Bonus: bonus},
		"pair":              {},
		"pair-forbid-bonus": {Forbidden: forbidden, ForbiddenValue: math.Inf(-1), Bonus: bonus},
	}
}

// refCell is the per-cell reference value of cell (p, r) under spec.
func refCell(o *Oracle, spec ProfitSpec, p, r int) float64 {
	var gv core.Vector
	if spec.GroupVecs != nil {
		gv = spec.GroupVecs[p]
	}
	return o.profitCell(p, r, gv, &spec)
}

// differ reports whether got and want differ in any bit.
func differ(got, want float64) bool { return math.Float64bits(got) != math.Float64bits(want) }

// checkDense compares every cell of a dense fill against the reference.
func checkDense(t *testing.T, o *Oracle, m *Matrix, spec ProfitSpec, label string) {
	t.Helper()
	in := o.Instance()
	for p := 0; p < in.NumPapers(); p++ {
		for r := 0; r < in.NumReviewers(); r++ {
			if got, want := m.At(p, r), refCell(o, spec, p, r); differ(got, want) {
				t.Fatalf("%s dense (%d,%d) = %v, want %v", label, p, r, got, want)
			}
		}
	}
}

// checkSparse compares the candidate cells of the given rows of a
// sparse-row fill (every row when rows is nil) against the reference.
func checkSparse(t *testing.T, o *Oracle, m *Matrix, spec ProfitSpec, cand [][]int32, rows []int, label string) {
	t.Helper()
	if rows == nil {
		for p := range cand {
			rows = append(rows, p)
		}
	}
	for _, p := range rows {
		for x, r := range cand[p] {
			if got, want := m.Row(p)[x], refCell(o, spec, p, int(r)); differ(got, want) {
				t.Fatalf("%s sparse (%d,%d) = %v, want %v", label, p, r, got, want)
			}
		}
	}
}

// TestFillKernelBitIdentical is the exactness contract of the fill paths:
// every cell of a dense, sparse, dirty-row or densified (FillRowInto) fill
// is bit-for-bit the per-cell profitCell value, for all four paper scores,
// the nil default and a custom score.
func TestFillKernelBitIdentical(t *testing.T) {
	ctx := context.Background()
	for name, fn := range scoringTable() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(71))
			for trial := 0; trial < 6; trial++ {
				P, R, T := 3+rng.Intn(90), 2+rng.Intn(40), 1+rng.Intn(30)
				in := kernelInstance(rng, P, R, T, fn)
				o := New(in)
				cand := randCandidates(rng, P, R, 1+rng.Intn(R))
				for sname, spec := range kernelSpecs(rng, in) {
					label := fmt.Sprintf("trial %d %s", trial, sname)
					var dense, sparse Matrix
					if err := o.FillProfit(ctx, &dense, spec); err != nil {
						t.Fatal(err)
					}
					checkDense(t, o, &dense, spec, label)

					if err := o.FillProfitSparse(ctx, &sparse, spec, cand); err != nil {
						t.Fatal(err)
					}
					checkSparse(t, o, &sparse, spec, cand, nil, label)

					row := make([]float64, R)
					for p := 0; p < P; p++ {
						o.FillRowInto(row, p, spec)
						for r := range row {
							if got, want := row[r], refCell(o, spec, p, r); differ(got, want) {
								t.Fatalf("%s FillRowInto (%d,%d) = %v, want %v", label, p, r, got, want)
							}
						}
					}

					// Dirty-row refills: scribble NaN over some rows, refill them.
					dirty := []int{0, P / 2, P - 1}
					for _, p := range dirty {
						for _, row := range [][]float64{dense.Row(p), sparse.Row(p)} {
							for i := range row {
								row[i] = math.NaN()
							}
						}
					}
					if err := o.FillProfitRows(ctx, &dense, spec, dirty); err != nil {
						t.Fatal(err)
					}
					checkDense(t, o, &dense, spec, label+" dirty")
					if err := o.FillProfitRows(ctx, &sparse, spec, dirty); err != nil {
						t.Fatal(err)
					}
					checkSparse(t, o, &sparse, spec, cand, dirty, label+" dirty")
				}
			}
		})
	}
}

// TestFillKernelAfterAddReviewer grows the pool between two fills on one
// Oracle: the second fill must cover the new reviewers, bit-identical to
// the reference, through every entry point.
func TestFillKernelAfterAddReviewer(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(73))
	in := kernelInstance(rng, 40, 20, 12, nil)
	o := New(in)
	spec := kernelSpecs(rng, in)["gain-forbid-bonus"]
	var m Matrix
	if err := o.FillProfit(ctx, &m, spec); err != nil {
		t.Fatal(err)
	}
	checkDense(t, o, &m, spec, "before")
	for k := 0; k < 5; k++ {
		in.AddReviewer(core.Reviewer{Topics: randVec(rng, in.NumTopics())})
	}
	R := in.NumReviewers()
	row := make([]float64, R)
	o.FillRowInto(row, 3, spec)
	for r := range row {
		if got, want := row[r], refCell(o, spec, 3, r); differ(got, want) {
			t.Fatalf("FillRowInto (3,%d) = %v, want %v", r, got, want)
		}
	}
	if err := o.FillProfit(ctx, &m, spec); err != nil {
		t.Fatal(err)
	}
	checkDense(t, o, &m, spec, "after")
	cand := randCandidates(rng, in.NumPapers(), R-1, 8)
	for p := range cand {
		cand[p] = append(cand[p], int32(R-1)) // every row sees a new reviewer
	}
	if err := o.FillProfitSparse(ctx, &m, spec, cand); err != nil {
		t.Fatal(err)
	}
	checkSparse(t, o, &m, spec, cand, nil, "after")
}

// TestFillKernelNoAllocs pins the steady state: once the pools and the
// panel are warm, dense and sparse fills allocate nothing, on one CPU and
// across the worker pool.
func TestFillKernelNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race, so steady-state fills allocate there")
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(79))
	in := kernelInstance(rng, 300, 120, 20, nil)
	o := New(in)
	spec := kernelSpecs(rng, in)["gain-forbid-bonus"]
	cand := randCandidates(rng, in.NumPapers(), in.NumReviewers(), 16)
	var dense, sparse Matrix
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		denseAllocs := testing.AllocsPerRun(20, func() {
			if err := o.FillProfit(ctx, &dense, spec); err != nil {
				t.Fatal(err)
			}
		})
		sparseAllocs := testing.AllocsPerRun(20, func() {
			if err := o.FillProfitSparse(ctx, &sparse, spec, cand); err != nil {
				t.Fatal(err)
			}
		})
		runtime.GOMAXPROCS(prev)
		if denseAllocs != 0 || sparseAllocs != 0 {
			t.Errorf("GOMAXPROCS=%d: FillProfit allocates %v, FillProfitSparse %v per run, want 0", procs, denseAllocs, sparseAllocs)
		}
	}
}

// TestFillKernelConcurrentFills fills separate matrices from one fresh
// Oracle on several goroutines at once: their first fills race to build the
// panel, and the fills' worker pools interleave. Every result must be
// bit-identical to the reference. Run with -race.
func TestFillKernelConcurrentFills(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(83))
	in := kernelInstance(rng, 150, 60, 16, nil)
	o := New(in)
	specs := kernelSpecs(rng, in)
	cand := randCandidates(rng, in.NumPapers(), in.NumReviewers(), 12)
	names := []string{"gain", "gain-forbid-bonus", "pair", "pair-forbid-bonus"}
	const goroutines = 8
	dense := make([]Matrix, goroutines)
	sparse := make([]Matrix, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			spec := specs[names[g%len(names)]]
			for round := 0; round < 3 && errs[g] == nil; round++ {
				errs[g] = o.FillProfit(ctx, &dense[g], spec)
				if errs[g] == nil {
					errs[g] = o.FillProfitSparse(ctx, &sparse[g], spec, cand)
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		spec := specs[names[g%len(names)]]
		label := fmt.Sprintf("goroutine %d", g)
		checkDense(t, o, &dense[g], spec, label)
		checkSparse(t, o, &sparse[g], spec, cand, nil, label)
	}
}
