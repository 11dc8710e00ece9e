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

// hasAVX is the CPU's answer, read before any test writes useAVX.
var hasAVX = useAVX

// forEachPath runs f once per row-kernel path: "go" with the vector step
// off, so the Go loop fills every column, and "avx" with it on, which skips
// on a CPU without AVX.
func forEachPath(t *testing.T, f func(t *testing.T)) {
	for _, path := range []struct {
		name string
		vec  bool
	}{{"go", false}, {"avx", true}} {
		t.Run(path.name, func(t *testing.T) {
			if path.vec && !hasAVX {
				t.Skip("no AVX on this CPU")
			}
			setAVX(t, path.vec)
			f(t)
		})
	}
}

// setAVX selects the row-kernel path until the test ends.
func setAVX(t testing.TB, on bool) {
	prev := useAVX
	useAVX = on
	t.Cleanup(func() { useAVX = prev })
}

// quantised holds the weights that make exact ties among x_t, p_t and g_t,
// signed zeros and negative terms common.
var quantised = []float64{0, math.Copysign(0, -1), 0.25, 0.5, 1, -0.25}

// kernelInstance builds an instance that exercises every branch of the
// residual-topic kernel: papers and reviewers with zero, quantised (tied,
// −0, negative) and random topic weights, one paper with an all-zero vector
// (zero denominator), and conflicts.
func kernelInstance(rng *rand.Rand, P, R, T int, score core.ScoreFunc) *core.Instance {
	vec := func() core.Vector {
		v := make(core.Vector, T)
		for t := range v {
			switch rng.Intn(4) {
			case 0:
			case 1:
				v[t] = quantised[rng.Intn(len(quantised))]
			default:
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
// topics exactly (g_t = p_t), overshoot others (g_t > p_t), tie others with
// the quantised weights, and leave the rest partly or wholly open.
func kernelGroupVecs(rng *rand.Rand, in *core.Instance) []core.Vector {
	gv := make([]core.Vector, in.NumPapers())
	for p := range gv {
		g := make(core.Vector, in.NumTopics())
		g.MaxInPlace(in.Reviewers[rng.Intn(in.NumReviewers())].Topics)
		for t, pv := range in.Papers[p].Topics {
			switch rng.Intn(5) {
			case 0:
				g[t] = pv
			case 1:
				g[t] = pv + rng.Float64()
			case 2:
				g[t] = quantised[rng.Intn(len(quantised))]
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
			if got, want := m.Row(p)[r], refCell(o, spec, p, r); differ(got, want) {
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
// the nil default and a custom score, on both row-kernel paths. Trial k
// draws R ≡ k mod 8 with at least three full 8-column blocks, so the vector
// step meets every tail length.
func TestFillKernelBitIdentical(t *testing.T) {
	for name, fn := range scoringTable() {
		t.Run(name, func(t *testing.T) {
			forEachPath(t, func(t *testing.T) { kernelTrials(t, fn) })
		})
	}
}

// kernelTrials runs TestFillKernelBitIdentical's trials for one score.
func kernelTrials(t *testing.T, fn core.ScoreFunc) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 8; trial++ {
		P, R, T := 3+rng.Intn(90), 8*(3+rng.Intn(3))+trial, 1+rng.Intn(30)
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
}

// TestFillKernelAfterAddReviewer grows the pool between two fills on one
// Oracle: the second fill must cover the new reviewers, bit-identical to
// the reference, through every entry point, on both row-kernel paths.
func TestFillKernelAfterAddReviewer(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
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
	})
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
// bit-identical to the reference, on both row-kernel paths. Run with -race.
func TestFillKernelConcurrentFills(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
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
	})
}

// fuzzWeight decodes one fuzz byte to a finite weight: 0xff is −0, 0xf8–0xfe
// are special values (±subnormal, ±1e300, ±MaxFloat64, 0.1), and every other
// byte b is (b − 124)/8, so +0, ties and negative weights are common.
func fuzzWeight(b byte) float64 {
	switch {
	case b == 0xff:
		return math.Copysign(0, -1)
	case b >= 0xf8:
		return [...]float64{5e-324, -5e-324, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64, 0.1}[b-0xf8]
	}
	return float64(int(b)-124) / 8
}

// FuzzFillRow checks the dense row kernel's vector step against the Go loop
// bit for bit. The first byte picks 1–4 topics, the second 0–70 columns;
// the rest, cycled, gives each topic's p_t and c_t (c_t = 0 in pair mode)
// and then the topic-major panel. Both runs start from a cleared row.
func FuzzFillRow(f *testing.F) {
	if !hasAVX {
		f.Skip("no AVX on this CPU: the Go loop is the only path")
	}
	f.Add([]byte{3, 70, 132, 124, 128, 255, 0xfc, 140, 60, 124, 133}, false)
	f.Add([]byte{3, 70, 132, 124, 128, 255, 0xfc, 140, 60, 124, 133}, true)
	f.Add([]byte{1, 23, 255, 124, 126, 0xf8, 122}, false)
	f.Add([]byte{0, 8}, true)
	f.Fuzz(func(t *testing.T, data []byte, pair bool) {
		if len(data) < 2 {
			return
		}
		T, R, rest := 1+int(data[0])%4, int(data[1])%71, data[2:]
		k := 0
		next := func() float64 {
			if len(rest) == 0 {
				return 0
			}
			b := rest[k%len(rest)]
			k++
			return fuzzWeight(b)
		}
		open := make([]openTopic, T)
		for t := range open {
			open[t] = openTopic{t: t, p: next(), c: next()}
			if pair {
				open[t].c = 0
			}
		}
		pn := &topicPanel{cols: R, data: make([]float64, T*R)}
		for i := range pn.data {
			pn.data[i] = next()
		}
		got, want := make([]float64, R), make([]float64, R)
		setAVX(t, true)
		pn.denseRow(got, open, pair)
		useAVX = false
		pn.denseRow(want, open, pair)
		for i := range got {
			if differ(got[i], want[i]) {
				t.Fatalf("pair=%v column %d of %d: vector %v (%#x), Go %v (%#x)", pair, i, R,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	})
}
