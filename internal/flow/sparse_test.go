package flow

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// sparseFromDense builds position-aligned candidate rows (vals, cols) from a
// dense profit matrix: every row keeps a random sorted k-subset of columns.
func sparseFromDense(rng *rand.Rand, profit [][]float64, k int) ([][]float64, [][]int32) {
	n := len(profit)
	vals := make([][]float64, n)
	cols := make([][]int32, n)
	for i := range profit {
		m := len(profit[i])
		if k >= m {
			cols[i] = make([]int32, m)
			vals[i] = make([]float64, m)
			for j := 0; j < m; j++ {
				cols[i][j] = int32(j)
				vals[i][j] = profit[i][j]
			}
			continue
		}
		perm := rng.Perm(m)[:k]
		c := make([]int32, k)
		for x, j := range perm {
			c[x] = int32(j)
		}
		for x := 1; x < len(c); x++ {
			for y := x; y > 0 && c[y] < c[y-1]; y-- {
				c[y], c[y-1] = c[y-1], c[y]
			}
		}
		v := make([]float64, k)
		for x, j := range c {
			v[x] = profit[i][j]
		}
		cols[i], vals[i] = c, v
	}
	return vals, cols
}

// maskOutsideCandidates returns a dense copy of profit with every
// non-candidate cell Forbidden (rows marked full keep every cell).
func maskOutsideCandidates(profit [][]float64, cols [][]int32, full []bool) [][]float64 {
	masked := make([][]float64, len(profit))
	for i := range profit {
		masked[i] = make([]float64, len(profit[i]))
		if full != nil && full[i] {
			copy(masked[i], profit[i])
			continue
		}
		for j := range masked[i] {
			masked[i][j] = Forbidden
		}
		for _, j := range cols[i] {
			masked[i][j] = profit[i][j]
		}
	}
	return masked
}

// TestSolveSparseAllColumnsMatchesSolve: with every column a candidate the
// sparse path must reproduce the dense solve exactly, and SolveSparse
// without candidate lists, or with every row listing all m columns of m+1
// whose extra column has capacity 0, must leave the same plan, objective
// bits and duals as SolveDense.
func TestSolveSparseAllColumnsMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		profit, need, caps := randomInstance(rng, 3+rng.Intn(5), 3+rng.Intn(5), 2, 2, 0.2)
		m := len(profit[0])
		vals, cols := sparseFromDense(rng, profit, m)
		var dense, sparse, all, wide Transport
		dRec, aRec, wRec := stateRecorder{tr: &dense}, stateRecorder{tr: &all}, stateRecorder{tr: &wide}
		dRows, dTotal, dErr := dense.SolveDense(profit, need, caps)
		dRec.record(dRows, dTotal, dErr)
		aRec.record(all.SolveSparse(profit, nil, m, need, caps))
		if d := diffStates(aRec.states, dRec.states); d != "" {
			t.Fatalf("trial %d: SolveSparse without candidate lists: %s", trial, d)
		}
		wRec.record(wide.SolveSparse(vals, cols, m+1, need, append(caps[:m:m], 0)))
		if d := diffStates(wRec.states, dRec.states); d != "" {
			t.Fatalf("trial %d: SolveSparse with an extra capacity-0 column: %s", trial, d)
		}
		sRows, sTotal, sErr := sparse.SolveSparse(vals, cols, m, need, caps)
		if (dErr == nil) != (sErr == nil) {
			t.Fatalf("trial %d: dense err=%v sparse err=%v", trial, dErr, sErr)
		}
		if dErr != nil {
			continue
		}
		if math.Abs(dTotal-sTotal) > 1e-9 {
			t.Fatalf("trial %d: dense=%v sparse=%v", trial, dTotal, sTotal)
		}
		if got := checkFeasible(t, profit, need, caps, sRows); math.Abs(got-sTotal) > 1e-9 {
			t.Fatalf("trial %d: sparse reported %v but plan sums to %v", trial, sTotal, got)
		}
	}
}

// TestSolveSparseSubsetMatchesMaskedDense: restricting each row to a
// candidate subset must solve exactly the masked instance (non-candidate
// cells Forbidden) — same feasibility verdict, same objective — and never
// beat the unrestricted dense optimum.
func TestSolveSparseSubsetMatchesMaskedDense(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	feasible := 0
	for trial := 0; trial < 40; trial++ {
		n, m := 4+rng.Intn(5), 6+rng.Intn(5)
		profit, need, caps := randomInstance(rng, n, m, 2, 3, 0.1)
		k := 2 + rng.Intn(3)
		vals, cols := sparseFromDense(rng, profit, k)
		masked := maskOutsideCandidates(profit, cols, nil)

		var sp, dn, full Transport
		sRows, sTotal, sErr := sp.SolveSparse(vals, cols, m, need, caps)
		_, mTotal, mErr := dn.SolveDense(masked, need, caps)
		if (sErr == nil) != (mErr == nil) {
			t.Fatalf("trial %d: sparse err=%v masked dense err=%v", trial, sErr, mErr)
		}
		if sErr != nil {
			continue
		}
		feasible++
		if math.Abs(sTotal-mTotal) > 1e-9 {
			t.Fatalf("trial %d: sparse=%v masked dense=%v", trial, sTotal, mTotal)
		}
		if got := checkFeasible(t, masked, need, caps, sRows); math.Abs(got-sTotal) > 1e-9 {
			t.Fatalf("trial %d: sparse reported %v but plan sums to %v", trial, sTotal, got)
		}
		if _, fTotal, fErr := full.SolveDense(profit, need, caps); fErr == nil && sTotal > fTotal+1e-9 {
			t.Fatalf("trial %d: sparse %v beats dense optimum %v", trial, sTotal, fTotal)
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible trials exercised")
	}
}

// TestSolveSparseDensifyEscape: rows whose candidate columns all saturate
// must be widened through the DenseRow callback instead of failing, and the
// result must be optimal for the widened instance.
func TestSolveSparseDensifyEscape(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	const n, m = 4, 6
	profit := make([][]float64, n)
	for i := range profit {
		profit[i] = make([]float64, m)
		for j := range profit[i] {
			profit[i][j] = rng.Float64()
		}
	}
	need := []int{1, 1, 1, 1}
	caps := []int{1, 1, 1, 1, 1, 1}
	// Every row's candidates point at the same two unit-capacity columns, so
	// two rows must densify to find capacity elsewhere.
	cols := make([][]int32, n)
	vals := make([][]float64, n)
	for i := range cols {
		cols[i] = []int32{0, 1}
		vals[i] = []float64{profit[i][0], profit[i][1]}
	}

	// Without the callback the sparse instance is genuinely infeasible.
	var bare Transport
	if _, _, err := bare.SolveSparse(vals, cols, m, need, caps); err != ErrInfeasible {
		t.Fatalf("no callback: got err=%v, want ErrInfeasible", err)
	}

	widened := 0
	densifyHook = func(rows int) { widened += rows }
	defer func() { densifyHook = nil }()
	var tr Transport
	tr.DenseRow = func(i int, buf []float64) []float64 {
		copy(buf, profit[i])
		return buf
	}
	rows, total, err := tr.SolveSparse(vals, cols, m, need, caps)
	if err != nil {
		t.Fatalf("SolveSparse with DenseRow: %v", err)
	}
	if widened != 2 {
		t.Fatalf("densified %d rows, want 2", widened)
	}
	// The solved instance is: densified rows full width, the rest restricted
	// to their candidates. Its brute-force optimum is the expected objective.
	masked := maskOutsideCandidates(profit, cols, tr.rowFull[:n])
	got := checkFeasible(t, masked, need, caps, rows)
	if math.Abs(got-total) > 1e-9 {
		t.Fatalf("reported %v but plan sums to %v", total, got)
	}
	want, ok := bruteForceTransport(masked, need, caps)
	if !ok {
		t.Fatal("masked instance unexpectedly infeasible")
	}
	if math.Abs(total-want) > 1e-9 {
		t.Fatalf("objective %v, brute force of widened instance %v", total, want)
	}
}

// TestSolveSparseDenseRowWrongWidth: a DenseRow row of the wrong width met
// while the escape hatch widens a row ends the solve with an error instead of
// a panic and leaves the transport unsolved; a following SolveSparse with a
// correct callback solves afresh.
func TestSolveSparseDenseRowWrongWidth(t *testing.T) {
	full := [][]float64{{0.5, 0.4, 0.9}, {0.8, 0.1, 0.2}}
	vals := [][]float64{{0.5}, {0.8}}
	cols := [][]int32{{0}, {0}}
	need, caps := []int{1, 1}, []int{1, 1, 1}
	var tr Transport
	tr.DenseRow = func(i int, buf []float64) []float64 { return buf[:1] }
	if _, _, err := tr.SolveSparse(vals, cols, 3, need, caps); !errors.Is(err, errDenseRowWidth) {
		t.Fatalf("short DenseRow row: err = %v, want %v", err, errDenseRowWidth)
	}
	if _, _, err := tr.Resolve(caps); err == nil || err.Error() != "flow: re-solve called before a solve" {
		t.Fatalf("Resolve after the refused row: err = %v, want the before-a-solve error", err)
	}
	tr.DenseRow = func(i int, buf []float64) []float64 { return append(buf[:0], full[i]...) }
	if _, _, err := tr.SolveSparse(vals, cols, 3, need, caps); err != nil {
		t.Fatal(err)
	}
	if err := certify(&tr); err != nil {
		t.Fatalf("SolveSparse after the refused row: %v", err)
	}
}

// TestResolveRowsSparse: warm re-solves after candidate-row edits (cost
// changes, a forbidden candidate, a demand bump) must match a fresh sparse
// solve of the edited instance.
func TestResolveRowsSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		n, m := 6+rng.Intn(5), 9+rng.Intn(6)
		profit, need, caps := randomInstance(rng, n, m, 2, 3, 0.0)
		vals, cols := sparseFromDense(rng, profit, 4)

		var warm Transport
		if _, _, err := warm.SolveSparse(vals, cols, m, need, caps); err != nil {
			continue // infeasible draw: nothing to warm-start from
		}

		// Edit a couple of rows in place: perturb one candidate, forbid
		// another, and bump one row's demand down to keep feasibility easy.
		dirty := []int{trial % n, (trial*3 + 1) % n}
		if dirty[0] == dirty[1] {
			dirty = dirty[:1]
		}
		for _, i := range dirty {
			vals[i][rng.Intn(len(vals[i]))] = rng.Float64() * 2
			vals[i][rng.Intn(len(vals[i]))] = Forbidden
		}
		need[dirty[0]] = 1

		wRows, wTotal, wErr := warm.ResolveRows(vals, dirty, need, caps)
		var cold Transport
		_, cTotal, cErr := cold.SolveSparse(vals, cols, m, need, caps)
		if (wErr == nil) != (cErr == nil) {
			t.Fatalf("trial %d: warm err=%v cold err=%v", trial, wErr, cErr)
		}
		if wErr != nil {
			continue
		}
		if math.Abs(wTotal-cTotal) > 1e-9 {
			t.Fatalf("trial %d: warm=%v cold=%v", trial, wTotal, cTotal)
		}
		masked := maskOutsideCandidates(profit, cols, nil)
		for i := range masked {
			for x, j := range cols[i] {
				masked[i][j] = vals[i][x]
			}
		}
		if got := checkFeasible(t, masked, need, caps, wRows); math.Abs(got-wTotal) > 1e-9 {
			t.Fatalf("trial %d: warm reported %v but plan sums to %v", trial, wTotal, got)
		}
	}
}

// TestResolveRowsSparseDensifiedRow: a row the escape hatch widened must be
// re-read through DenseRow on later warm re-solves, so edits to it apply
// even though the caller still passes P×k rows.
func TestResolveRowsSparseDensifiedRow(t *testing.T) {
	const n, m = 3, 5
	profit := [][]float64{
		{5, 4, 1, 1, 1},
		{5, 4, 1, 1, 1},
		{5, 4, 9, 1, 1},
	}
	need := []int{1, 1, 1}
	caps := []int{1, 1, 1, 1, 1}
	cols := [][]int32{{0, 1}, {0, 1}, {0, 1}}
	vals := [][]float64{{5, 4}, {5, 4}, {5, 4}}

	var tr Transport
	tr.DenseRow = func(i int, buf []float64) []float64 {
		copy(buf, profit[i])
		return buf
	}
	if _, _, err := tr.SolveSparse(vals, cols, m, need, caps); err != nil {
		t.Fatalf("SolveSparse: %v", err)
	}
	var full int
	for i := 0; i < n; i++ {
		if tr.rowFull[i] {
			full++
		}
	}
	if full != 1 {
		t.Fatalf("widened %d rows, want exactly 1", full)
	}

	// Edit the dense profits of every row; the densified row's new costs
	// must flow in through the callback, the candidate rows' through vals.
	for i := 0; i < n; i++ {
		profit[i][2] = 20 + float64(i)
		vals[i][1] = 6 + float64(i)
		profit[i][1] = vals[i][1]
	}
	wRows, wTotal, err := tr.ResolveRows(vals, []int{0, 1, 2}, need, caps)
	if err != nil {
		t.Fatalf("ResolveRows: %v", err)
	}
	masked := maskOutsideCandidates(profit, cols, tr.rowFull[:n])
	if got := checkFeasible(t, masked, need, caps, wRows); math.Abs(got-wTotal) > 1e-9 {
		t.Fatalf("reported %v but plan sums to %v", wTotal, got)
	}
	want, ok := bruteForceTransport(masked, need, caps)
	if !ok {
		t.Fatal("masked instance infeasible")
	}
	if math.Abs(wTotal-want) > 1e-9 {
		t.Fatalf("objective %v, brute force %v", wTotal, want)
	}
}

// TestSolveSparseShardedLoadDeterminism: the sharded sparse instance load
// must produce the identical plan and objective as the serial load.
func TestSolveSparseShardedLoadDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	n, m := 400, 200 // n*m ≥ 64k so loadWorkers actually shards
	profit, need, caps := randomInstance(rng, n, m, 2, 8, 0.0)
	vals, cols := sparseFromDense(rng, profit, 12)

	var serial Transport
	sRows, sTotal, sErr := serial.SolveSparse(vals, cols, m, need, caps)
	par := Transport{Workers: 4}
	pRows, pTotal, pErr := par.SolveSparse(vals, cols, m, need, caps)
	if (sErr == nil) != (pErr == nil) {
		t.Fatalf("serial err=%v parallel err=%v", sErr, pErr)
	}
	if sErr != nil {
		t.Skip("infeasible draw")
	}
	if sTotal != pTotal {
		t.Fatalf("objectives differ: serial=%v parallel=%v", sTotal, pTotal)
	}
	for i := range sRows {
		if len(sRows[i]) != len(pRows[i]) {
			t.Fatalf("row %d plans differ", i)
		}
		for x := range sRows[i] {
			if sRows[i][x] != pRows[i][x] {
				t.Fatalf("row %d plans differ: %v vs %v", i, sRows[i], pRows[i])
			}
		}
	}
}

// TestSolveSparseValidation: malformed candidate structures must be rejected
// up front.
func TestSolveSparseValidation(t *testing.T) {
	var tr Transport
	need, caps := []int{1}, []int{1, 1, 1}
	cases := []struct {
		name string
		vals [][]float64
		cols [][]int32
	}{
		{"ragged", [][]float64{{1, 2}}, [][]int32{{0}}},
		{"descending", [][]float64{{1, 2}}, [][]int32{{2, 1}}},
		{"duplicate", [][]float64{{1, 2}}, [][]int32{{1, 1}}},
		{"out of range", [][]float64{{1, 2}}, [][]int32{{0, 3}}},
	}
	for _, tc := range cases {
		if _, _, err := tr.SolveSparse(tc.vals, tc.cols, 3, need, caps); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
	if _, _, err := tr.SolveSparse(nil, nil, 0, nil, nil); err != nil {
		t.Fatalf("empty instance rejected: %v", err)
	}
}

// sparseFeasibilityInstance draws the small instance FuzzSolveSparseFeasible
// checks from seed: n, m in [2, 11], 15% Forbidden cells, row demands 1–3,
// column capacities 0–3, and a random ascending candidate list of 1..m
// columns per row (vals aligned with cols).
func sparseFeasibilityInstance(seed int64) (profit [][]float64, need, caps []int, vals [][]float64, cols [][]int32) {
	rng := rand.New(rand.NewSource(seed))
	n, m := 2+rng.Intn(10), 2+rng.Intn(10)
	profit = make([][]float64, n)
	for i := range profit {
		profit[i] = make([]float64, m)
		for j := range profit[i] {
			if rng.Float64() < 0.15 {
				profit[i][j] = Forbidden
			} else {
				profit[i][j] = rng.Float64()
			}
		}
	}
	need = make([]int, n)
	for i := range need {
		need[i] = 1 + rng.Intn(3)
	}
	caps = make([]int, m)
	for j := range caps {
		caps[j] = rng.Intn(4)
	}
	vals, cols = sparseFromDense(rng, profit, 1+rng.Intn(m))
	return profit, need, caps, vals, cols
}

// FuzzSolveSparseFeasible checks the promise of the sparse escape hatch:
// with a DenseRow callback, SolveSparse fails exactly when the dense
// instance is infeasible, and any plan it returns is feasible for the dense
// instance and no better than its optimum. Seeds 0, 43, 115 and 141 are the
// first draws on which an escape hatch that widened only the stuck rows
// themselves reported a feasible instance infeasible: a stuck row already at
// full width, whose failed search ran through rows still limited to their
// candidates.
func FuzzSolveSparseFeasible(f *testing.F) {
	for _, seed := range []int64{0, 43, 115, 141, 7, 1000} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		profit, need, caps, vals, cols := sparseFeasibilityInstance(seed)
		var dense, sparse Transport
		_, dTotal, dErr := dense.SolveDense(profit, need, caps)
		sparse.DenseRow = func(i int, buf []float64) []float64 {
			copy(buf, profit[i])
			return buf
		}
		rows, sTotal, sErr := sparse.SolveSparse(vals, cols, len(caps), need, caps)
		if (dErr == nil) != (sErr == nil) {
			t.Fatalf("seed %d: dense err=%v, sparse err=%v", seed, dErr, sErr)
		}
		if sErr != nil {
			return
		}
		if err := certify(&dense); err != nil {
			t.Fatalf("seed %d: dense plan: %v", seed, err)
		}
		if err := certify(&sparse); err != nil {
			t.Fatalf("seed %d: sparse plan: %v", seed, err)
		}
		if got := checkFeasible(t, profit, need, caps, rows); math.Abs(got-sTotal) > 1e-9 {
			t.Fatalf("seed %d: sparse reported %v but plan sums to %v", seed, sTotal, got)
		}
		if sTotal > dTotal+1e-9 {
			t.Fatalf("seed %d: sparse %v beats the dense optimum %v", seed, sTotal, dTotal)
		}
	})
}
