package flow

import (
	"math"
	"math/rand"
	"testing"
)

// randomInstance draws a transportation instance; forbiddenP cells are set to
// Forbidden.
func randomInstance(rng *rand.Rand, n, m, maxNeed, maxCap int, forbiddenP float64) ([][]float64, []int, []int) {
	profit := make([][]float64, n)
	for i := range profit {
		profit[i] = make([]float64, m)
		for j := range profit[i] {
			if rng.Float64() < forbiddenP {
				profit[i][j] = Forbidden
			} else {
				profit[i][j] = rng.Float64()
			}
		}
	}
	need := make([]int, n)
	for i := range need {
		need[i] = 1 + rng.Intn(maxNeed)
	}
	caps := make([]int, m)
	for j := range caps {
		caps[j] = rng.Intn(maxCap + 1)
	}
	return profit, need, caps
}

// bruteForceTransport enumerates every feasible plan of a small instance and
// returns the maximum total profit (ok=false when the instance is infeasible).
func bruteForceTransport(profit [][]float64, rowNeed, colCap []int) (float64, bool) {
	n := len(profit)
	m := 0
	if n > 0 {
		m = len(profit[0])
	}
	use := make([]int, m)
	best := math.Inf(-1)
	found := false
	var rec func(row int, acc float64)
	var choose func(row, from, left int, acc float64)
	rec = func(row int, acc float64) {
		if row == n {
			if !found || acc > best {
				best, found = acc, true
			}
			return
		}
		choose(row, 0, rowNeed[row], acc)
	}
	choose = func(row, from, left int, acc float64) {
		if left == 0 {
			rec(row+1, acc)
			return
		}
		for j := from; j <= m-left; j++ {
			if use[j] >= colCap[j] || math.IsInf(profit[row][j], -1) {
				continue
			}
			use[j]++
			choose(row, j+1, left-1, acc+profit[row][j])
			use[j]--
		}
	}
	rec(0, 0)
	return best, found
}

// checkFeasible verifies demands, distinctness, capacities and forbidden
// cells, and returns the plan's total profit.
func checkFeasible(t *testing.T, profit [][]float64, rowNeed, colCap []int, rows [][]int) float64 {
	t.Helper()
	m := 0
	if len(profit) > 0 {
		m = len(profit[0])
	}
	use := make([]int, m)
	total := 0.0
	for i, cols := range rows {
		if len(cols) != rowNeed[i] {
			t.Fatalf("row %d matched %d columns, want %d", i, len(cols), rowNeed[i])
		}
		seen := map[int]bool{}
		for _, j := range cols {
			if seen[j] {
				t.Fatalf("row %d matched column %d twice", i, j)
			}
			seen[j] = true
			if math.IsInf(profit[i][j], -1) {
				t.Fatalf("row %d matched forbidden column %d", i, j)
			}
			use[j]++
			total += profit[i][j]
		}
	}
	for j, u := range use {
		if u > colCap[j] {
			t.Fatalf("column %d used %d times, capacity %d", j, u, colCap[j])
		}
	}
	return total
}

// runParity solves with both solvers (and brute force when small enough) and
// cross-checks objectives and feasibility. Returns whether it was feasible.
func runParity(t *testing.T, profit [][]float64, need, caps []int, brute bool) bool {
	t.Helper()
	dRows, dTotal, dErr := MaxProfitTransport(profit, need, caps)
	lRows, lTotal, lErr := legacyMaxProfitTransport(profit, need, caps)
	if (dErr == nil) != (lErr == nil) {
		t.Fatalf("solver disagreement: dijkstra err=%v, legacy err=%v", dErr, lErr)
	}
	if dErr != nil {
		if dErr != ErrInfeasible || lErr != ErrInfeasible {
			t.Fatalf("unexpected errors: dijkstra=%v legacy=%v", dErr, lErr)
		}
		if brute {
			if _, ok := bruteForceTransport(profit, need, caps); ok {
				t.Fatalf("solvers infeasible but brute force found a plan")
			}
		}
		return false
	}
	if got := checkFeasible(t, profit, need, caps, dRows); math.Abs(got-dTotal) > 1e-9 {
		t.Fatalf("dijkstra reported %v but plan sums to %v", dTotal, got)
	}
	checkFeasible(t, profit, need, caps, lRows)
	if math.Abs(dTotal-lTotal) > 1e-9 {
		t.Fatalf("objectives differ: dijkstra=%v legacy=%v", dTotal, lTotal)
	}
	if brute {
		bTotal, ok := bruteForceTransport(profit, need, caps)
		if !ok {
			t.Fatalf("solvers found a plan but brute force is infeasible")
		}
		if math.Abs(dTotal-bTotal) > 1e-9 {
			t.Fatalf("objectives differ: dijkstra=%v brute=%v", dTotal, bTotal)
		}
	}
	return true
}

func TestParityRandomSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	feasible := 0
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(4)
		m := 1 + rng.Intn(5)
		profit, need, caps := randomInstance(rng, n, m, 2, 2, 0.15)
		if runParity(t, profit, need, caps, true) {
			feasible++
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible instances drawn; parity untested")
	}
}

func TestParityForbiddenHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	infeasible := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(4)
		m := 1 + rng.Intn(5)
		profit, need, caps := randomInstance(rng, n, m, 2, 2, 0.7)
		if !runParity(t, profit, need, caps, true) {
			infeasible++
		}
	}
	if infeasible == 0 {
		t.Fatal("no infeasible instances drawn; the forbidden-heavy regime is untested")
	}
}

func TestParityRandomMedium(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		n := 10 + rng.Intn(20)
		m := n + rng.Intn(30)
		profit, need, caps := randomInstance(rng, n, m, 3, 3, 0.1)
		runParity(t, profit, need, caps, false)
	}
}

func TestParityInfeasibleByCapacity(t *testing.T) {
	// Total capacity below total demand.
	profit := [][]float64{{1, 1}, {1, 1}}
	if _, _, err := MaxProfitTransport(profit, []int{2, 2}, []int{1, 1}); err != ErrInfeasible {
		t.Fatalf("dijkstra err = %v, want ErrInfeasible", err)
	}
	if _, _, err := legacyMaxProfitTransport(profit, []int{2, 2}, []int{1, 1}); err != ErrInfeasible {
		t.Fatalf("legacy err = %v, want ErrInfeasible", err)
	}
}

func TestNegativeColumnCapacityRejected(t *testing.T) {
	profit := [][]float64{{1, 2}}
	for name, solve := range map[string]func([][]float64, []int, []int) ([][]int, float64, error){
		"dijkstra": MaxProfitTransport,
		"legacy":   legacyMaxProfitTransport,
	} {
		if _, _, err := solve(profit, []int{1}, []int{1, -1}); err == nil || err == ErrInfeasible {
			t.Fatalf("%s solver accepted negative column capacity (err=%v)", name, err)
		}
	}
	var tr Transport
	if _, _, err := tr.SolveDense(profit, []int{1}, []int{1, 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.Resolve([]int{1, -1}); err == nil || err == ErrInfeasible {
		t.Fatalf("Resolve accepted negative column capacity (err=%v)", err)
	}
}

func TestResolveBeforeSolve(t *testing.T) {
	var tr Transport
	if _, _, err := tr.Resolve([]int{1}); err == nil {
		t.Fatal("Resolve before Solve accepted")
	}
}

// TestResolveMatchesFreshSolve grows and shrinks column capacities and checks
// that the warm-started Resolve matches a cold Solve of the final instance.
func TestResolveMatchesFreshSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5)
		m := 1 + rng.Intn(6)
		profit, need, caps := randomInstance(rng, n, m, 2, 2, 0.15)
		var tr Transport
		_, _, err := tr.SolveDense(profit, need, caps)
		if err != nil && err != ErrInfeasible {
			t.Fatal(err)
		}
		// Perturb capacities in both directions.
		caps2 := make([]int, m)
		for j := range caps2 {
			caps2[j] = caps[j] + rng.Intn(3) - 1
			if caps2[j] < 0 {
				caps2[j] = 0
			}
		}
		warmRows, warmTotal, warmErr := tr.Resolve(caps2)
		freshRows, freshTotal, freshErr := MaxProfitTransport(profit, need, caps2)
		if (warmErr == nil) != (freshErr == nil) {
			t.Fatalf("trial %d: warm err=%v, fresh err=%v", trial, warmErr, freshErr)
		}
		if warmErr != nil {
			continue
		}
		checkFeasible(t, profit, need, caps2, warmRows)
		checkFeasible(t, profit, need, caps2, freshRows)
		if math.Abs(warmTotal-freshTotal) > 1e-9 {
			t.Fatalf("trial %d: warm=%v fresh=%v", trial, warmTotal, freshTotal)
		}
	}
}

// TestResolveAfterInfeasibleSolve is SDGA's stage fallback: a Solve that fails
// on tight per-stage capacities is continued by Resolve with the reviewers'
// full remaining workload.
func TestResolveAfterInfeasibleSolve(t *testing.T) {
	profit := [][]float64{
		{0.9, 0.1},
		{0.8, Forbidden},
		{0.7, 0.2},
	}
	var tr Transport
	if _, _, err := tr.SolveDense(profit, []int{1, 1, 1}, []int{1, 1}); err != ErrInfeasible {
		t.Fatalf("tight caps err = %v, want ErrInfeasible", err)
	}
	rows, total, err := tr.Resolve([]int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	got := checkFeasible(t, profit, []int{1, 1, 1}, []int{2, 1}, rows)
	want, ok := bruteForceTransport(profit, []int{1, 1, 1}, []int{2, 1})
	if !ok || math.Abs(got-want) > 1e-9 || math.Abs(total-want) > 1e-9 {
		t.Fatalf("resolve total = %v (plan %v), brute force = %v", total, got, want)
	}
}

// TestWarmStartAcrossStages re-solves a sequence of related instances through
// one Transport (SDGA's δp stages) and checks each solve against a cold one.
func TestWarmStartAcrossStages(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, m := 12, 20
	var tr Transport
	profit, need, caps := randomInstance(rng, n, m, 1, 1, 0.1)
	for j := range caps {
		caps[j] = 1
	}
	for stage := 0; stage < 4; stage++ {
		// Stage-to-stage drift: marginal gains shrink as groups fill up.
		for i := range profit {
			for j := range profit[i] {
				if !math.IsInf(profit[i][j], -1) {
					profit[i][j] *= 0.5 + 0.5*rng.Float64()
				}
			}
		}
		warmRows, warmTotal, warmErr := tr.SolveDense(profit, need, caps)
		freshRows, freshTotal, freshErr := MaxProfitTransport(profit, need, caps)
		if (warmErr == nil) != (freshErr == nil) {
			t.Fatalf("stage %d: warm err=%v, fresh err=%v", stage, warmErr, freshErr)
		}
		if warmErr != nil {
			continue
		}
		checkFeasible(t, profit, need, caps, warmRows)
		checkFeasible(t, profit, need, caps, freshRows)
		if math.Abs(warmTotal-freshTotal) > 1e-9 {
			t.Fatalf("stage %d: warm=%v fresh=%v", stage, warmTotal, freshTotal)
		}
	}
}

// TestTransportStageSequenceMatchesSPFA is the stage-objective check of
// BenchmarkTransportStageSequencePaperScale at test scale: three related
// 200×400 stage instances solved in sequence through one Transport, which
// warm-starts the column duals across them, must each match the SPFA
// reference objective to 1e-9.
func TestTransportStageSequenceMatchesSPFA(t *testing.T) {
	const P, R, stages = 200, 400, 3
	rng := rand.New(rand.NewSource(17))
	need, caps := fillInts(P, 1), fillInts(R, 1)
	var tr Transport
	for s := 0; s < stages; s++ {
		profit := benchProfit(rng, P, R)
		_, got, err := tr.SolveDense(profit, need, caps)
		if err != nil {
			t.Fatalf("stage %d: %v", s, err)
		}
		_, want, err := legacyMaxProfitTransport(profit, need, caps)
		if err != nil {
			t.Fatalf("stage %d: SPFA: %v", s, err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("stage %d objective mismatch: dijkstra=%v spfa=%v", s, got, want)
		}
	}
}

// TestTransportReuseShrinksAllocations exercises dimension changes through one
// reused solver.
func TestTransportReuseAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var tr Transport
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(6)
		m := 1 + rng.Intn(7)
		profit, need, caps := randomInstance(rng, n, m, 2, 2, 0.2)
		rows, total, err := tr.SolveDense(profit, need, caps)
		fRows, fTotal, fErr := legacyMaxProfitTransport(profit, need, caps)
		if (err == nil) != (fErr == nil) {
			t.Fatalf("trial %d: err=%v legacy=%v", trial, err, fErr)
		}
		if err != nil {
			continue
		}
		checkFeasible(t, profit, need, caps, rows)
		checkFeasible(t, profit, need, caps, fRows)
		if math.Abs(total-fTotal) > 1e-9 {
			t.Fatalf("trial %d: total=%v legacy=%v", trial, total, fTotal)
		}
	}
}

// TestShardedLoadDeterminism: the sharded (Workers > 1) instance-load passes
// must produce byte-identical plans to the serial solver — not merely equal
// objectives — because sessions rely on replay determinism. Instances are
// drawn above the parallel-load threshold so the goroutine pool actually
// runs.
func TestShardedLoadDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 6; trial++ {
		n := 120 + rng.Intn(60)
		m := 600 + rng.Intn(200)
		profit, need, caps := randomInstance(rng, n, m, 1, 1, 0.05)
		serial := Transport{Workers: 1}
		sRows, sTotal, sErr := serial.SolveDense(profit, need, caps)
		for _, workers := range []int{2, 4, 7} {
			sharded := Transport{Workers: workers}
			pRows, pTotal, pErr := sharded.SolveDense(profit, need, caps)
			if (sErr == nil) != (pErr == nil) {
				t.Fatalf("trial %d workers %d: err=%v vs serial err=%v", trial, workers, pErr, sErr)
			}
			if sErr != nil {
				continue
			}
			if math.Abs(sTotal-pTotal) > 1e-12 {
				t.Fatalf("trial %d workers %d: total %v != serial %v", trial, workers, pTotal, sTotal)
			}
			for i := range sRows {
				if len(sRows[i]) != len(pRows[i]) {
					t.Fatalf("trial %d workers %d row %d: plan %v != serial %v", trial, workers, i, pRows[i], sRows[i])
				}
				for k := range sRows[i] {
					if sRows[i][k] != pRows[i][k] {
						t.Fatalf("trial %d workers %d row %d: plan %v != serial %v", trial, workers, i, pRows[i], sRows[i])
					}
				}
			}
		}
		// The dense path must agree with itself across worker counts too.
		d1 := Transport{Workers: 1}
		r1, t1, e1 := d1.SolveDense(profit, need, caps)
		d4 := Transport{Workers: 4}
		r4, t4, e4 := d4.SolveDense(profit, need, caps)
		if (e1 == nil) != (e4 == nil) {
			t.Fatalf("trial %d dense: err=%v vs %v", trial, e1, e4)
		}
		if e1 == nil {
			if math.Abs(t1-t4) > 1e-12 {
				t.Fatalf("trial %d dense: totals %v vs %v", trial, t1, t4)
			}
			for i := range r1 {
				for k := range r1[i] {
					if r1[i][k] != r4[i][k] {
						t.Fatalf("trial %d dense row %d: %v vs %v", trial, i, r4[i], r1[i])
					}
				}
			}
		}
	}
}
