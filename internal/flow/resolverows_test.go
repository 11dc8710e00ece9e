package flow

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestSolveDenseMatchesSPFA: the dense CSR keeps every cell, Forbidden ones
// at +Inf cost, and must match the SPFA reference on instances with
// conflicts, spare capacity, zero-capacity columns and zero-demand rows whose
// every cell is Forbidden — the rows fillMissingSlots and stageBackOff load
// for papers that need nothing.
func TestSolveDenseMatchesSPFA(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	feasible, idle := 0, 0
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(12)
		m := n + rng.Intn(12)
		profit := benchProfit(rng, n, m)
		need := make([]int, n)
		for i := range need {
			need[i] = 1 + rng.Intn(2)
			if rng.Intn(4) == 0 {
				need[i] = 0
				for j := range profit[i] {
					profit[i][j] = Forbidden
				}
				idle++
			}
		}
		caps := make([]int, m)
		for j := range caps {
			caps[j] = rng.Intn(3)
		}
		var tr Transport
		rows, got, err := tr.SolveDense(profit, need, caps)
		_, want, lErr := legacyMaxProfitTransport(profit, need, caps)
		if err != lErr {
			t.Fatalf("trial %d: feasibility disagrees: dense=%v spfa=%v", trial, err, lErr)
		}
		if err != nil {
			continue
		}
		if err := certify(&tr); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		feasible++
		if sum := checkFeasible(t, profit, need, caps, rows); math.Abs(sum-got) > 1e-9 {
			t.Fatalf("trial %d: dense reported %v but its plan sums to %v", trial, got, sum)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: objective mismatch: dense=%v spfa=%v", trial, got, want)
		}
	}
	if feasible == 0 || idle == 0 {
		t.Fatalf("draws untested: %d feasible, %d zero-demand rows", feasible, idle)
	}
}

// TestResolveRowsParity: after per-row edits (profit perturbations, new
// Forbidden cells, demand drops, capacity changes) the warm ResolveRows
// objective must match a cold Solve of the edited instance to 1e-9.
func TestResolveRowsParity(t *testing.T) {
	const P, R = 60, 120
	rng := rand.New(rand.NewSource(5))
	profit := benchProfit(rng, P, R)
	need := fillInts(P, 1)
	caps := fillInts(R, 1)

	var tr Transport
	if _, warmObj, err := tr.SolveDense(profit, need, caps); err != nil {
		t.Fatal(err)
	} else if err := certify(&tr); err != nil {
		t.Fatal(err)
	} else {
		var fresh Transport
		_, coldObj, err := fresh.SolveDense(profit, need, caps)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(warmObj-coldObj) > 1e-9 {
			t.Fatalf("initial dense solve disagrees with sparse: %v vs %v", warmObj, coldObj)
		}
	}

	for trial := 0; trial < 60; trial++ {
		var dirty []int
		switch trial % 4 {
		case 0: // perturb every cost of one row (hardest: full re-route)
			row := rng.Intn(P)
			for j := range profit[row] {
				if !math.IsInf(profit[row][j], -1) {
					profit[row][j] = rng.Float64()
				}
			}
			dirty = []int{row}
		case 1: // a new conflict: one cell becomes Forbidden
			row := rng.Intn(P)
			profit[row][rng.Intn(R)] = Forbidden
			dirty = []int{row}
		case 2: // a withdrawal: one row's demand drops to zero
			row := rng.Intn(P)
			need[row] = 0
			dirty = []int{row}
		case 3: // a restore plus a capacity bump
			for i := range need {
				if need[i] == 0 {
					need[i] = 1
					dirty = append(dirty, i)
				}
			}
			caps[rng.Intn(R)] = 2
		}
		_, warmObj, err := tr.ResolveRows(profit, dirty, need, caps)
		if err != nil {
			t.Fatalf("trial %d: warm resolve: %v", trial, err)
		}
		if err := certify(&tr); err != nil {
			t.Fatalf("trial %d: warm plan: %v", trial, err)
		}
		var fresh Transport
		_, coldObj, err := fresh.SolveDense(profit, need, caps)
		if err != nil {
			t.Fatalf("trial %d: cold solve: %v", trial, err)
		}
		if err := certify(&fresh); err != nil {
			t.Fatalf("trial %d: cold plan: %v", trial, err)
		}
		if math.Abs(warmObj-coldObj) > 1e-9 {
			t.Fatalf("trial %d: warm %v cold %v", trial, warmObj, coldObj)
		}
	}
}

// TestResolveRowsPlanMatchesColdPlan: on instances with unique optima the
// warm re-solve must reproduce the cold plan exactly (the property the
// session warm replay relies on for assignment-level parity).
func TestResolveRowsPlanMatchesColdPlan(t *testing.T) {
	const P, R = 40, 80
	rng := rand.New(rand.NewSource(7))
	profit := benchProfit(rng, P, R)
	need := fillInts(P, 1)
	caps := fillInts(R, 1)
	var tr Transport
	if _, _, err := tr.SolveDense(profit, need, caps); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		row := rng.Intn(P)
		profit[row][rng.Intn(R)] = Forbidden
		if rng.Intn(2) == 0 {
			for j := range profit[row] {
				if !math.IsInf(profit[row][j], -1) {
					profit[row][j] = rng.Float64()
				}
			}
		}
		warmRows, _, err := tr.ResolveRows(profit, []int{row}, need, caps)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var fresh Transport
		coldRows, _, err := fresh.SolveDense(profit, need, caps)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range coldRows {
			if len(warmRows[i]) != len(coldRows[i]) {
				t.Fatalf("trial %d row %d: warm %v cold %v", trial, i, warmRows[i], coldRows[i])
			}
			for k := range coldRows[i] {
				if warmRows[i][k] != coldRows[i][k] {
					t.Fatalf("trial %d row %d: warm %v cold %v", trial, i, warmRows[i], coldRows[i])
				}
			}
		}
	}
}

// TestResolveRowsShardedDeterminism: warm re-solves must produce
// bit-identical plans at any worker count now that three pieces of the warm
// path run concurrently when Workers > 1 — the sharded dirty-row read phase
// of ResolveRows, the pooled row-relaxation shards inside the repair and
// phase searches, and the batched improving-cycle cancellation they feed.
// The instance is drawn wide enough that every parallel path actually
// engages (m ≥ relaxShardMin for the relax pool, dirty-set × m above the
// read-phase threshold), and the edit script replays withdrawal waves,
// restores with cost perturbations and conflict batches — the coalesced
// batch shapes the session layer drains. This is the re-augment counterpart
// of TestShardedLoadDeterminism.
func TestResolveRowsShardedDeterminism(t *testing.T) {
	const P, R, wave = 80, 1100, 32
	run := func(workers int) (plans [][][]int, totals []float64) {
		rng := rand.New(rand.NewSource(331))
		profit := benchProfit(rng, P, R)
		need := fillInts(P, 1)
		caps := fillInts(R, 1)
		tr := Transport{Workers: workers}
		record := func(rows [][]int, total float64, err error) {
			if err != nil {
				t.Fatalf("workers %d step %d: %v", workers, len(plans), err)
			}
			cp := make([][]int, len(rows))
			for i := range rows {
				cp[i] = append([]int(nil), rows[i]...)
			}
			plans, totals = append(plans, cp), append(totals, total)
		}
		record(tr.SolveDense(profit, need, caps))
		for trial := 0; trial < 4; trial++ {
			dirty := rng.Perm(P)[:wave]
			// A withdrawal wave: the freed columns force the sink-dual
			// repair (and its batched cycle cancellation) on the resolve.
			for _, i := range dirty {
				need[i] = 0
			}
			record(tr.ResolveRows(profit, dirty, need, caps))
			// Restore the wave with perturbed rows: every restored row
			// re-reads its full width and re-augments.
			for _, i := range dirty {
				need[i] = 1
				for j := range profit[i] {
					if !math.IsInf(profit[i][j], -1) {
						profit[i][j] = rng.Float64()
					}
				}
			}
			record(tr.ResolveRows(profit, dirty, need, caps))
			// A conflict batch across distinct rows.
			coi := rng.Perm(P)[:8]
			for _, i := range coi {
				profit[i][rng.Intn(R)] = Forbidden
			}
			record(tr.ResolveRows(profit, coi, need, caps))
		}
		return plans, totals
	}
	refPlans, refTotals := run(1)
	for _, workers := range []int{2, 4, 8} {
		plans, totals := run(workers)
		for s := range refPlans {
			if totals[s] != refTotals[s] {
				t.Fatalf("workers %d step %d: total %v != serial %v", workers, s, totals[s], refTotals[s])
			}
			for i := range refPlans[s] {
				if len(plans[s][i]) != len(refPlans[s][i]) {
					t.Fatalf("workers %d step %d row %d: plan %v != serial %v", workers, s, i, plans[s][i], refPlans[s][i])
				}
				for k := range refPlans[s][i] {
					if plans[s][i][k] != refPlans[s][i][k] {
						t.Fatalf("workers %d step %d row %d: plan %v != serial %v", workers, s, i, plans[s][i], refPlans[s][i])
					}
				}
			}
		}
	}
}

// TestResolveRowsInfeasibleRow: a row whose cells all become Forbidden makes
// the instance infeasible; the dense path must report that rather than hang
// or corrupt state, and a later fix must recover.
func TestResolveRowsInfeasibleRow(t *testing.T) {
	const P, R = 6, 8
	rng := rand.New(rand.NewSource(9))
	profit := benchProfit(rng, P, R)
	for i := range profit {
		for j := range profit[i] {
			if math.IsInf(profit[i][j], -1) {
				profit[i][j] = rng.Float64()
			}
		}
	}
	need := fillInts(P, 1)
	caps := fillInts(R, 1)
	var tr Transport
	if _, _, err := tr.SolveDense(profit, need, caps); err != nil {
		t.Fatal(err)
	}
	saved := append([]float64(nil), profit[2]...)
	for j := range profit[2] {
		profit[2][j] = Forbidden
	}
	if _, _, err := tr.ResolveRows(profit, []int{2}, need, caps); err != ErrInfeasible {
		t.Fatalf("fully forbidden row: err = %v, want ErrInfeasible", err)
	}
	copy(profit[2], saved)
	if _, _, err := tr.ResolveRows(profit, []int{2}, need, caps); err != nil {
		t.Fatalf("recovery after restoring the row: %v", err)
	}
}

// TestResolveRowsErrors covers the misuse guards. Every input is checked
// before anything changes, so a rejected call leaves the costs, demands,
// capacities and flow as they were, and a following Resolve with the
// original capacities returns the original plan. The last call, a dirty row
// plus a negative capacity, once released the row and re-capped the earlier
// columns before it found the negative one.
func TestResolveRowsErrors(t *testing.T) {
	profit := [][]float64{{1, 2, 0.5}, {3, 4, 0.25}, {0.75, 1.5, 2.5}}
	need := []int{1, 1, 1}
	caps := []int{1, 1, 1}

	var unsolved Transport
	if _, _, err := unsolved.ResolveRows(profit, nil, need, caps); err == nil {
		t.Fatal("ResolveRows before Solve accepted")
	}
	var dense Transport
	plan, total, err := dense.SolveDense(profit, need, caps)
	if err != nil {
		t.Fatal(err)
	}
	state := func() string {
		return fmt.Sprint(dense.rowNeed[:dense.n], dense.colCap[:dense.m], dense.rowFlow[:dense.n])
	}
	before := state()
	for _, c := range []struct {
		name         string
		profit       [][]float64
		rows         []int
		rowNeed, cap []int
	}{
		{"out-of-range dirty row", profit, []int{5}, need, caps},
		{"rowNeed dimension mismatch", profit, nil, []int{1}, caps},
		{"profit dimension mismatch", profit[:2], []int{0}, need, caps},
		{"dirty row not aligned", [][]float64{{1, 2}, profit[1], profit[2]}, []int{0}, need, caps},
		{"negative demand", profit, []int{0}, []int{-1, 1, 1}, caps},
		{"negative capacity", profit, nil, need, []int{1, 1, -1}},
		{"dirty row plus negative capacity", profit, []int{0}, []int{0, 1, 1}, []int{2, 2, -1}},
	} {
		if _, _, err := dense.ResolveRows(c.profit, c.rows, c.rowNeed, c.cap); err == nil {
			t.Fatalf("%s accepted", c.name)
		}
		if got := state(); got != before {
			t.Fatalf("%s: rejected call changed rowNeed, colCap, rowFlow from %s to %s", c.name, before, got)
		}
	}
	got, gotTotal, err := dense.Resolve(caps)
	if err != nil || fmt.Sprint(got) != fmt.Sprint(plan) || gotTotal != total {
		t.Fatalf("Resolve after the rejected calls: %v %v %v, want %v %v", got, gotTotal, err, plan, total)
	}

	// A DenseRow callback that returns a short row for the widened row 1 is
	// refused before any cost changes. The check once ran after row 0, listed
	// first, had already taken its new cost with its flow kept, and the next
	// Resolve returned a plan its certificate rejects.
	full := [][]float64{{0.5, 0.4, 0.9}, {0.8, 0.1, 0.2}}
	vals := [][]float64{{0.5}, {0.8}}
	cols := [][]int32{{0}, {0}}
	spNeed, spCaps := []int{1, 1}, []int{1, 1, 1}
	var sp Transport
	good := func(i int, buf []float64) []float64 { return append(buf[:0], full[i]...) }
	sp.DenseRow = good
	if _, _, err := sp.SolveSparse(vals, cols, 3, spNeed, spCaps); err != nil {
		t.Fatal(err)
	}
	if sp.rowFull[0] || !sp.rowFull[1] {
		t.Fatalf("widened rows %v, want only row 1", sp.rowFull[:sp.n])
	}
	spState := func() string {
		return fmt.Sprint(sp.cost[:sp.rowStart[sp.n]], sp.rowNeed[:sp.n], sp.colCap[:sp.m], sp.rowFlow[:sp.n])
	}
	before = spState()
	sp.DenseRow = func(i int, buf []float64) []float64 { return good(i, buf)[:1] }
	vals[0][0] = 0.05
	if _, _, err := sp.ResolveRows(vals, []int{0, 1}, spNeed, spCaps); err == nil {
		t.Fatal("short DenseRow row accepted")
	}
	if got := spState(); got != before {
		t.Fatalf("short DenseRow row: rejected call changed costs, rowNeed, colCap, rowFlow from %s to %s", before, got)
	}
	sp.DenseRow = good
	if _, _, err := sp.Resolve(spCaps); err != nil {
		t.Fatal(err)
	}
	if err := certify(&sp); err != nil {
		t.Fatalf("Resolve after the refused short row: %v", err)
	}
}

// TestSolveDenseFullyForbiddenRow: a cold dense solve with a demanding row
// whose cells are all Forbidden must return ErrInfeasible (never panic), a
// zero-demand forbidden row must be tolerated, and after the offending
// demand is dropped the retained state must re-solve to the optimum of the
// reduced instance.
func TestSolveDenseFullyForbiddenRow(t *testing.T) {
	profit := [][]float64{
		{0.5, 0.2, 0.1},
		{Forbidden, Forbidden, Forbidden},
		{0.3, 0.4, 0.2},
	}
	need := []int{1, 1, 1}
	caps := []int{1, 1, 1}
	var tr Transport
	if _, _, err := tr.SolveDense(profit, need, caps); err != ErrInfeasible {
		t.Fatalf("saturated row: err = %v, want ErrInfeasible", err)
	}
	// Dropping the saturated row's demand makes the instance feasible again;
	// the warm path must agree with a fresh solve.
	need[1] = 0
	rows, total, err := tr.ResolveRows(profit, []int{1}, need, caps)
	if err != nil {
		t.Fatalf("resolve after dropping the saturated demand: %v", err)
	}
	if len(rows[1]) != 0 {
		t.Fatalf("forbidden row received columns %v", rows[1])
	}
	_, fresh, err := MaxProfitTransport(profit, need, caps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-fresh) > 1e-9 {
		t.Fatalf("warm total %v != fresh total %v", total, fresh)
	}
	// A zero-demand forbidden row is fine from cold too.
	var tr2 Transport
	if _, _, err := tr2.SolveDense(profit, need, caps); err != nil {
		t.Fatalf("cold solve with inactive forbidden row: %v", err)
	}
}

// TestResolveRowsForbiddenRowAmongOthers: the saturated row must surface
// ErrInfeasible even when other rows still have deficits the solver could
// satisfy, and the partial state must stay consistent for a later recovery.
func TestResolveRowsForbiddenRowAmongOthers(t *testing.T) {
	const P, R = 10, 14
	rng := rand.New(rand.NewSource(27))
	profit := benchProfit(rng, P, R)
	for i := range profit {
		for j := range profit[i] {
			if math.IsInf(profit[i][j], -1) {
				profit[i][j] = rng.Float64()
			}
		}
	}
	need := fillInts(P, 1)
	caps := fillInts(R, 1)
	var tr Transport
	if _, _, err := tr.SolveDense(profit, need, caps); err != nil {
		t.Fatal(err)
	}
	// Saturate row 4 and simultaneously dirty two healthy rows, so the
	// re-solve has real work besides the infeasibility.
	saved := append([]float64(nil), profit[4]...)
	for j := range profit[4] {
		profit[4][j] = Forbidden
	}
	profit[0][3] = Forbidden
	profit[7][1] = Forbidden
	if _, _, err := tr.ResolveRows(profit, []int{0, 4, 7}, need, caps); err != ErrInfeasible {
		t.Fatalf("saturated row among dirty rows: err = %v, want ErrInfeasible", err)
	}
	// Restore the row: the warm state must recover to the fresh optimum.
	copy(profit[4], saved)
	rows, total, err := tr.ResolveRows(profit, []int{4}, need, caps)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	got := checkFeasible(t, profit, need, caps, rows)
	_, fresh, err := MaxProfitTransport(profit, need, caps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-fresh) > 1e-9 || math.Abs(got-fresh) > 1e-9 {
		t.Fatalf("recovery total %v (plan %v) != fresh %v", total, got, fresh)
	}
}
