package flow

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// tieRow overwrites the leading cells of row with profits above every other
// cell that tie within tightEps of each other, in an order that moves the
// running maximum inside the band, past it, and back below it.
func tieRow(row []float64) {
	for x, d := range []float64{0, 0.4e-12, -0.3e-12, 0.9e-12, 1.5e-12, 3e-12, 2.5e-12, 3e-12} {
		if x < len(row) {
			row[x] = 2 + d
		}
	}
}

// TestLoadPassMatchesColdDuals pins the load of SolveSparse, which is load,
// then run and extract: the cold duals and seed candidates that the load's
// shards derive cell by cell, as they copy each row, must equal bit for bit
// what resetDualsForEmptyFlow computes on the finished CSR from cleared
// column duals — u, potT and the candidate edges. It covers a dense and a
// candidate load, a row whose cells are all Forbidden, rows whose best cells
// tie within tightEps and a row whose best cells are signed zeros, serially
// and on four shards, on a transport whose previous solve left non-zero
// column duals. Each load's solve must then be certified optimal.
func TestLoadPassMatchesColdDuals(t *testing.T) {
	const n, m = 100, 700 // 70,000 cells: the load shards when Workers > 1
	rng := rand.New(rand.NewSource(5))
	profit := benchProfit(rng, n, m)
	for j := range profit[3] {
		profit[3][j] = Forbidden
	}
	for i := 5; i < 10; i++ {
		tieRow(profit[i])
	}
	vals, cols := sparseFromDense(rng, profit, 64)
	for i := 5; i < 10; i++ {
		tieRow(vals[i])
	}
	// Row 11's best cells are −0 and +0: its dual must be +0, the bits of
	// v[j] − cost with v[j] = +0, not the −0 of its first cell.
	for _, row := range [][]float64{profit[11], vals[11]} {
		for x := range row {
			row[x] = -0.5
		}
		row[0], row[3] = math.Copysign(0, -1), 0
	}
	need, caps := fillInts(n, 1), fillInts(m, 1)
	need[3] = 0
	caps[7] = 0
	// The previous instance has as many columns, so load reuses the column
	// duals its solve left, and so few with capacity that they are priced.
	previous := benchProfit(rand.New(rand.NewSource(6)), n, m)
	prevCaps := make([]int, m)
	for j := 0; j < n+n/10; j++ {
		prevCaps[j] = 1
	}

	for _, load := range []struct {
		name string
		vals [][]float64
		cols [][]int32
	}{{"dense", profit, nil}, {"candidates", vals, cols}} {
		for _, workers := range []int{1, 4} {
			tr := Transport{Workers: workers}
			if _, _, err := tr.SolveDense(previous, fillInts(n, 1), prevCaps); err != nil {
				t.Fatal(err)
			}
			if !slices.ContainsFunc(tr.v[:tr.m], func(v float64) bool { return v != 0 }) {
				t.Fatal("the previous solve left every column dual at 0")
			}
			tr.load(load.vals, load.cols, m, need, caps)
			for j, v := range tr.v[:m] {
				if !sameBits(v, 0) {
					t.Fatalf("%s/%d: load left v[%d] = %v, want +0", load.name, workers, j, v)
				}
			}
			u := slices.Clone(tr.u[:n])
			cand := slices.Clone(tr.cand[:n*seedCands])
			potT := tr.potT
			if !math.IsInf(u[3], -1) {
				t.Fatalf("%s/%d: the all-Forbidden row has dual %v, want -Inf", load.name, workers, u[3])
			}

			tr.resetDualsForEmptyFlow()
			if !sameBits(potT, tr.potT) {
				t.Fatalf("%s/%d: load potT %v, standalone pass %v", load.name, workers, potT, tr.potT)
			}
			for i := range u {
				if !sameBits(u[i], tr.u[i]) {
					t.Fatalf("%s/%d: load u[%d] %v, standalone pass %v", load.name, workers, i, u[i], tr.u[i])
				}
			}
			if !slices.Equal(cand, tr.cand[:n*seedCands]) {
				t.Fatalf("%s/%d: load seed candidates differ from the standalone pass", load.name, workers)
			}
			if i := 5 * seedCands; cand[i+1] < 0 {
				t.Fatalf("%s/%d: tied row 5 has candidates %v, want more than one", load.name, workers, cand[i:i+seedCands])
			}
			if !sameBits(u[11], 0) {
				t.Fatalf("%s/%d: row 11 has dual %v, want +0", load.name, workers, u[11])
			}

			if err := tr.run(); err != nil {
				t.Fatalf("%s/%d: %v", load.name, workers, err)
			}
			if err := certify(&tr); err != nil {
				t.Fatalf("%s/%d: %v", load.name, workers, err)
			}
		}
	}
}
