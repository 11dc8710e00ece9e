package flow

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// certify proves tr's current plan optimal from the plan and the duals
// alone, with no reference solver. The plan must be feasible: each row
// carries exactly its demand, and no column more than its capacity. The
// duals must leave every residual arc at a non-negative reduced cost,
// within tightEps: a row→column arc not in the plan (Forbidden cells
// excepted) needs cost + u − v ≥ 0, the reverse of an arc in the plan
// v − cost − u ≥ 0, the sink arc of a spare column v − potT ≥ 0, and the
// reverse sink arc of a flowed column potT − v ≥ 0. Such duals admit no
// negative residual cycle, so no plan for the same demands and capacities
// has a higher profit. The negated comparisons also reject NaN.
func certify(tr *Transport) error {
	used := make([]int, tr.m)
	for i := 0; i < tr.n; i++ {
		carried := 0
		for e := tr.rowStart[i]; e < tr.rowStart[i+1]; e++ {
			j, cost := tr.colIdx[e], tr.cost[e]
			switch {
			case tr.assigned[e]:
				carried++
				used[j]++
				if rc := tr.v[j] - cost - tr.u[i]; !(rc >= -tightEps) {
					return fmt.Errorf("assigned arc (%d,%d) has reverse reduced cost %v", i, j, rc)
				}
			case !math.IsInf(cost, 1):
				if rc := cost + tr.u[i] - tr.v[j]; !(rc >= -tightEps) {
					return fmt.Errorf("free arc (%d,%d) has reduced cost %v", i, j, rc)
				}
			}
		}
		if carried != tr.rowNeed[i] || carried != tr.rowFlow[i] {
			return fmt.Errorf("row %d carries %d units (rowFlow %d), demand %d", i, carried, tr.rowFlow[i], tr.rowNeed[i])
		}
	}
	for j, n := range used {
		switch {
		case n != len(tr.colPairs[j]) || n > tr.colCap[j]:
			return fmt.Errorf("column %d carries %d units (%d listed), capacity %d", j, n, len(tr.colPairs[j]), tr.colCap[j])
		case n < tr.colCap[j] && !(tr.v[j]-tr.potT >= -tightEps):
			return fmt.Errorf("spare column %d has sink reduced cost %v", j, tr.v[j]-tr.potT)
		case n > 0 && !(tr.potT-tr.v[j] >= -tightEps):
			return fmt.Errorf("flowed column %d has reverse sink reduced cost %v", j, tr.potT-tr.v[j])
		}
	}
	return nil
}

// TestCertifyRejects: the certificate holds on a solved instance and fails
// once the plan or a dual is broken, each of its rules on its own.
func TestCertifyRejects(t *testing.T) {
	profit := benchProfit(rand.New(rand.NewSource(2)), 6, 9)
	need, caps := fillInts(6, 1), fillInts(9, 1)
	caps[0] = 0
	for name, corrupt := range map[string]func(tr *Transport){
		"none": func(*Transport) {},
		"row short of its demand": func(tr *Transport) {
			tr.rowNeed[0]++
		},
		"column over capacity": func(tr *Transport) {
			for j := range tr.colPairs {
				if len(tr.colPairs[j]) > 0 {
					tr.colCap[j] = 0
					return
				}
			}
		},
		"free arc below zero": func(tr *Transport) {
			tr.u[0] -= 10
		},
		"assigned arc below zero": func(tr *Transport) {
			tr.u[0] += 10
		},
		"spare column priced": func(tr *Transport) {
			tr.potT += 10
		},
		"flowed column over the sink": func(tr *Transport) {
			tr.potT -= 10
		},
	} {
		var tr Transport
		if _, _, err := tr.SolveDense(profit, need, caps); err != nil {
			t.Fatal(err)
		}
		corrupt(&tr)
		if err := certify(&tr); (err == nil) != (name == "none") {
			t.Errorf("%s: certify = %v", name, err)
		}
	}
}
