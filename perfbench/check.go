package main

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/wire"
)

// mirror tracks the instance a tenant holds after the edits sent to it, so
// every returned assignment can be checked against the right constraints.
type mirror struct {
	in        *core.Instance
	withdrawn []bool
	edits     uint64 // accepted edits
}

func newMirror(base *core.Instance) *mirror {
	return &mirror{in: base.Clone(), withdrawn: make([]bool, base.NumPapers())}
}

// apply records an accepted edit.
func (m *mirror) apply(e wire.Edit) {
	m.edits++
	switch e.Op {
	case wire.OpAddConflict:
		m.in.AddConflict(e.R, e.P)
	case wire.OpWithdraw:
		m.withdrawn[e.P] = true
	case wire.OpRestore:
		m.withdrawn[e.P] = false
	case wire.OpAddReviewer:
		m.in.AddReviewer(core.Reviewer{ID: e.Reviewer.ID, Name: e.Reviewer.Name, HIndex: e.Reviewer.HIndex, Topics: e.Reviewer.Topics})
	case wire.OpSetWorkload:
		m.in.Workload = e.Workload
	}
}

// check validates an assignment against the mirrored instance: every active
// paper gets δp distinct eligible reviewers, withdrawn papers get none, no
// reviewer exceeds δr, and the reported objective and average coverage are
// those of the returned groups.
func (m *mirror) check(res *wire.Result) error {
	if res == nil {
		return fmt.Errorf("missing result")
	}
	P := m.in.NumPapers()
	if len(res.Groups) != P {
		return fmt.Errorf("assignment covers %d papers, want %d", len(res.Groups), P)
	}
	a := core.NewAssignment(P)
	score, active := 0.0, 0
	for p, g := range res.Groups {
		if m.withdrawn[p] {
			if len(g) != 0 {
				return fmt.Errorf("withdrawn paper %d has reviewers %v", p, g)
			}
			continue
		}
		if len(g) != m.in.GroupSize {
			return fmt.Errorf("paper %d has %d reviewers, want δp=%d", p, len(g), m.in.GroupSize)
		}
		a.Groups[p] = g
		score += m.in.GroupScore(p, g)
		active++
	}
	if err := m.in.ValidatePartial(a); err != nil {
		return err
	}
	if !closeTo(score, res.Score) {
		return fmt.Errorf("reported objective %.12g, groups score %.12g", res.Score, score)
	}
	if active > 0 && !closeTo(score/float64(active), res.AverageCoverage) {
		return fmt.Errorf("reported average coverage %.12g, groups give %.12g", res.AverageCoverage, score/float64(active))
	}
	return nil
}

// closeTo compares two objectives at the 1e-9 parity tolerance.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*max(1, math.Abs(a), math.Abs(b))
}

// sameGroups reports whether two assignments pick the same reviewer sets.
func sameGroups(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for p := range a {
		x, y := slices.Clone(a[p]), slices.Clone(b[p])
		slices.Sort(x)
		slices.Sort(y)
		if !slices.Equal(x, y) {
			return false
		}
	}
	return true
}
