package tenant

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	wgrap "repro"
	"repro/internal/core"
	"repro/internal/cra"
	"repro/internal/wire"
)

// fuzzEditInstance is FuzzApplyEdits' fixed venue: 6 papers, 5 reviewers,
// 4 topics, δp = 3 and δr = 4, so a paper saturates at its third conflict
// and the pool carries 20 of the 18 review slots.
func fuzzEditInstance() *wire.Instance {
	in := testInstance(6, 5, 4, 11)
	in.Workload = 4
	return in
}

// craEdit converts a decoded wire edit to the session's edit record; ok is
// false when the wire form names no edit (an unknown op, an add-reviewer
// without a reviewer).
func craEdit(w wire.Edit) (e cra.Edit, ok bool) {
	e = cra.Edit{R: w.R, P: w.P, Workload: w.Workload}
	switch w.Op {
	case wire.OpAddConflict:
		e.Op = cra.OpAddConflict
	case wire.OpWithdraw:
		e.Op = cra.OpWithdrawPaper
	case wire.OpRestore:
		e.Op = cra.OpRestorePaper
	case wire.OpSetWorkload:
		e.Op = cra.OpSetWorkload
	case wire.OpAddReviewer:
		if w.Reviewer == nil {
			return e, false
		}
		e.Op = cra.OpAddReviewer
		e.Reviewer = core.Reviewer{ID: w.Reviewer.ID, Name: w.Reviewer.Name, HIndex: w.Reviewer.HIndex, Topics: w.Reviewer.Topics}
	default:
		return e, false
	}
	return e, true
}

// verdict names an edit's outcome by the sentinel it wraps, on either side
// of the wgrap boundary.
func verdict(err error) string {
	switch {
	case err == nil:
		return "accepted"
	case errors.Is(err, wgrap.ErrInvalidEdit), errors.Is(err, cra.ErrInvalidEdit):
		return "invalid-edit"
	case errors.Is(err, wgrap.ErrConflictSaturated), errors.Is(err, cra.ErrConflictSaturated):
		return "conflict-saturated"
	case errors.Is(err, wgrap.ErrInfeasible), errors.Is(err, cra.ErrInsufficientCapacity):
		return "infeasible"
	}
	return "unclassified: " + err.Error()
}

// conflictCounts returns each paper's number of conflicts in in.
func conflictCounts(in *core.Instance) []int {
	n := make([]int, in.NumPapers())
	for _, c := range in.Conflicts() {
		n[c.Paper]++
	}
	return n
}

// sortedConflicts lists in's conflicts in a fixed order.
func sortedConflicts(in *core.Instance) []core.Conflict {
	cs := in.Conflicts()
	slices.SortFunc(cs, func(a, b core.Conflict) int {
		if a.Paper != b.Paper {
			return a.Paper - b.Paper
		}
		return a.Reviewer - b.Reviewer
	})
	return cs
}

// FuzzApplyEdits feeds hostile edit batches — negative or huge indices,
// unknown ops, malformed reviewers, extreme workloads — to a tenant, each
// edit through ApplyEdits, and the same edits to a bare cra.Session built
// from the same instance. The body is decoded as the server decodes a POST
// /edits body; the method byte picks one of the six methods. Before every
// third edit the tenant gets a ResolveAsync it does not wait for, so its
// Solver judges edits by its mirror while the session is busy.
//
// Both sides must give every edit the same verdict, and each accepted edit
// must leave the bare session's instance with at least δp conflict-free
// reviewers per active paper and the capacity for the active demand. At the
// end the Solver's Seq counts the accepted edits, its papers, pool, workload
// and conflicts equal the bare session's, every solve returned nil or an
// ErrInfeasible (anything else means the mirror and the session diverged),
// and a successful final Resolve respects every accepted edit.
func FuzzApplyEdits(f *testing.F) {
	for method, body := range []string{
		`{"edits":[{"op":"add-conflict","r":1,"p":2},{"op":"withdraw-paper","p":3},{"op":"restore-paper","p":3},` +
			`{"op":"add-reviewer","reviewer":{"id":"x","topics":[0.5,0.5,0,0]}},{"op":"set-workload","workload":5},{"op":"retract-paper","p":0}]}`,
		`{"edits":[{"op":"add-conflict","r":-1,"p":0},{"op":"add-conflict","r":1099511627776,"p":0},{"op":"add-conflict","r":5,"p":0},` +
			`{"op":"add-conflict","r":0,"p":6},{"op":"withdraw-paper","p":-1},{"op":"withdraw-paper","p":1099511627776},{"op":"restore-paper","p":6}]}`,
		`{"edits":[{"op":"add-reviewer"},{"op":"add-reviewer","reviewer":null},{"op":"add-reviewer","reviewer":{"topics":[1,0]}},` +
			`{"op":"add-reviewer","reviewer":{"topics":[0.1,0.2,0.3,0.4]}}]}`,
		`{"edits":[{"op":"set-workload","workload":0},{"op":"set-workload","workload":-1},` +
			`{"op":"set-workload","workload":4611686018427387904},{"op":"set-workload","workload":1},{"op":"set-workload","workload":4}]}`,
		`{"edits":[{"op":"add-conflict","r":0,"p":1},{"op":"add-conflict","r":1,"p":1},{"op":"add-conflict","r":2,"p":1},` +
			`{"op":"withdraw-paper","p":1},{"op":"add-conflict","r":2,"p":1},{"op":"restore-paper","p":1},{"op":"add-conflict","r":1,"p":1}]}`,
	} {
		f.Add(byte(method), []byte(body))
	}
	all := `{"edits":[{"op":"withdraw-paper","p":0},{"op":"withdraw-paper","p":1},{"op":"withdraw-paper","p":2},` +
		`{"op":"withdraw-paper","p":3},{"op":"withdraw-paper","p":4},{"op":"withdraw-paper","p":5}]}`
	for method := range wgrap.Methods() {
		f.Add(byte(method), []byte(all))
	}
	f.Fuzz(func(t *testing.T, method byte, body []byte) {
		var req wire.EditRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		methods := wgrap.Methods()
		m := methods[int(method)%len(methods)]
		reg, err := NewRegistry("")
		if err != nil {
			t.Fatal(err)
		}
		defer reg.Close()
		tn, err := reg.Create(&wire.CreateRequest{
			ID: "fuzz", Instance: fuzzEditInstance(), Config: wire.TenantConfig{Method: string(m), Omega: 2, Seed: 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		in, err := fuzzEditInstance().ToInstance()
		if err != nil {
			t.Fatal(err)
		}
		sess, err := cra.NewSession(in, cra.SessionConfig{})
		if err != nil {
			t.Fatal(err)
		}

		var tickets []*wgrap.Ticket
		accepted := uint64(0)
		for k, we := range req.Edits {
			if k%3 == 2 {
				tickets = append(tickets, tn.Solver.ResolveAsync())
			}
			_, got := ApplyEdits(tn, []wire.Edit{we})
			want := fmt.Errorf("%w: no such edit", cra.ErrInvalidEdit)
			if e, ok := craEdit(we); ok {
				_, want = sess.Apply(e)
			}
			if g, w := verdict(got), verdict(want); g != w || strings.HasPrefix(g, "unclassified") {
				t.Fatalf("edit %d %+v: tenant %s, session %s", k, we, g, w)
			}
			if want != nil {
				continue
			}
			accepted++
			n := conflictCounts(in)
			for p := range n {
				if sess.Active(p) && in.NumReviewers()-n[p] < in.GroupSize {
					t.Fatalf("edit %d: active paper %d keeps %d eligible reviewers, δp = %d", k, p, in.NumReviewers()-n[p], in.GroupSize)
				}
			}
			if !core.HasCapacity(in.NumReviewers(), in.Workload, sess.ActivePapers()*in.GroupSize) {
				t.Fatalf("edit %d: δr = %d leaves %d reviewers short of %d active papers", k, in.Workload, in.NumReviewers(), sess.ActivePapers())
			}
		}

		res, err := tn.Solver.Resolve(context.Background())
		for _, tk := range tickets {
			if _, err := tk.Wait(context.Background()); err != nil && !errors.Is(err, wgrap.ErrInfeasible) {
				t.Fatalf("async resolve: %v", err)
			}
		}
		if err != nil && !errors.Is(err, wgrap.ErrInfeasible) {
			t.Fatalf("final resolve: %v", err)
		}
		if got := tn.Solver.Seq(); got != accepted {
			t.Fatalf("Seq %d, want %d accepted edits", got, accepted)
		}
		if got, want := tn.Solver.ActivePapers(), sess.ActivePapers(); got != want {
			t.Fatalf("%d active papers, bare session has %d", got, want)
		}
		own := tn.Solver.Instance()
		if own.NumReviewers() != in.NumReviewers() || own.Workload != in.Workload ||
			fmt.Sprint(sortedConflicts(own)) != fmt.Sprint(sortedConflicts(in)) {
			t.Fatalf("solver instance (R=%d, δr=%d, conflicts %v) differs from the bare session's (R=%d, δr=%d, conflicts %v)",
				own.NumReviewers(), own.Workload, sortedConflicts(own), in.NumReviewers(), in.Workload, sortedConflicts(in))
		}
		if err != nil {
			return
		}
		load := make([]int, in.NumReviewers())
		for p, g := range res.Assignment.Groups {
			want := 0
			if sess.Active(p) {
				want = in.GroupSize
			}
			if tn.Solver.Active(p) != sess.Active(p) || len(g) != want {
				t.Fatalf("paper %d (active %v) has group %v", p, sess.Active(p), g)
			}
			for _, r := range g {
				if in.IsConflict(r, p) {
					t.Fatalf("paper %d is assigned conflicted reviewer %d", p, r)
				}
				if load[r]++; load[r] > in.Workload {
					t.Fatalf("reviewer %d carries more than δr = %d papers", r, in.Workload)
				}
			}
		}
	})
}
