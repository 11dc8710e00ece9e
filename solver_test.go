package wgrap

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// solverEditScript applies the k-th scripted edit to a solver; replayed
// identically onto warm and cold sessions so their instances agree.
func solverEditScript(t *testing.T, s *Solver, rng *rand.Rand, k int) {
	t.Helper()
	in := s.Instance()
	P, R := in.NumPapers(), in.NumReviewers()
	switch k % 3 {
	case 0:
		if err := s.AddConflict(rng.Intn(R), rng.Intn(P)); err != nil {
			t.Fatalf("edit %d: %v", k, err)
		}
	case 1:
		if err := s.WithdrawPaper(rng.Intn(P)); err != nil {
			t.Fatalf("edit %d: %v", k, err)
		}
	case 2:
		for p := 0; p < P; p++ {
			if !s.Active(p) {
				if err := s.RestorePaper(p); err != nil {
					t.Fatalf("edit %d: %v", k, err)
				}
			}
		}
	}
}

// TestSolverResolveParity is the public-API acceptance parity test: after
// each scripted random edit, the warm Resolve score must match a cold
// NewSolver+Solve on the identically edited instance to 1e-9, for both
// session methods.
func TestSolverResolveParity(t *testing.T) {
	for _, m := range []Method{MethodSDGA, MethodSDGASRA} {
		t.Run(string(m), func(t *testing.T) {
			rng := rand.New(rand.NewSource(101))
			papers, reviewers := randomProblem(rng, 36, 28, 10)
			in := NewInstance(papers, reviewers, 3, 0)
			warm, err := NewSolver(in, WithMethod(m), WithOmega(3), WithSeed(9))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := warm.Solve(context.Background()); err != nil {
				t.Fatal(err)
			}
			editRng := rand.New(rand.NewSource(55))
			for k := 0; k < 9; k++ {
				solverEditScript(t, warm, editRng, k)
				warmRes, err := warm.Resolve(context.Background())
				if err != nil {
					t.Fatalf("edit %d: warm resolve: %v", k, err)
				}
				cold, err := NewSolver(in, WithMethod(m), WithOmega(3), WithSeed(9))
				if err != nil {
					t.Fatal(err)
				}
				coldRng := rand.New(rand.NewSource(55))
				for j := 0; j <= k; j++ {
					solverEditScript(t, cold, coldRng, j)
				}
				coldRes, err := cold.Solve(context.Background())
				if err != nil {
					t.Fatalf("edit %d: cold solve: %v", k, err)
				}
				if math.Abs(warmRes.Score-coldRes.Score) > 1e-9 {
					t.Fatalf("edit %d: warm score %v != cold score %v", k, warmRes.Score, coldRes.Score)
				}
				if warmRes.AverageCoverage <= 0 || warmRes.LowestCoverage < 0 {
					t.Fatalf("edit %d: bad metrics %+v", k, warmRes)
				}
			}
		})
	}
}

// TestSolverPaperScaleParity is the acceptance-scale spot check (P=1000,
// R=2000): one added conflict and one withdrawal, warm vs cold, scores to
// 1e-9. The ≥3x speed requirement is asserted by the resolve_after_edit
// benchmark (solver_bench_test.go) and gated in CI.
func TestSolverPaperScaleParity(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale parity skipped in -short mode")
	}
	in := benchConferenceInstance(1000, 2000, 40, 3)
	warm, err := NewSolver(in, WithMethod(MethodSDGA))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := warm.AddConflict(1234, 567); err != nil {
		t.Fatal(err)
	}
	if err := warm.WithdrawPaper(89); err != nil {
		t.Fatal(err)
	}
	warmStart := time.Now()
	warmRes, err := warm.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	warmElapsed := time.Since(warmStart)

	cold, err := NewSolver(in, WithMethod(MethodSDGA))
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.AddConflict(1234, 567); err != nil {
		t.Fatal(err)
	}
	if err := cold.WithdrawPaper(89); err != nil {
		t.Fatal(err)
	}
	coldStart := time.Now()
	coldRes, err := cold.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	coldElapsed := time.Since(coldStart)
	if math.Abs(warmRes.Score-coldRes.Score) > 1e-9 {
		t.Fatalf("paper-scale parity: warm %v != cold %v", warmRes.Score, coldRes.Score)
	}
	t.Logf("paper-scale edit-resolve: warm %s vs cold %s (%.1fx)",
		warmElapsed, coldElapsed, float64(coldElapsed)/float64(warmElapsed))
}

// TestSolverBaselineMethods: every method supports the session lifecycle
// (solve, edits, resolve); baselines run cold but must respect the edits,
// and like the SDGA methods do not re-run after an edit that changed
// nothing.
func TestSolverBaselineMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	papers, reviewers := randomProblem(rng, 12, 9, 6)
	in := NewInstance(papers, reviewers, 3, 0)
	for _, m := range Methods() {
		s, err := NewSolver(in, WithMethod(m), WithOmega(3))
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if _, err := s.Solve(context.Background()); err != nil {
			t.Fatalf("%s: solve: %v", m, err)
		}
		if err := s.AddConflict(2, 3); err != nil {
			t.Fatalf("%s: conflict: %v", m, err)
		}
		if err := s.WithdrawPaper(5); err != nil {
			t.Fatalf("%s: withdraw: %v", m, err)
		}
		res, err := s.Resolve(context.Background())
		if err != nil {
			t.Fatalf("%s: resolve: %v", m, err)
		}
		if res.Method != m {
			t.Fatalf("%s: method echo = %q", m, res.Method)
		}
		if len(res.Assignment.Groups[5]) != 0 {
			t.Fatalf("%s: withdrawn paper still has reviewers %v", m, res.Assignment.Groups[5])
		}
		for _, r := range res.Assignment.Groups[3] {
			if r == 2 {
				t.Fatalf("%s: conflicted reviewer assigned after resolve", m)
			}
		}
		for p, g := range res.Assignment.Groups {
			if p != 5 && len(g) != in.GroupSize {
				t.Fatalf("%s: paper %d has %d reviewers", m, p, len(g))
			}
		}

		// A duplicate conflict changes nothing: Resolve confirms the groups
		// without re-running the method and emits no progress snapshot.
		snapshots := 0
		s.OnImprovement(func(Snapshot) { snapshots++ })
		if err := s.AddConflict(2, 3); err != nil {
			t.Fatalf("%s: duplicate conflict: %v", m, err)
		}
		again, err := s.Resolve(context.Background())
		if err != nil {
			t.Fatalf("%s: resolve after a duplicate conflict: %v", m, err)
		}
		if !reflect.DeepEqual(again.Assignment.Groups, res.Assignment.Groups) || snapshots != 0 {
			t.Fatalf("%s: duplicate conflict: groups %v after %v, %d snapshots", m, again.Assignment.Groups, res.Assignment.Groups, snapshots)
		}
		s.OnImprovement(nil)

		// With every paper withdrawn, the assignment is empty; a restored
		// paper gets its group back.
		for p := range in.Papers {
			if err := s.WithdrawPaper(p); err != nil {
				t.Fatalf("%s: withdraw %d: %v", m, p, err)
			}
		}
		res, err = s.Resolve(context.Background())
		if err != nil {
			t.Fatalf("%s: resolve with every paper withdrawn: %v", m, err)
		}
		for p, g := range res.Assignment.Groups {
			if len(g) != 0 {
				t.Fatalf("%s: withdrawn paper %d has reviewers %v", m, p, g)
			}
		}
		if res.Score != 0 || len(res.Assignment.Groups) != len(in.Papers) {
			t.Fatalf("%s: empty assignment scores %v over %d groups", m, res.Score, len(res.Assignment.Groups))
		}
		if err := s.RestorePaper(7); err != nil {
			t.Fatalf("%s: restore: %v", m, err)
		}
		res, err = s.Resolve(context.Background())
		if err != nil {
			t.Fatalf("%s: resolve after a restore: %v", m, err)
		}
		for p, g := range res.Assignment.Groups {
			want := 0
			if p == 7 {
				want = in.GroupSize
			}
			if len(g) != want {
				t.Fatalf("%s: paper %d has %d reviewers after restoring paper 7, want %d", m, p, len(g), want)
			}
		}
		if res.Score <= 0 {
			t.Fatalf("%s: score %v after restoring paper 7", m, res.Score)
		}
	}
}

// TestSolverSentinelErrors: every failure class maps to its sentinel.
func TestSolverSentinelErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	papers, reviewers := randomProblem(rng, 6, 4, 5)
	in := NewInstance(papers, reviewers, 3, 0)

	if _, err := NewSolver(in, WithMethod("nope")); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("unknown method: err = %v", err)
	}
	if _, err := NewSolver(NewInstance(nil, nil, 3, 0)); !errors.Is(err, ErrInvalidInstance) {
		t.Fatalf("empty instance: err = %v", err)
	}
	tight := NewInstance(papers, reviewers, 3, 2) // 4·2 < 6·3
	if _, err := NewSolver(tight); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("capacity shortfall: err = %v", err)
	}

	s, err := NewSolver(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddConflict(0, 99); !errors.Is(err, ErrInvalidEdit) {
		t.Fatalf("out-of-range conflict: err = %v", err)
	}
	if err := s.WithdrawPaper(-1); !errors.Is(err, ErrInvalidEdit) {
		t.Fatalf("out-of-range withdraw: err = %v", err)
	}
	if err := s.SetWorkload(0); !errors.Is(err, ErrInvalidEdit) {
		t.Fatalf("zero workload: err = %v", err)
	}
	if err := s.SetWorkload(1); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("infeasible workload: err = %v", err)
	}
	if _, err := s.AddReviewer(Reviewer{Topics: Vector{1}}); !errors.Is(err, ErrInvalidEdit) {
		t.Fatalf("dimension-mismatched reviewer: err = %v", err)
	}
	// δp equals the pool size, so any conflict saturates.
	sat := NewInstance(papers, reviewers[:3], 3, 0)
	ss, err := NewSolver(sat)
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.AddConflict(0, 0); !errors.Is(err, ErrConflictSaturated) {
		t.Fatalf("saturating conflict: err = %v", err)
	}
	// Journal path: conflicts below δp candidates.
	jin := NewInstance(papers[:1], reviewers[:3], 3, 1)
	jin.AddConflict(0, 0)
	if _, err := AssignJournal(jin); !errors.Is(err, ErrConflictSaturated) {
		t.Fatalf("journal saturation: err = %v", err)
	}
}

// TestSolverRejectsNonFiniteWeights: NaN and ±Inf topic weights turn
// profit rows into NaN, so both ways into a session refuse them — the
// instance at NewSolver with ErrInvalidInstance, a new reviewer with
// ErrInvalidEdit — and a refused edit leaves the session untouched.
func TestSolverRejectsNonFiniteWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	papers, reviewers := randomProblem(rng, 6, 5, 4)
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := append([]Paper(nil), papers...)
		bad[2].Topics = append(Vector(nil), bad[2].Topics...)
		bad[2].Topics[1] = x
		if _, err := NewSolver(NewInstance(bad, reviewers, 2, 0)); !errors.Is(err, ErrInvalidInstance) {
			t.Fatalf("paper weight %v: NewSolver err = %v, want ErrInvalidInstance", x, err)
		}
		badR := append([]Reviewer(nil), reviewers...)
		badR[0].Topics = append(Vector(nil), badR[0].Topics...)
		badR[0].Topics[3] = x
		if _, err := NewSolver(NewInstance(papers, badR, 2, 0)); !errors.Is(err, ErrInvalidInstance) {
			t.Fatalf("reviewer weight %v: NewSolver err = %v, want ErrInvalidInstance", x, err)
		}
	}
	s, err := NewSolver(NewInstance(papers, reviewers, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		topics := make(Vector, 4)
		topics[0] = x
		if _, err := s.AddReviewer(Reviewer{Topics: topics}); !errors.Is(err, ErrInvalidEdit) {
			t.Fatalf("AddReviewer with weight %v: err = %v, want ErrInvalidEdit", x, err)
		}
	}
	after, err := s.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if after.Score != before.Score {
		t.Fatalf("score moved from %v to %v after refused edits", before.Score, after.Score)
	}
	if idx, err := s.AddReviewer(Reviewer{Topics: Vector{0.25, 0.25, 0.25, 0.25}}); err != nil || idx != len(reviewers) {
		t.Fatalf("finite reviewer after refused edits: index %d, err %v; want %d, nil", idx, err, len(reviewers))
	}
}

// TestSolverProgressStream: the construction snapshot arrives first, then
// monotonically improving refinement snapshots; the final snapshot equals
// the returned result.
func TestSolverProgressStream(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	papers, reviewers := randomProblem(rng, 20, 14, 8)
	in := NewInstance(papers, reviewers, 3, 0)
	var snaps []Snapshot
	s, err := NewSolver(in, WithOmega(8), WithSeed(3), WithProgress(func(sn Snapshot) {
		snaps = append(snaps, sn)
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots")
	}
	if snaps[0].Phase != "construct" || snaps[0].Round != 0 {
		t.Fatalf("first snapshot = %+v, want construct/round 0", snaps[0])
	}
	last := snaps[0].Score
	for i, sn := range snaps[1:] {
		if sn.Phase != "refine" {
			t.Fatalf("snapshot %d phase = %q", i+1, sn.Phase)
		}
		if sn.Score < last-1e-12 {
			t.Fatalf("snapshot %d score %v below previous %v", i+1, sn.Score, last)
		}
		if sn.Best == nil || len(sn.Best.Groups) != in.NumPapers() {
			t.Fatalf("snapshot %d has no usable assignment", i+1)
		}
		last = sn.Score
	}
	if math.Abs(last-res.Score) > 1e-9 {
		t.Fatalf("final snapshot score %v != result score %v", last, res.Score)
	}
	// A no-edit Resolve confirms the cached result without re-solving (and
	// emits no snapshots).
	before := len(snaps)
	confirm, err := s.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(confirm.Score-res.Score) > 1e-12 {
		t.Fatalf("no-edit Resolve score %v != cached %v", confirm.Score, res.Score)
	}
	if len(snaps) != before {
		t.Fatal("no-edit Resolve emitted snapshots")
	}
	// The callback can be replaced after construction and fires on the next
	// real re-solve.
	count := 0
	s.OnImprovement(func(Snapshot) { count++ })
	if err := s.AddConflict(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("replaced callback never invoked")
	}
}

// TestSolverResultScoresMatchRecount: for every method, a Solve, a no-edit
// Resolve and a Resolve after a withdrawal each return Score,
// AverageCoverage and LowestCoverage bit-identical to a recount from the
// instance's GroupScore over the returned assignment, summed in paper order;
// and for the non-refining methods, whose construction is the result, the
// construction snapshot's Score equals the Result's.
func TestSolverResultScoresMatchRecount(t *testing.T) {
	ctx := context.Background()
	methods := []Method{MethodSDGASRA, MethodSDGA, MethodGreedy, MethodBRGG, MethodStableMatching, MethodPairILP}
	for _, m := range methods {
		t.Run(string(m), func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			papers, reviewers := randomProblem(rng, 24, 30, 8)
			in := NewInstance(papers, reviewers, 3, 0)
			var constructs []float64
			s, err := NewSolver(in, WithMethod(m), WithOmega(4), WithSeed(9), WithProgress(func(sn Snapshot) {
				if sn.Phase == "construct" {
					constructs = append(constructs, sn.Score)
				}
			}))
			if err != nil {
				t.Fatal(err)
			}
			// Each resolve after an edit changes only some groups, so it reads
			// some kept scores and rescores the rest.
			var last *Result
			edited := func(edit func() error) func() (*Result, error) {
				return func() (*Result, error) {
					if err := edit(); err != nil {
						return nil, err
					}
					return s.Resolve(ctx)
				}
			}
			steps := []struct {
				name       string
				run        func() (*Result, error)
				constructs int
			}{
				{"solve", func() (*Result, error) { return s.Solve(ctx) }, 1},
				{"no-edit resolve", func() (*Result, error) { return s.Resolve(ctx) }, 0},
				{"resolve after withdrawal", edited(func() error { return s.WithdrawPaper(5) }), 1},
				{"resolve after restore", edited(func() error { return s.RestorePaper(5) }), 1},
				{"resolve after a conflict on an assigned pair", edited(func() error {
					return s.AddConflict(last.Assignment.Groups[7][0], 7)
				}), 1},
				{"resolve after withdrawal and restore", edited(func() error {
					if err := s.WithdrawPaper(11); err != nil {
						return err
					}
					return s.RestorePaper(11)
				}), 1},
				{"resolve after AddReviewer", edited(func() error {
					_, err := s.AddReviewer(Reviewer{Topics: randVec(rng, 8)})
					return err
				}), 1},
				{"resolve after withdrawal, again", edited(func() error { return s.WithdrawPaper(2) }), 1},
			}
			for _, st := range steps {
				constructs = constructs[:0]
				res, err := st.run()
				if err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				last = res
				total, lowest, active := 0.0, 0.0, 0
				for p, g := range res.Assignment.Groups {
					if !s.Active(p) {
						continue
					}
					sc := s.Instance().GroupScore(p, g)
					total += sc
					if active == 0 || sc < lowest {
						lowest = sc
					}
					active++
				}
				avg := total / float64(active)
				if math.Float64bits(res.Score) != math.Float64bits(total) ||
					math.Float64bits(res.AverageCoverage) != math.Float64bits(avg) ||
					math.Float64bits(res.LowestCoverage) != math.Float64bits(lowest) {
					t.Fatalf("%s: result (score %v, average %v, lowest %v), recount (%v, %v, %v)",
						st.name, res.Score, res.AverageCoverage, res.LowestCoverage, total, avg, lowest)
				}
				if len(constructs) != st.constructs {
					t.Fatalf("%s: %d construction snapshots, want %d", st.name, len(constructs), st.constructs)
				}
				if m != MethodSDGASRA && len(constructs) == 1 &&
					math.Float64bits(constructs[0]) != math.Float64bits(res.Score) {
					t.Fatalf("%s: construction snapshot score %v, result %v", st.name, constructs[0], res.Score)
				}
			}
		})
	}
}

// TestSolverProgressBaselineMethods: the baseline methods, which run cold
// outside the session, still emit the construction snapshot.
func TestSolverProgressBaselineMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	papers, reviewers := randomProblem(rng, 16, 12, 8)
	in := NewInstance(papers, reviewers, 3, 0)
	for _, opts := range [][]Option{
		{WithMethod(MethodGreedy)},
		{WithMethod(MethodPairILP)},
	} {
		var snaps []Snapshot
		s, err := NewSolver(in, append(opts, WithProgress(func(sn Snapshot) { snaps = append(snaps, sn) }))...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps) == 0 || snaps[0].Phase != "construct" {
			t.Fatalf("%s: no construction snapshot (got %d snaps)", s.Method(), len(snaps))
		}
		if last := snaps[len(snaps)-1]; math.Abs(last.Score-res.Score) > 1e-9 {
			t.Fatalf("%s: last snapshot score %v != result %v", s.Method(), last.Score, res.Score)
		}
		// With withdrawals, snapshots must still cover every original paper
		// index (the compacted baseline run is scattered back).
		if err := s.WithdrawPaper(3); err != nil {
			t.Fatal(err)
		}
		snaps = snaps[:0]
		if _, err := s.Resolve(context.Background()); err != nil {
			t.Fatal(err)
		}
		if len(snaps) == 0 || len(snaps[0].Best.Groups) != in.NumPapers() {
			t.Fatalf("%s: masked snapshot missing or mis-shaped", s.Method())
		}
		if len(snaps[0].Best.Groups[3]) != 0 {
			t.Fatalf("%s: withdrawn paper has reviewers in snapshot", s.Method())
		}
	}
}

// TestSolverResolveAfterCancelledResolve: a Resolve aborted mid-pipeline
// must not poison the warm state — the next Resolve rebuilds and matches a
// cold solve of the edited instance.
func TestSolverResolveAfterCancelledResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(157))
	papers, reviewers := randomProblem(rng, 30, 22, 10)
	in := NewInstance(papers, reviewers, 3, 0)
	warm, err := NewSolver(in, WithMethod(MethodSDGA))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := warm.AddConflict(5, 11); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := warm.Resolve(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled resolve: err = %v", err)
	}
	warmRes, err := warm.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewSolver(warm.Instance(), WithMethod(MethodSDGA))
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := cold.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warmRes.Score-coldRes.Score) > 1e-9 {
		t.Fatalf("post-cancel parity: warm %v != cold %v", warmRes.Score, coldRes.Score)
	}
}

// TestSolverConcurrentSessions: independent sessions (each with its own
// private instance copy) solve and edit concurrently; run under -race in CI.
func TestSolverConcurrentSessions(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	papers, reviewers := randomProblem(rng, 18, 12, 8)
	in := NewInstance(papers, reviewers, 3, 0)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, err := NewSolver(in, WithMethod(MethodSDGA), WithSeed(int64(g+1)))
			if err != nil {
				errs <- err
				return
			}
			if _, err := s.Solve(context.Background()); err != nil {
				errs <- err
				return
			}
			if err := s.AddConflict(g%len(reviewers), g%len(papers)); err != nil {
				errs <- err
				return
			}
			if _, err := s.Resolve(context.Background()); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSolverSingleSessionMutualExclusion: one session hammered from many
// goroutines stays consistent — the mutex serialises Solve/Resolve/mutators
// (the documented single-flight behavior). Run under -race in CI.
func TestSolverSingleSessionMutualExclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	papers, reviewers := randomProblem(rng, 16, 12, 8)
	in := NewInstance(papers, reviewers, 3, 0)
	s, err := NewSolver(in, WithMethod(MethodSDGA))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0:
				_, _ = s.Solve(context.Background())
			case 1:
				_ = s.AddConflict(g%len(reviewers), g%len(papers))
				_, _ = s.Resolve(context.Background())
			default:
				_, _ = s.Resolve(context.Background())
			}
		}(g)
	}
	wg.Wait()
	// After the dust settles the session still produces a valid assignment.
	res, err := s.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := in.ValidateAssignment(res.Assignment); err != nil {
		t.Fatal(err)
	}
}

// TestOptionDefaultsUnified: the resolved options carry the documented
// defaults (method sdga-sra, ω=10, seed 1, no refinement budget), invalid
// explicit values fall back to them, and a Solver built with no options
// solves exactly like one given the defaults spelled out.
func TestOptionDefaultsUnified(t *testing.T) {
	def := resolveOptions(nil)
	if def.method != MethodSDGASRA || def.omega != 10 || def.seed != 1 || def.refinementBudget != 0 {
		t.Fatalf("resolved defaults = %+v", def)
	}
	sra := def.sra()
	if sra.Omega != 10 || sra.Seed != 1 || sra.TimeBudget != 0 {
		t.Fatalf("default SRA = %+v", sra)
	}
	// Invalid explicit values fall back to the defaults instead of
	// diverging (the historical Refine bug class this test pins down).
	clamped := resolveOptions([]Option{WithOmega(0), WithSeed(0)})
	if clamped.omega != 10 || clamped.seed != 1 {
		t.Fatalf("clamped options = %+v", clamped)
	}

	rng := rand.New(rand.NewSource(131))
	papers, reviewers := randomProblem(rng, 12, 8, 6)
	in := NewInstance(papers, reviewers, 2, 0)
	r1, err := solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := solve(context.Background(), in, WithMethod(MethodSDGASRA), WithOmega(10), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Assignment.Sorted(), r2.Assignment.Sorted()) {
		t.Fatal("zero-option Solver diverges from the documented defaults")
	}
}

// TestSolverWorkloadEdit: growing δr mid-session re-solves warm and matches
// the cold solve of the re-parameterised instance.
func TestSolverWorkloadEdit(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	papers, reviewers := randomProblem(rng, 20, 15, 8)
	in := NewInstance(papers, reviewers, 3, 0)
	warm, err := NewSolver(in, WithMethod(MethodSDGA))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := warm.SetWorkload(in.Workload + 2); err != nil {
		t.Fatal(err)
	}
	warmRes, err := warm.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	coldIn := NewInstance(papers, reviewers, 3, in.Workload+2)
	cold, err := NewSolver(coldIn, WithMethod(MethodSDGA))
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := cold.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warmRes.Score-coldRes.Score) > 1e-9 {
		t.Fatalf("workload edit parity: warm %v != cold %v", warmRes.Score, coldRes.Score)
	}
}

// TestSolverAddReviewerEdit: a structural edit still resolves correctly and
// the new reviewer is usable.
func TestSolverAddReviewerEdit(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	papers, reviewers := randomProblem(rng, 14, 10, 6)
	in := NewInstance(papers, reviewers, 3, 0)
	s, err := NewSolver(in, WithMethod(MethodSDGA))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	idx, err := s.AddReviewer(Reviewer{ID: "late", Topics: randVec(rng, 6)})
	if err != nil {
		t.Fatal(err)
	}
	if idx != 10 {
		t.Fatalf("AddReviewer index = %d, want 10", idx)
	}
	res, err := s.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewSolver(s.Instance(), WithMethod(MethodSDGA))
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := cold.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Score-coldRes.Score) > 1e-9 {
		t.Fatalf("reviewer-add parity: warm %v != cold %v", res.Score, coldRes.Score)
	}
}

// TestSolverBatchedEditParity: several edits before a single warm Resolve
// must match a cold solve of the identically edited instance to 1e-9, with
// the sharded stage solve forced on (GOMAXPROCS is pinned above one so the
// parallel load paths run even on single-CPU machines).
func TestSolverBatchedEditParity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, m := range []Method{MethodSDGA, MethodSDGASRA} {
		t.Run(string(m), func(t *testing.T) {
			rng := rand.New(rand.NewSource(131))
			papers, reviewers := randomProblem(rng, 34, 26, 10)
			in := NewInstance(papers, reviewers, 3, 0)
			opts := []Option{WithMethod(m), WithOmega(3), WithSeed(11)}
			warm, err := NewSolver(in, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := warm.Solve(context.Background()); err != nil {
				t.Fatal(err)
			}
			editRng := rand.New(rand.NewSource(77))
			edits := 0
			for batch := 0; batch < 3; batch++ {
				for k := 0; k < 3; k++ {
					solverEditScript(t, warm, editRng, edits)
					edits++
				}
				warmRes, err := warm.Resolve(context.Background())
				if err != nil {
					t.Fatalf("batch %d: warm resolve: %v", batch, err)
				}
				cold, err := NewSolver(in, opts...)
				if err != nil {
					t.Fatal(err)
				}
				coldRng := rand.New(rand.NewSource(77))
				for j := 0; j < edits; j++ {
					solverEditScript(t, cold, coldRng, j)
				}
				coldRes, err := cold.Solve(context.Background())
				if err != nil {
					t.Fatalf("batch %d: cold solve: %v", batch, err)
				}
				if math.Abs(warmRes.Score-coldRes.Score) > 1e-9 {
					t.Fatalf("batch %d (%d edits): warm score %v != cold score %v", batch, edits, warmRes.Score, coldRes.Score)
				}
			}
		})
	}
}

// TestSolverHugeWorkload: a workload δr near the int range is a legal,
// feasible setting. With R=12, P=16 and δp=3, δr=2⁶² once wrapped R·δr
// around to 0, so NewSolver reported ErrInfeasible and SetWorkload refused
// the edit, while δr=2⁶²+4 wrapped to 48 and slipped through.
func TestSolverHugeWorkload(t *testing.T) {
	const huge = 1 << 62
	rng := rand.New(rand.NewSource(61))
	papers, reviewers := randomProblem(rng, 16, 12, 6)
	for _, m := range []Method{MethodSDGA, MethodSDGASRA} {
		t.Run(string(m), func(t *testing.T) {
			s, err := NewSolver(NewInstance(papers, reviewers, 3, huge), WithMethod(m), WithOmega(3))
			if err != nil {
				t.Fatalf("NewSolver at δr=2^62: %v", err)
			}
			res, err := s.Solve(context.Background())
			if err != nil {
				t.Fatalf("solve at δr=2^62: %v", err)
			}
			if err := s.Instance().ValidateAssignment(res.Assignment); err != nil {
				t.Fatal(err)
			}

			s, err = NewSolver(NewInstance(papers, reviewers, 3, 0), WithMethod(m), WithOmega(3))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Solve(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := s.SetWorkload(huge); err != nil {
				t.Fatalf("SetWorkload(2^62): %v", err)
			}
			res, err = s.Resolve(context.Background())
			if err != nil {
				t.Fatalf("resolve at δr=2^62: %v", err)
			}
			if got := s.Instance().Workload; got != huge {
				t.Fatalf("workload = %d, want 2^62", got)
			}
			if err := s.Instance().ValidateAssignment(res.Assignment); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSolverOutOfBandSaturation: conflicts injected directly into the view
// returned by Instance() — bypassing the Solver's guarded mutators — that
// saturate an active paper must surface ErrConflictSaturated from the next
// Resolve; the Solver must neither panic nor silently confirm the stale
// assignment, and must keep erroring until the situation is resolved.
func TestSolverOutOfBandSaturation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	papers, reviewers := randomProblem(rng, 8, 6, 8)
	in := NewInstance(papers, reviewers, 3, 0)
	s, err := NewSolver(in, WithMethod(MethodSDGA))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	inner := s.Instance()
	for r := 0; r < inner.NumReviewers()-inner.GroupSize+1; r++ {
		inner.AddConflict(r, 3)
	}
	for attempt := 0; attempt < 2; attempt++ {
		res, err := s.Resolve(context.Background())
		if !errors.Is(err, ErrConflictSaturated) {
			t.Fatalf("attempt %d: err = %v, want ErrConflictSaturated", attempt, err)
		}
		if res != nil {
			t.Fatalf("attempt %d: Resolve returned a result alongside the error", attempt)
		}
	}
	if err := s.WithdrawPaper(3); err != nil {
		t.Fatal(err)
	}
	res, err := s.Resolve(context.Background())
	if err != nil {
		t.Fatalf("resolve after withdrawing the saturated paper: %v", err)
	}
	if len(res.Assignment.Groups[3]) != 0 {
		t.Fatalf("withdrawn saturated paper still has reviewers %v", res.Assignment.Groups[3])
	}
}

// TestSolverSnapshotsSurviveResolve: Snapshot.Best values delivered through
// the progress stream (and Result assignments) must be private copies — a
// caller may hold them across later edits and warm Resolves without
// observing mutation. A reader goroutine continuously walks the held
// snapshots while the solver re-solves, so the race detector also proves
// the absence of aliasing with solver-owned state.
func TestSolverSnapshotsSurviveResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	papers, reviewers := randomProblem(rng, 24, 18, 8)
	in := NewInstance(papers, reviewers, 3, 0)
	s, err := NewSolver(in, WithMethod(MethodSDGASRA), WithOmega(3), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	var held []Snapshot
	var frozen [][][]int // deep copies taken at capture time
	s.OnImprovement(func(sn Snapshot) {
		held = append(held, sn)
		groups := make([][]int, len(sn.Best.Groups))
		for p, g := range sn.Best.Groups {
			groups[p] = append([]int(nil), g...)
		}
		frozen = append(frozen, groups)
	})
	if _, err := s.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(held) == 0 {
		t.Fatal("no snapshots emitted")
	}
	// The reader holds its own slice of the first batch (the callback keeps
	// appending to held during later resolves); the Best pointers inside are
	// the shared values under test.
	firstBatch := append([]Snapshot(nil), held...)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sink := 0
		for {
			select {
			case <-stop:
				_ = sink
				return
			default:
			}
			for i := range firstBatch {
				for _, g := range firstBatch[i].Best.Groups {
					for _, r := range g {
						sink += r
					}
				}
			}
		}
	}()
	// Edits + warm resolves while the reader walks the held snapshots: any
	// aliasing of solver-owned slices shows up as a data race.
	editRng := rand.New(rand.NewSource(3))
	for k := 0; k < 4; k++ {
		solverEditScript(t, s, editRng, k)
		if _, err := s.Resolve(context.Background()); err != nil {
			t.Fatalf("edit %d: %v", k, err)
		}
	}
	close(stop)
	wg.Wait()

	for i := range held {
		for p, g := range held[i].Best.Groups {
			want := frozen[i][p]
			if len(g) != len(want) {
				t.Fatalf("snapshot %d paper %d mutated: %v != %v", i, p, g, want)
			}
			for j := range g {
				if g[j] != want[j] {
					t.Fatalf("snapshot %d paper %d mutated: %v != %v", i, p, g, want)
				}
			}
		}
	}
}
