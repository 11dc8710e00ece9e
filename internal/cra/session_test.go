package cra

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
)

func sessionInstance(rng *rand.Rand, p, r, t, delta int) *core.Instance {
	papers := make([]core.Paper, p)
	for i := range papers {
		papers[i] = core.Paper{Topics: randomVector(rng, t)}
	}
	reviewers := make([]core.Reviewer, r)
	for i := range reviewers {
		reviewers[i] = core.Reviewer{Topics: randomVector(rng, t)}
	}
	in := core.NewInstance(papers, reviewers, delta, 0)
	in.Workload = in.MinWorkload()
	return in
}

func randomVector(rng *rand.Rand, t int) core.Vector {
	v := make(core.Vector, t)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v.Normalized()
}

// scoreActive sums the group scores of the non-withdrawn papers.
func scoreActive(s *Session, a *core.Assignment) float64 {
	total := 0.0
	for p := range a.Groups {
		if s.Active(p) {
			total += s.Instance().GroupScore(p, a.Groups[p])
		}
	}
	return total
}

// applyEdit applies the k-th scripted edit to a session; the same script is
// replayed onto the warm session and onto fresh cold sessions so their
// instances stay identical.
func applyEdit(t *testing.T, s *Session, rng *rand.Rand, k int) {
	t.Helper()
	in := s.Instance()
	P, R := in.NumPapers(), in.NumReviewers()
	switch k % 4 {
	case 0: // late conflict of interest
		if err := s.AddConflict(rng.Intn(R), rng.Intn(P)); err != nil {
			t.Fatalf("edit %d (conflict): %v", k, err)
		}
	case 1: // withdrawal
		p := rng.Intn(P)
		if err := s.WithdrawPaper(p); err != nil {
			t.Fatalf("edit %d (withdraw): %v", k, err)
		}
	case 2: // workload change (grow, so capacity always stays sufficient)
		if err := s.SetWorkload(in.Workload + 1); err != nil {
			t.Fatalf("edit %d (workload): %v", k, err)
		}
	case 3: // restore whatever is withdrawn
		for p := 0; p < P; p++ {
			if !s.Active(p) {
				if err := s.RestorePaper(p); err != nil {
					t.Fatalf("edit %d (restore): %v", k, err)
				}
			}
		}
	}
}

// replayEdits drives a fresh session through the same edit script (without
// solving) so a cold Solve sees the identical edited instance.
func replayEdits(t *testing.T, base *core.Instance, cfg SessionConfig, edits int, seed int64) *Session {
	t.Helper()
	s, err := NewSession(base.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < edits; k++ {
		applyEdit(t, s, rng, k)
	}
	return s
}

// TestSessionResolveParitySDGA is the warm-path correctness requirement:
// after every scripted edit, the warm Resolve assignment score must match a
// cold Solve on the identically edited instance to 1e-9.
func TestSessionResolveParitySDGA(t *testing.T) {
	for _, cfg := range []struct {
		name string
		c    SessionConfig
	}{
		{"sdga", SessionConfig{}},
		{"sdga-sra", SessionConfig{Refine: true, SRA: SRA{Omega: 3, MaxRounds: 25, Seed: 5}}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			base := sessionInstance(rng, 40, 30, 12, 3)
			warm, err := NewSession(base.Clone(), cfg.c)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := warm.Solve(context.Background()); err != nil {
				t.Fatal(err)
			}
			editRng := rand.New(rand.NewSource(77))
			for k := 0; k < 8; k++ {
				applyEdit(t, warm, editRng, k)
				warmA, err := warm.Resolve(context.Background())
				if err != nil {
					t.Fatalf("edit %d: warm resolve: %v", k, err)
				}
				cold := replayEdits(t, base, cfg.c, k+1, 77)
				coldA, err := cold.Solve(context.Background())
				if err != nil {
					t.Fatalf("edit %d: cold solve: %v", k, err)
				}
				ws, cs := scoreActive(warm, warmA), scoreActive(cold, coldA)
				if math.Abs(ws-cs) > 1e-9 {
					t.Fatalf("edit %d: warm score %v != cold score %v", k, ws, cs)
				}
				// The warm assignment must satisfy the constraints on the
				// active papers.
				validateSessionAssignment(t, warm, warmA)
			}
		})
	}
}

// validateSessionAssignment checks the WGRAP constraints with the session's
// withdrawal mask applied: active papers have exactly δp distinct eligible
// reviewers, withdrawn ones none, and loads respect δr.
func validateSessionAssignment(t *testing.T, s *Session, a *core.Assignment) {
	t.Helper()
	in := s.Instance()
	loads := make([]int, in.NumReviewers())
	for p, g := range a.Groups {
		if !s.Active(p) {
			if len(g) != 0 {
				t.Fatalf("withdrawn paper %d has reviewers %v", p, g)
			}
			continue
		}
		if len(g) != in.GroupSize {
			t.Fatalf("paper %d has %d reviewers, want %d", p, len(g), in.GroupSize)
		}
		seen := map[int]bool{}
		for _, r := range g {
			if seen[r] {
				t.Fatalf("paper %d has duplicate reviewer %d", p, r)
			}
			seen[r] = true
			if in.IsConflict(r, p) {
				t.Fatalf("conflicting pair (%d,%d) assigned", r, p)
			}
			loads[r]++
		}
	}
	for r, l := range loads {
		if l > in.Workload {
			t.Fatalf("reviewer %d load %d exceeds δr=%d", r, l, in.Workload)
		}
	}
}

// TestSessionAddReviewer: a structural edit (new reviewer) invalidates the
// warm state; the next Resolve must still match a cold solve.
func TestSessionAddReviewer(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	base := sessionInstance(rng, 30, 20, 10, 3)
	warm, err := NewSession(base.Clone(), SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	newRev := core.Reviewer{Topics: randomVector(rng, 10)}
	idx, err := warm.AddReviewer(newRev)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 20 {
		t.Fatalf("AddReviewer index = %d, want 20", idx)
	}
	warmA, err := warm.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	coldIn := base.Clone()
	coldIn.AddReviewer(newRev)
	cold, err := NewSession(coldIn, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	coldA, err := cold.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ws, cs := scoreActive(warm, warmA), scoreActive(cold, coldA)
	if math.Abs(ws-cs) > 1e-9 {
		t.Fatalf("warm %v != cold %v after reviewer addition", ws, cs)
	}
}

// TestSessionAddReviewerNonFinite: a reviewer with a NaN or ±Inf weight is
// refused and the pool does not grow.
func TestSessionAddReviewerNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s, err := NewSession(sessionInstance(rng, 8, 6, 5, 2), SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		topics := randomVector(rng, 5)
		topics[4] = x
		if _, err := s.AddReviewer(core.Reviewer{Topics: topics}); err == nil {
			t.Fatalf("reviewer with weight %v accepted", x)
		}
	}
	if R := s.Instance().NumReviewers(); R != 6 {
		t.Fatalf("pool grew to %d reviewers on refused edits", R)
	}
}

// TestSessionConflictSaturation: edits that would leave a paper without δp
// eligible reviewers are rejected with ErrConflictSaturated; building a
// session on an already-saturated instance fails the same way.
func TestSessionConflictSaturation(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	in := sessionInstance(rng, 4, 3, 6, 3) // δp = R: no conflict is affordable
	s, err := NewSession(in.Clone(), SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddConflict(0, 1); !errors.Is(err, ErrConflictSaturated) {
		t.Fatalf("saturating conflict: err = %v, want ErrConflictSaturated", err)
	}
	// A withdrawn paper tolerates the conflict, but cannot be restored while
	// saturated.
	if err := s.WithdrawPaper(1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddConflict(0, 1); err != nil {
		t.Fatalf("conflict on withdrawn paper: %v", err)
	}
	if err := s.RestorePaper(1); !errors.Is(err, ErrConflictSaturated) {
		t.Fatalf("restore of saturated paper: err = %v, want ErrConflictSaturated", err)
	}
	saturated := in.Clone()
	saturated.AddConflict(2, 0)
	if _, err := NewSession(saturated, SessionConfig{}); !errors.Is(err, ErrConflictSaturated) {
		t.Fatalf("NewSession on saturated instance: err = %v, want ErrConflictSaturated", err)
	}
}

// TestSessionWorkloadGuard: shrinking δr below the feasible floor is
// rejected before it can corrupt the session.
func TestSessionWorkloadGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	in := sessionInstance(rng, 20, 10, 8, 2) // min workload = 4
	s, err := NewSession(in.Clone(), SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetWorkload(3); !errors.Is(err, ErrInsufficientCapacity) {
		t.Fatalf("infeasible workload: err = %v, want ErrInsufficientCapacity", err)
	}
	if err := s.SetWorkload(0); err == nil {
		t.Fatal("non-positive workload accepted")
	}
	// Withdrawing papers lowers the demand enough for the smaller workload.
	for p := 0; p < 5; p++ {
		if err := s.WithdrawPaper(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetWorkload(3); err != nil {
		t.Fatalf("feasible workload after withdrawals rejected: %v", err)
	}
	if _, err := s.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSessionStageFallbackWarm: sessions on instances tight enough to need
// the stage-capacity fallback must still resolve warm with cold parity. The
// seed loop mirrors TestSDGAFallbackResolve: dense conflicts on indivisible
// workloads push tail stages into the fallback on a fraction of the seeds.
func TestSessionStageFallbackWarm(t *testing.T) {
	fallbacks := 0
	stageFallbackHook = func() { fallbacks++ }
	defer func() { stageFallbackHook = nil }()
	exercised := 0
	for seed := int64(0); seed < 300 && exercised < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := sessionInstance(rng, 6+rng.Intn(6), 3+rng.Intn(3), 4, 2)
		in.Workload = in.MinWorkload() + 1
		for p := 0; p < in.NumPapers(); p++ {
			if rng.Float64() < 0.5 {
				in.AddConflict(rng.Intn(in.NumReviewers()), p)
			}
		}
		warm, err := NewSession(in.Clone(), SessionConfig{})
		if err != nil {
			continue // saturated by the random conflicts: not this test's target
		}
		before := fallbacks
		if _, err := warm.Solve(context.Background()); err != nil {
			continue // stage-wise infeasible even with the fallback
		}
		// A benign edit that keeps the instance feasible: withdraw one paper.
		if err := warm.WithdrawPaper(rng.Intn(in.NumPapers())); err != nil {
			t.Fatalf("seed %d: withdraw: %v", seed, err)
		}
		warmA, err := warm.Resolve(context.Background())
		if err != nil {
			continue
		}
		if fallbacks > before {
			exercised++
		}
		validateSessionAssignment(t, warm, warmA)
		cold, err := NewSession(warm.Instance().Clone(), SessionConfig{})
		if err != nil {
			t.Fatalf("seed %d: cold session: %v", seed, err)
		}
		if err := cold.WithdrawPaper(firstWithdrawn(warm)); err != nil {
			t.Fatalf("seed %d: cold withdraw: %v", seed, err)
		}
		coldA, err := cold.Solve(context.Background())
		if err != nil {
			t.Fatalf("seed %d: cold solve failed where warm succeeded: %v", seed, err)
		}
		if ws, cs := scoreActive(warm, warmA), scoreActive(cold, coldA); math.Abs(ws-cs) > 1e-9 {
			t.Fatalf("seed %d: fallback parity: warm %v != cold %v", seed, ws, cs)
		}
	}
	if exercised == 0 {
		t.Fatal("no seed exercised the stage fallback; tighten the instances")
	}
}

// TestSessionStageBackOff: on the conference of backOffSeed, stage 3 has no
// plan even at the full remaining workload. The session must complete the
// instance through the stage back-off, treat its next Resolve as
// structural, and keep warm == cold parity across a later edit.
func TestSessionStageBackOff(t *testing.T) {
	in := stageSolverConference(backOffSeed)
	s, err := NewSession(in.Clone(), SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Solve(context.Background())
	if err != nil {
		t.Fatalf("feasible instance reported as %v", err)
	}
	validateSessionAssignment(t, s, a)
	if !s.structural {
		t.Fatal("a backed-off solve left warm state for the next Resolve")
	}
	again, err := s.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for p := range a.Groups {
		if !slices.Equal(a.Groups[p], again.Groups[p]) {
			t.Fatalf("paper %d: Resolve gave %v after Solve gave %v", p, again.Groups[p], a.Groups[p])
		}
	}
	if err := s.WithdrawPaper(0); err != nil {
		t.Fatal(err)
	}
	warmA, err := s.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	validateSessionAssignment(t, s, warmA)
	cold, err := NewSession(in.Clone(), SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.WithdrawPaper(0); err != nil {
		t.Fatal(err)
	}
	coldA, err := cold.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ws, cs := scoreActive(s, warmA), scoreActive(cold, coldA); math.Abs(ws-cs) > 1e-9 {
		t.Fatalf("warm %v != cold %v after the back-off", ws, cs)
	}
}

// firstWithdrawn returns the index of the session's first withdrawn paper.
func firstWithdrawn(s *Session) int {
	for p := 0; p < s.Instance().NumPapers(); p++ {
		if !s.Active(p) {
			return p
		}
	}
	return -1
}

// TestSessionBatchedEditParity is the batched-edit correctness requirement:
// several edits (conflicts, withdrawals, workload changes, restores) are
// applied before a single warm Resolve, which must match a cold Solve of the
// identically edited instance to 1e-9. The sharded cases pin GOMAXPROCS
// above 1 so the sharded stage solve is exercised even on single-CPU
// runners.
func TestSessionBatchedEditParity(t *testing.T) {
	for _, cfg := range []struct {
		name  string
		procs int
		c     SessionConfig
	}{
		{"sdga-sharded", 4, SessionConfig{}},
		{"sdga-sra-sharded", 4, SessionConfig{Refine: true, SRA: SRA{Omega: 3, MaxRounds: 20, Seed: 9}}},
		{"sdga-serial", 1, SessionConfig{}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cfg.procs))
			rng := rand.New(rand.NewSource(53))
			base := sessionInstance(rng, 36, 28, 10, 3)
			warm, err := NewSession(base.Clone(), cfg.c)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := warm.Solve(context.Background()); err != nil {
				t.Fatal(err)
			}
			editRng := rand.New(rand.NewSource(101))
			// Batch sizes come from a separate stream: replayEdits regenerates
			// the edit script from the edit seed alone, so batch-size draws
			// must not skew it.
			batchRng := rand.New(rand.NewSource(7))
			edits := 0
			for batch := 0; batch < 4; batch++ {
				// A batch of 2–5 edits before one warm resolve.
				n := 2 + batchRng.Intn(4)
				for k := 0; k < n; k++ {
					applyEdit(t, warm, editRng, edits)
					edits++
				}
				warmA, err := warm.Resolve(context.Background())
				if err != nil {
					t.Fatalf("batch %d: warm resolve: %v", batch, err)
				}
				cold := replayEdits(t, base, cfg.c, edits, 101)
				coldA, err := cold.Solve(context.Background())
				if err != nil {
					t.Fatalf("batch %d: cold solve: %v", batch, err)
				}
				ws, cs := scoreActive(warm, warmA), scoreActive(cold, coldA)
				if math.Abs(ws-cs) > 1e-9 {
					t.Fatalf("batch %d (%d edits): warm score %v != cold score %v", batch, edits, ws, cs)
				}
				validateSessionAssignment(t, warm, warmA)
			}
		})
	}
}

// TestSessionDriftSaturationSurfaces: conflicts added behind the session's
// back (out-of-band instance mutation) that saturate an active paper must
// surface ErrConflictSaturated from the next Resolve — never a panic, a
// late-stage transport error, or a silently confirmed stale assignment.
func TestSessionDriftSaturationSurfaces(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	base := sessionInstance(rng, 8, 6, 8, 3)
	s, err := NewSession(base.Clone(), SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Out-of-band: saturate paper 3 directly on the owned instance, leaving
	// only δp−1 eligible reviewers.
	inner := s.Instance()
	for r := 0; r < inner.NumReviewers()-inner.GroupSize+1; r++ {
		inner.AddConflict(r, 3)
	}
	for attempt := 0; attempt < 2; attempt++ {
		a, err := s.Resolve(context.Background())
		if !errors.Is(err, ErrConflictSaturated) {
			t.Fatalf("attempt %d: err = %v, want ErrConflictSaturated", attempt, err)
		}
		if a != nil {
			t.Fatalf("attempt %d: Resolve returned an assignment alongside the error", attempt)
		}
	}
	// A withdrawn saturated paper no longer blocks the session.
	if err := s.WithdrawPaper(3); err != nil {
		t.Fatal(err)
	}
	a, err := s.Resolve(context.Background())
	if err != nil {
		t.Fatalf("resolve after withdrawing the saturated paper: %v", err)
	}
	validateSessionAssignment(t, s, a)
}

// TestSessionBatchedEditParityRandomized sweeps random instances, SRA seeds
// and edit scripts: each batch applies four edits before a single warm
// Resolve, which must match a cold Solve of the identically edited instance
// to 1e-9 — with refinement enabled and the sharded stage solve forced on
// by pinning GOMAXPROCS above 1.
func TestSessionBatchedEditParityRandomized(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	fail := 0
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		base := sessionInstance(rng, 30+rng.Intn(20), 22+rng.Intn(14), 8+rng.Intn(6), 3)
		cfg := SessionConfig{Refine: true, SRA: SRA{Omega: 3, MaxRounds: 15, Seed: seed + 1}}
		warm, err := NewSession(base.Clone(), cfg)
		if err != nil {
			continue
		}
		if _, err := warm.Solve(context.Background()); err != nil {
			continue
		}
		editRng := rand.New(rand.NewSource(1000 + seed))
		edits := 0
		for batch := 0; batch < 3; batch++ {
			for k := 0; k < 4; k++ {
				applyEdit(t, warm, editRng, edits)
				edits++
			}
			warmA, err := warm.Resolve(context.Background())
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			cold := replayEdits(t, base, cfg, edits, 1000+seed)
			coldA, err := cold.Solve(context.Background())
			if err != nil {
				t.Fatalf("seed %d cold: %v", seed, err)
			}
			if ws, cs := scoreActive(warm, warmA), scoreActive(cold, coldA); math.Abs(ws-cs) > 1e-9 {
				t.Errorf("seed %d batch %d: warm %v != cold %v", seed, batch, ws, cs)
				fail++
			}
		}
	}
	t.Logf("failures: %d", fail)
}
