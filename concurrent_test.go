package wgrap

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSolverViewVersioning pins the publication contract: version 0 before
// the first solve (nil Result), one monotone version per successful
// Solve/Resolve with warm/cold and coalesced-edit provenance, and published
// views immutable after later solves.
func TestSolverViewVersioning(t *testing.T) {
	in := benchConferenceInstance(20, 40, 8, 3)
	s, err := NewSolver(in, WithMethod(MethodSDGA), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	v0 := s.View()
	if v0 == nil || v0.Version != 0 || v0.Result != nil {
		t.Fatalf("pre-solve view = %+v, want version 0 with nil Result", v0)
	}
	if s.Result() != nil {
		t.Fatal("Result() non-nil before the first solve")
	}
	res1, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	v1 := s.View()
	if v1.Version != 1 || v1.Warm || v1.Result == nil {
		t.Fatalf("post-solve view = %+v, want version 1, cold, non-nil Result", v1)
	}
	if v1.Result.Score != res1.Score {
		t.Fatalf("view score %v != solve score %v", v1.Result.Score, res1.Score)
	}
	if s.Result() != v1.Result {
		t.Fatal("Result() does not return the latest view's Result")
	}
	score1 := v1.Result.Score
	if err := s.WithdrawPaper(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	v2 := s.View()
	if v2.Version != 2 || !v2.Warm || v2.Edits != 1 {
		t.Fatalf("post-edit view = %+v, want version 2, warm, 1 edit", v2)
	}
	// A no-edit Resolve confirms and still publishes (0 coalesced edits).
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if v3 := s.View(); v3.Version != 3 || v3.Edits != 0 {
		t.Fatalf("confirmation view = %+v, want version 3 with 0 edits", v3)
	}
	// The old view must be untouched by the later solves.
	if v1.Result.Score != score1 {
		t.Fatalf("published view mutated: score %v, was %v", v1.Result.Score, score1)
	}
}

// TestSolverResolveAsyncCoalesce: a burst of edits plus several ResolveAsync
// tickets must coalesce — every ticket completes, each with a published
// version, and the final assignment matches a cold solve of the identically
// edited instance to 1e-9 (the batched-edit warm/cold parity guarantee,
// through the async path).
func TestSolverResolveAsyncCoalesce(t *testing.T) {
	in := benchConferenceInstance(30, 60, 8, 3)
	s, err := NewSolver(in, WithMethod(MethodSDGA), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	base := s.View().Version
	for p := 0; p < 3; p++ {
		if err := s.WithdrawPaper(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddConflict(5, 7); err != nil {
		t.Fatal(err)
	}
	tickets := []*Ticket{s.ResolveAsync(), s.ResolveAsync(), s.ResolveAsync()}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i, tk := range tickets {
		res, err := tk.Wait(ctx)
		if err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
		if res == nil || tk.Version() <= base {
			t.Fatalf("ticket %d: res=%v version=%d (base %d)", i, res, tk.Version(), base)
		}
		select {
		case <-tk.Done():
		default:
			t.Fatalf("ticket %d: Done not closed after Wait", i)
		}
		if v := s.View(); v.Version < tk.Version() {
			t.Fatalf("ticket %d version %d not yet published (view at %d)", i, tk.Version(), v.Version)
		}
	}
	// Warm/cold parity on the async-drained batch.
	warmRes, err := s.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewSolver(s.Instance(), WithMethod(MethodSDGA), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		if err := cold.WithdrawPaper(p); err != nil {
			t.Fatal(err)
		}
	}
	coldRes, err := cold.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warmRes.Score-coldRes.Score) > 1e-9 {
		t.Fatalf("async-coalesced warm score %v != cold %v", warmRes.Score, coldRes.Score)
	}
}

// Pinned goroutine counts of the reader/writer stress test, deliberately
// constants (not NumCPU-derived) so the CI race runs are reproducible within
// their time budget.
const (
	stressReaders        = 4
	stressWriters        = 2
	stressEditsPerWriter = 24
)

// TestSolverConcurrentStress is the -race stress test of the concurrent
// session engine: stressReaders goroutines spin on View/Progress/ActivePapers
// while stressWriters goroutines issue edits and ResolveAsync tickets.
// Readers assert monotonically increasing versions and structurally
// consistent (never torn) snapshots; a view captured early must be
// bit-identical at the end (published results never alias solver-owned
// state); and the final coalesced state must match a cold solve to 1e-9.
func TestSolverConcurrentStress(t *testing.T) {
	in := benchConferenceInstance(24, 48, 8, 3)
	P, R, delta := in.NumPapers(), in.NumReviewers(), in.GroupSize
	s, err := NewSolver(in, WithMethod(MethodSDGA), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	held := s.View()
	heldScore := held.Result.Score
	heldGroups := held.Result.Assignment.Clone()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < stressReaders; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := s.View()
				if v == nil {
					t.Error("View() returned nil")
					return
				}
				if v.Version < last {
					t.Errorf("version went backwards: %d after %d", v.Version, last)
					return
				}
				last = v.Version
				if res := v.Result; res != nil {
					if len(res.Assignment.Groups) != P || math.IsNaN(res.Score) {
						t.Errorf("torn view at version %d: %+v", v.Version, res)
						return
					}
					for p, g := range res.Assignment.Groups {
						if len(g) != 0 && len(g) != delta {
							t.Errorf("torn group: paper %d has %d reviewers", p, len(g))
							return
						}
					}
				}
				if sn := s.Progress(); sn != nil && len(sn.Best.Groups) != P {
					t.Errorf("torn progress snapshot: %d groups", len(sn.Best.Groups))
					return
				}
				if n := s.ActivePapers(); n < 0 || n > P {
					t.Errorf("ActivePapers() = %d", n)
					return
				}
				runtime.Gosched()
			}
		}()
	}

	tickets := make(chan *Ticket, stressWriters*(stressEditsPerWriter+1))
	var writers sync.WaitGroup
	for w := 0; w < stressWriters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < stressEditsPerWriter; i++ {
				var err error
				switch i % 3 {
				case 0:
					err = s.WithdrawPaper(rng.Intn(P))
				case 1:
					err = s.RestorePaper(rng.Intn(P))
				case 2:
					err = s.AddConflict(rng.Intn(R), rng.Intn(P))
				}
				// Saturation/capacity rejections are legitimate outcomes of
				// racing edits; anything else is a bug.
				if err != nil && !errors.Is(err, ErrConflictSaturated) && !errors.Is(err, ErrInfeasible) {
					t.Errorf("writer %d edit %d: %v", w, i, err)
					return
				}
				if i%6 == 5 {
					tickets <- s.ResolveAsync()
				}
			}
			tickets <- s.ResolveAsync()
		}(w)
	}
	writers.Wait()
	close(tickets)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for tk := range tickets {
		if _, err := tk.Wait(ctx); err != nil {
			t.Fatalf("ticket: %v", err)
		}
	}
	close(stop)
	readers.Wait()

	// The early view must be bit-identical after every concurrent solve.
	if held.Result.Score != heldScore || !reflect.DeepEqual(held.Result.Assignment, heldGroups) {
		t.Fatal("held view mutated by later solves")
	}
	// Final coalesced state vs a cold solve of the same instance.
	warmRes, err := s.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewSolver(s.Instance(), WithMethod(MethodSDGA), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < P; p++ {
		if !s.Active(p) {
			if err := cold.WithdrawPaper(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	coldRes, err := cold.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warmRes.Score-coldRes.Score) > 1e-9 {
		t.Fatalf("stress-coalesced warm score %v != cold %v", warmRes.Score, coldRes.Score)
	}
}

// TestSolverProgressCallbackSafety is the regression test for the
// callback-under-lock fix: progress callbacks run while the solve lock is
// held, so the blocking Solve/Resolve must panic with a clear message
// instead of deadlocking, while the snapshot-safe surface — View, Progress,
// ActivePapers, the edit mutators (which stay pending until the solve
// drains them), ResolveAsync and OnImprovement — must all work from inside a
// callback.
func TestSolverProgressCallbackSafety(t *testing.T) {
	in := benchConferenceInstance(12, 24, 6, 3)
	s, err := NewSolver(in, WithMethod(MethodSDGA), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	var asyncTk *Ticket
	var calls atomic.Int64
	s.OnImprovement(func(sn Snapshot) {
		n := calls.Add(1)
		if v := s.View(); v == nil {
			t.Error("View() from callback returned nil")
		}
		if s.ActivePapers() != in.NumPapers() {
			t.Error("ActivePapers() from callback wrong")
		}
		_ = s.Progress()
		if n == 1 {
			if err := s.AddConflict(0, 0); err != nil {
				t.Errorf("AddConflict from callback: %v", err)
			}
			asyncTk = s.ResolveAsync()
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Resolve from a progress callback did not panic")
				}
			}()
			_, _ = s.Resolve(context.Background())
		}()
	})
	if _, err := s.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("progress callback never fired")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := asyncTk.Wait(ctx); err != nil {
		t.Fatalf("ResolveAsync issued from callback: %v", err)
	}
	// The callback's edit stayed pending through its own solve and applied
	// on the next drain (here: the async resolve).
	if !s.Instance().IsConflict(0, 0) {
		t.Fatal("conflict enqueued from callback was not applied")
	}
	// From outside any solve, Solve/Resolve must not panic.
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSolverWithdrawWaveShardParity: the coalesced withdrawal-wave re-solve
// (the shape ResolveAsync drains, and the one BenchmarkResolveAfterWithdraw
// gates) must produce bit-identical assignments at any GOMAXPROCS, now that
// more than one worker engages the sharded dirty-row read phase, the pooled
// relax shards and the batched cycle cancellation. The instance is drawn
// wide enough (R above the flow layer's parallel thresholds) that all three
// actually run.
func TestSolverWithdrawWaveShardParity(t *testing.T) {
	in := benchConferenceInstance(120, 1100, 12, 3)
	const wave = 30
	run := func(procs int) []*Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s, err := NewSolver(in, WithMethod(MethodSDGA), WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		var results []*Result
		res, err := s.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		rng := rand.New(rand.NewSource(17))
		for trial := 0; trial < 2; trial++ {
			papers := rng.Perm(in.NumPapers())[:wave]
			for _, p := range papers {
				if err := s.WithdrawPaper(p); err != nil {
					t.Fatal(err)
				}
			}
			res, err := s.Resolve(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
			for _, p := range papers {
				if err := s.RestorePaper(p); err != nil {
					t.Fatal(err)
				}
			}
			res, err = s.Resolve(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
		return results
	}
	ref := run(1)
	for _, procs := range []int{2, 4, 8} {
		got := run(procs)
		for step := range ref {
			if got[step].Score != ref[step].Score {
				t.Fatalf("GOMAXPROCS %d step %d: score %v != serial %v", procs, step, got[step].Score, ref[step].Score)
			}
			if !reflect.DeepEqual(got[step].Assignment, ref[step].Assignment) {
				t.Fatalf("GOMAXPROCS %d step %d: assignment differs from serial", procs, step)
			}
		}
	}
}
