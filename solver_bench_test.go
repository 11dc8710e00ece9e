package wgrap

import (
	"context"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/cra"
)

// BenchmarkResolveAfterEdit is the session warm-path acceptance benchmark at
// the paper's conference scale (P=1000, R=2000, T=40, δp=3): a long-lived
// Solver absorbs one small edit per iteration (a fresh conflict of interest,
// or a withdrawal immediately restored next iteration) and re-solves warm;
// the cold variant builds a new session and solves from scratch on every
// iteration. CI gates warm-resolve-after-coi against BENCH_BASELINE.json
// (see cmd/wgrap-bench), and the acceptance criterion requires the warm path
// to beat the cold one by ≥3x.
func BenchmarkResolveAfterEdit(b *testing.B) {
	in := benchConferenceInstance(1000, 2000, 40, 3)

	b.Run("warm-resolve-after-coi", func(b *testing.B) {
		s, err := NewSolver(in, WithMethod(MethodSDGA))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Solve(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.AddConflict((i*37)%in.NumReviewers(), (i*11)%in.NumPapers()); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Resolve(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm-resolve-after-withdraw", func(b *testing.B) {
		s, err := NewSolver(in, WithMethod(MethodSDGA))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Solve(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := (i * 13) % in.NumPapers()
			if err := s.WithdrawPaper(p); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Resolve(context.Background()); err != nil {
				b.Fatal(err)
			}
			if err := s.RestorePaper(p); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Resolve(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("cold-solve", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := NewSolver(in, WithMethod(MethodSDGA))
			if err != nil {
				b.Fatal(err)
			}
			if err := s.AddConflict((i*37)%in.NumReviewers(), (i*11)%in.NumPapers()); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Solve(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestResolveAfterEditSpeedup asserts the acceptance criterion directly:
// at P=1000/R=2000 a warm Resolve after one added conflict of interest beats
// a cold Solve of the edited instance by at least 3x (while the randomized
// parity tests pin the scores to 1e-9). Skipped in -short mode; the CI bench
// gate tracks the same ratio continuously via BenchmarkResolveAfterEdit.
func TestResolveAfterEditSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale speedup check skipped in -short mode")
	}
	in := benchConferenceInstance(1000, 2000, 40, 3)
	warm, err := NewSolver(in, WithMethod(MethodSDGA))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Median-of-three single-COI warm resolves against one cold solve.
	var warmBest, coldElapsed float64
	var warmScore, coldScore float64
	for trial := 0; trial < 3; trial++ {
		if err := warm.AddConflict(100+trial*131, 200+trial*17); err != nil {
			t.Fatal(err)
		}
		res, err := warm.Resolve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		sec := res.Elapsed.Seconds()
		if trial == 0 || sec < warmBest {
			warmBest = sec
		}
		warmScore = res.Score
	}
	cold, err := NewSolver(warm.Instance(), WithMethod(MethodSDGA))
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := cold.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	coldElapsed = coldRes.Elapsed.Seconds()
	coldScore = coldRes.Score
	if math.Abs(warmScore-coldScore) > 1e-9 {
		t.Fatalf("score parity: warm %v != cold %v", warmScore, coldScore)
	}
	ratio := coldElapsed / warmBest
	t.Logf("warm resolve (best of 3) %.3fs vs cold solve %.3fs: %.1fx", warmBest, coldElapsed, ratio)
	if ratio < 3 {
		t.Fatalf("warm resolve only %.1fx faster than cold solve, want >= 3x", ratio)
	}
}

// BenchmarkResolveAfterWithdraw is the acceptance benchmark for the parallel
// warm re-solve at the paper's conference scale (P=1000, R=2000, T=40,
// δp=3): a coalesced withdrawal wave — withdrawWave papers withdrawn, one
// warm Resolve, then restored, one warm Resolve — exactly the batch shape
// ResolveAsync's write coalescing drains. The wave exercises both parallel
// levers at once: the sharded dirty-row read phase of ResolveRows and the
// batched improving-cycle repair (one search per cascade depth instead of
// one per freed slot). The single-worker variant pins GOMAXPROCS, and with
// it the session's worker count, to 1 (the name avoids a trailing digit,
// which the wgrap-bench parser would strip as a GOMAXPROCS suffix); CI
// requires multicore to beat it by ≥1.3x
// (see cmd/wgrap-bench -min-speedup) while the two produce bit-identical
// assignments (TestResolveRowsShardedDeterminism pins that at the flow
// layer, TestSolverWithdrawWaveShardParity end to end).
func BenchmarkResolveAfterWithdraw(b *testing.B) {
	in := benchConferenceInstance(1000, 2000, 40, 3)
	run := func(b *testing.B) {
		s, err := NewSolver(in, WithMethod(MethodSDGA))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Solve(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for w := 0; w < withdrawWave; w++ {
				if err := s.WithdrawPaper((i*withdrawWave + w*61) % in.NumPapers()); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := s.Resolve(context.Background()); err != nil {
				b.Fatal(err)
			}
			for w := 0; w < withdrawWave; w++ {
				if err := s.RestorePaper((i*withdrawWave + w*61) % in.NumPapers()); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := s.Resolve(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("single-worker", func(b *testing.B) {
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
		run(b)
	})
	b.Run("multicore", func(b *testing.B) {
		run(b)
	})
}

// withdrawWave is the wave width of BenchmarkResolveAfterWithdraw and its
// parity test: wide enough to engage the sharded dirty-row read phase
// (withdrawWave × R = 40000 cells, above the flow layer's 1<<15 parallel
// threshold), small enough to stay a realistic pre-deadline burst.
const withdrawWave = 20

// BenchmarkSolveColdPaperScale is the multi-core acceptance benchmark for
// the sharded stage solve: one full cold SDGA solve at the paper's
// conference scale (P=1000, R=2000, T=40, δp=3), run once pinned to a
// single CPU, which also makes the session's workers serial (sub-benchmark
// "single-cpu" — the name avoids a trailing digit, which the wgrap-bench
// parser would strip as a GOMAXPROCS suffix) and once with all CPUs. CI
// requires the multicore variant to beat the single-CPU one by ≥1.5x on its
// ≥4-CPU runners (see cmd/wgrap-bench -min-speedup); the two variants
// produce identical assignments, so the comparison is pure wall-clock.
func BenchmarkSolveColdPaperScale(b *testing.B) {
	in := benchConferenceInstance(1000, 2000, 40, 3)
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := NewSolver(in, WithMethod(MethodSDGA))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Solve(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("single-cpu", func(b *testing.B) {
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
		run(b)
	})
	b.Run("multicore", func(b *testing.B) {
		run(b)
	})
}

// BenchmarkSolveColdRepeated is perfbench cold-dense's solve in process:
// P=350, R=700, T=40, δp=3 with no candidate cap, solved cold again and
// again on one Solver, which reuses its buffers across solves as a serving
// tenant does. It is not gated; profile a cold dense solve with it
// (-cpuprofile).
func BenchmarkSolveColdRepeated(b *testing.B) {
	ctx := context.Background()
	s, err := NewSolver(benchConferenceInstance(350, 700, 40, 3), WithMethod(MethodSDGA))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Solve(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveColdConflicts is one cold SDGA solve at the paper's
// conference scale (P=1000, R=2000, T=40, δp=3) on one CPU, over the
// instance with no conflict of interest and with 3,000 drawn from a fixed
// seed, so that what conflicts cost a cold solve shows. It is not gated.
func BenchmarkSolveColdConflicts(b *testing.B) {
	for _, bc := range []struct {
		name      string
		conflicts int
	}{{"none", 0}, {"3000-drawn", 3000}} {
		in := benchConferenceInstance(1000, 2000, 40, 3)
		rng := rand.New(rand.NewSource(24))
		for k := 0; k < bc.conflicts; k++ {
			in.AddConflict(rng.Intn(in.NumReviewers()), rng.Intn(in.NumPapers()))
		}
		b.Run(bc.name, func(b *testing.B) {
			prev := runtime.GOMAXPROCS(1)
			defer runtime.GOMAXPROCS(prev)
			for i := 0; i < b.N; i++ {
				s, err := NewSolver(in, WithMethod(MethodSDGA))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Solve(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestShardedSolveSpeedup asserts the multi-core acceptance criterion
// directly on machines with at least 4 CPUs: the full paper-scale cold solve
// with the sharded stage solve (and the parallel profit-matrix build it
// rides with) must run ≥1.5x faster than the same solve pinned to one CPU,
// while producing an identical assignment. A wall-clock ratio is only
// meaningful on an otherwise idle machine — inside `go test ./...` the
// multicore variant competes with other package test binaries for the same
// cores while the pinned variant does not — so the assertion is opt-in via
// WGRAP_ASSERT_SPEEDUP=1; CI enforces the same ratio in its isolated bench
// job through BenchmarkSolveColdPaperScale and wgrap-bench -min-speedup.
func TestShardedSolveSpeedup(t *testing.T) {
	if os.Getenv("WGRAP_ASSERT_SPEEDUP") == "" {
		t.Skip("wall-clock speedup assertion is opt-in: set WGRAP_ASSERT_SPEEDUP=1 on an idle machine (CI asserts the ratio in the isolated bench job)")
	}
	if testing.Short() {
		t.Skip("paper-scale speedup check skipped in -short mode")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs to assert the multi-core speedup, have %d", runtime.NumCPU())
	}
	in := benchConferenceInstance(1000, 2000, 40, 3)
	solve := func() (*Result, float64) {
		best := math.Inf(1)
		var res *Result
		for trial := 0; trial < 2; trial++ {
			s, err := NewSolver(in, WithMethod(MethodSDGA))
			if err != nil {
				t.Fatal(err)
			}
			r, err := s.Solve(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if sec := r.Elapsed.Seconds(); sec < best {
				best = sec
			}
			res = r
		}
		return res, best
	}
	prev := runtime.GOMAXPROCS(1)
	serialRes, serialSec := solve()
	runtime.GOMAXPROCS(prev)
	multiRes, multiSec := solve()
	if math.Abs(serialRes.Score-multiRes.Score) > 1e-9 {
		t.Fatalf("sharded score %v != serial score %v", multiRes.Score, serialRes.Score)
	}
	ratio := serialSec / multiSec
	t.Logf("cold solve: 1 cpu %.2fs vs %d cpus %.2fs: %.2fx", serialSec, runtime.NumCPU(), multiSec, ratio)
	if ratio < 1.5 {
		t.Fatalf("multicore cold solve only %.2fx faster than single-CPU, want >= 1.5x", ratio)
	}
}

// TestSessionRetainedHeap checks that a refinement leaves nothing behind in
// its session: at P=1000/R=2000, dense and at candidate cap 64, a solved
// session that refines must keep at most 5% + 1 MB more live heap than one
// that does not. The live heap is HeapAlloc after two garbage collections,
// measured across building and solving the session, with the session still
// referenced. Skipped in -short mode.
func TestSessionRetainedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale heap check skipped in -short mode")
	}
	retained := func(name string, cfg cra.SessionConfig) float64 {
		in := benchConferenceInstance(1000, 2000, 40, 3)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		sess, err := cra.NewSession(in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Solve(context.Background()); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(sess)
		mb := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
		t.Logf("retained heap %s: %.1f MB", name, mb)
		return mb
	}
	refine := cra.SRA{Omega: 1000, MaxRounds: 2, Seed: 1}
	for _, c := range []struct {
		name string
		cap  int
	}{{"dense", 0}, {"cap 64", 64}} {
		plain := retained(c.name+" SDGA", cra.SessionConfig{CandidateCap: c.cap})
		refined := retained(c.name+" SDGA-SRA", cra.SessionConfig{CandidateCap: c.cap, Refine: true, SRA: refine})
		if limit := 1.05*plain + 1; refined > limit {
			t.Errorf("%s: a refined session keeps %.1f MB, more than %.1f MB (an unrefined one keeps %.1f MB)", c.name, refined, limit, plain)
		}
	}
}

// TestSessionRefineTrajectory pins the refinement's trajectory at the
// paper's conference scale (P=1000, R=2000, T=40, δp=3): a refining
// cra.Session solves, takes the withdrawals of papers 5, 77 and 400 and the
// conflict (3, 9), and resolves, and both scores must match the recorded
// values to 1e-9. SRA's completion has no tie-break, so where its optimum
// has exact ties, the transport's search order picks the plan, and a change
// to that order can move a score while every plan stays optimal; this test
// makes such a move visible. The scores sum the active papers' group
// scores. Skipped in -short mode.
func TestSessionRefineTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale refinement trajectory skipped in -short mode")
	}
	for _, c := range []struct {
		name           string
		cap            int
		seed           int64
		solve, resolve float64
	}{
		{"dense seed 1", 0, 1, 992.4222962380519, 989.5359961560396},
		{"cap 64 seed 1", 64, 1, 965.1170953385503, 962.7555881207677},
	} {
		sess, err := cra.NewSession(benchConferenceInstance(1000, 2000, 40, 3), cra.SessionConfig{
			CandidateCap: c.cap, Refine: true, SRA: cra.SRA{Omega: 1000, MaxRounds: 12, Seed: c.seed},
		})
		if err != nil {
			t.Fatal(err)
		}
		score := func(a *core.Assignment) float64 {
			total := 0.0
			for p, g := range a.Groups {
				if sess.Active(p) {
					total += sess.Instance().GroupScore(p, g)
				}
			}
			return total
		}
		a, err := sess.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		solved := score(a)
		for _, p := range []int{5, 77, 400} {
			if err := sess.WithdrawPaper(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := sess.AddConflict(3, 9); err != nil {
			t.Fatal(err)
		}
		if a, err = sess.Resolve(context.Background()); err != nil {
			t.Fatal(err)
		}
		resolved := score(a)
		if math.Abs(solved-c.solve) > 1e-9 || math.Abs(resolved-c.resolve) > 1e-9 {
			t.Errorf("%s: scores %.16g after Solve and %.16g after Resolve, want %.16g and %.16g",
				c.name, solved, resolved, c.solve, c.resolve)
		}
	}
}
