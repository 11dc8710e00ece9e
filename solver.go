package wgrap

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cra"
	"repro/internal/durable"
)

// Snapshot is one point of a solve's anytime progress stream: the best
// assignment known so far and its score. Construction emits one snapshot
// (Phase "construct", Round 0); every improving round of the stochastic
// refinement emits another (Phase "refine", 1-based Round).
type Snapshot struct {
	// Phase is "construct" (the SDGA result) or "refine" (an SRA
	// improvement).
	Phase string
	// Round is the refinement round that produced the improvement (0 for the
	// construction snapshot).
	Round int
	// Score is the WGRAP objective of Best over the active papers.
	Score float64
	// Best is a private copy of the best assignment found so far; withdrawn
	// papers have empty groups.
	Best *Assignment
	// Elapsed is the wall-clock time since the Solve/Resolve call started.
	Elapsed time.Duration
}

// Solver is a long-lived assignment session: it owns a private copy of the
// instance plus every piece of reusable solver state (the per-stage
// transportation solvers, which keep their own copies of the profits they
// loaded, and one profit matrix that every fill writes into), accepts
// incremental instance edits, and re-solves warm. A refinement keeps nothing
// once it returns: its completion solver lives for the refinement only.
//
// The lifecycle is: NewSolver → Solve (cold) → edits (AddConflict,
// WithdrawPaper, RestorePaper, AddReviewer, SetWorkload) → Resolve (warm) →
// more edits → Resolve …. For the default SDGA-based methods, Resolve
// re-fills only the profit-matrix rows the edits dirtied and re-solves each
// stage's transportation from its retained flow and duals, so a small edit
// re-solves several times faster than a cold Solve while returning the same
// assignment a cold solve of the edited instance would (identical whenever
// the stage optima are unique, which holds with probability one for
// continuous scores). Baseline methods re-run cold on a Resolve that follows
// an edit that changed the instance.
//
// All methods are safe for concurrent use, and the session is built to be
// served: solves are single-flight behind a solve lock, but reads and writes
// are not. View, Result and Progress return atomically-published immutable
// snapshots and never block on a Solve/Resolve in flight; the edit mutators
// judge each edit by the session's own rule set (cra.EditState.Check), run
// on a copy of its edit state advanced ahead of the session, and enqueue
// into a pending batch, so they return their verdict immediately even
// mid-solve; and
// ResolveAsync drains everything pending as one coalesced warm re-solve in
// the background, publishing a new View on completion (see concurrent.go).
// Progress callbacks run synchronously on the solving goroutine; they must
// not call the blocking Solve/Resolve (enforced with a panic — it would
// deadlock), but View, Progress, the mutators and ResolveAsync are all
// callback-safe.
type Solver struct {
	// mu is the solve lock: it guards the session, start, editsSince and
	// applyErr. Lock order is always mu → pendMu; pendMu is never held while
	// acquiring mu.
	mu     sync.Mutex
	opts   options
	sess   *cra.Session
	solved bool
	// start is the wall-clock origin of the running Solve/Resolve, read by
	// the progress hooks (only touched while mu is held).
	start time.Time
	// editsSince counts the edits drained since the last published View
	// (guarded by mu); applyErr keeps a mirror/session divergence for the
	// next solve to surface (a bug guard — see drainLocked).
	editsSince int
	applyErr   error

	// Lock-free read surface: the latest published View, the latest mid-solve
	// progress snapshot, the View version counter, the registered progress
	// callback, and the goroutine id of the in-flight solve (0 when idle,
	// used to turn callback re-entry deadlocks into panics).
	view     atomic.Pointer[View]
	live     atomic.Pointer[Snapshot]
	version  atomic.Uint64
	progress atomic.Pointer[func(Snapshot)]
	solveGID atomic.Int64

	// pendMu guards the pending edit batch, the mirror that judges it, the
	// ResolveAsync ticket queue, the accepted-edit counter and the durable
	// store handle. It is only ever held for O(1) work (plus, for durable
	// sessions, one journal append), so the mutators and mirror reads stay
	// non-blocking even mid-solve.
	pendMu  sync.Mutex
	pending []cra.Edit
	tickets []*Ticket
	asyncOn bool
	mirror  cra.EditState
	// accepted counts the edits accepted over the session's lifetime; for
	// durable sessions it is the journal sequence number (see durability.go).
	accepted uint64
	dstore   *durable.Store
	// storeErr is a sticky durability failure: once a journal append or
	// fsync fails, every further edit and solve is refused rather than
	// silently diverging from the journal.
	storeErr error

	// scores holds each paper's group score in the assignment last scored
	// (guarded by mu), and scoredFor[p] the group scores[p] was computed for,
	// nil while paper p has no score (never scored, or withdrawn), so
	// scoreGroups rescores only the papers whose group changed. No edit
	// makes a kept score stale: topic vectors never change, and AddReviewer
	// only appends. scored reports that the running solve's result is the
	// assignment last scored, so buildResult reads the scores instead of
	// scoring it again; run clears it first, and only a non-refining
	// construction hook sets it.
	scores    []float64
	scoredFor [][]int
	scored    bool
}

// NewSolver builds a solver session for the instance. The instance is
// copied: later mutations of in are invisible to the session (edit through
// the Solver's mutators instead). A zero Workload selects the minimum
// balanced workload ⌈P·δp/R⌉, exactly as NewInstance does.
//
// Errors: ErrUnknownMethod, ErrInvalidInstance, ErrInfeasible,
// ErrConflictSaturated; additionally ErrJournalExists when WithJournalDir
// points at a directory that already holds durable session state (restore
// it with RestoreSolver instead).
func NewSolver(in *Instance, opts ...Option) (*Solver, error) {
	o := resolveOptions(opts)
	s, err := newSolver(in, o)
	if err != nil {
		return nil, err
	}
	if o.journalDir != "" {
		if err := s.initDurable(o.journalDir, o); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// newSolver builds the in-memory session without touching any durable
// state; NewSolver and RestoreSolver wrap it.
func newSolver(in *Instance, o options) (*Solver, error) {
	own := in.Clone()
	if own.Workload == 0 && own.NumReviewers() > 0 {
		own.Workload = own.MinWorkload()
	}
	if err := own.Validate(); err != nil {
		return nil, wrapInstanceErr(own, err)
	}
	s := &Solver{opts: o}
	if o.progress != nil {
		fn := o.progress
		s.progress.Store(&fn)
	}
	alg, err := o.baseline()
	if err != nil {
		return nil, err
	}
	cfg := cra.SessionConfig{
		Baseline:     alg,
		Refine:       o.method == MethodSDGASRA,
		SRA:          o.sra(),
		CandidateCap: o.candidateCap,
	}
	cfg.OnConstruct = s.constructHook()
	cfg.SRA.OnImprovement = s.improvementHook()
	sess, err := cra.NewSession(own, cfg)
	if err != nil {
		return nil, wrapErr(err)
	}
	s.sess = sess
	s.mirror = sess.EditState()
	s.view.Store(&View{When: time.Now()})
	return s, nil
}

// progressFn returns the registered progress callback, or nil.
func (s *Solver) progressFn() func(Snapshot) {
	if p := s.progress.Load(); p != nil {
		return *p
	}
	return nil
}

// emitSnapshot publishes sn as the latest anytime snapshot (readable via
// Progress without any lock) and forwards it to the registered callback.
// Runs on the solving goroutine, inside the solve lock: the callback must
// not call the blocking Solve/Resolve (checkReentry turns that deadlock into
// a panic), but every snapshot-safe entry point — View, Progress, the edit
// mutators, ResolveAsync, OnImprovement — works from inside it.
func (s *Solver) emitSnapshot(sn Snapshot) {
	s.live.Store(&sn)
	if fn := s.progressFn(); fn != nil {
		fn(sn)
	}
}

// constructHook scores the construction once and emits the
// construction-phase snapshot. Without a refinement the construction is the
// solve's result, so buildResult reuses the scores.
func (s *Solver) constructHook() func(*core.Assignment) {
	return func(a *core.Assignment) {
		score := s.scoreGroups(a)
		s.scored = s.opts.method != MethodSDGASRA
		s.emitSnapshot(Snapshot{
			Phase:   "construct",
			Score:   score,
			Best:    a,
			Elapsed: time.Since(s.start),
		})
	}
}

// improvementHook emits a refinement-phase snapshot per improving round.
func (s *Solver) improvementHook() func(int, *core.Assignment, float64, time.Duration) {
	return func(round int, best *core.Assignment, score float64, _ time.Duration) {
		s.emitSnapshot(Snapshot{
			Phase:   "refine",
			Round:   round,
			Score:   score,
			Best:    best,
			Elapsed: time.Since(s.start),
		})
	}
}

// OnImprovement registers (or replaces, or removes with nil) the streaming
// progress callback for subsequent Solve/Resolve calls. Every configuration
// emits at least the construction snapshot; refinement snapshots follow for
// the refining methods (MethodSDGASRA). A no-edit Resolve confirms the
// cached assignment without re-solving and emits nothing. The registration
// is atomic: it never blocks, even while a solve is in flight (the new
// callback takes effect from the next snapshot).
func (s *Solver) OnImprovement(fn func(Snapshot)) {
	if fn == nil {
		s.progress.Store(nil)
		return
	}
	s.progress.Store(&fn)
}

// Method returns the configured assignment method.
func (s *Solver) Method() Method { return s.opts.method }

// Instance returns a read-only view of the session's instance. The returned
// value must not be mutated; edits go through the Solver's mutators (and a
// value held across later edits may observe them — take what you need and
// drop it, or read through View for an immutable snapshot).
func (s *Solver) Instance() *Instance {
	return s.sess.Instance()
}

// Active reports whether paper p currently participates in the assignment,
// including the effect of accepted edits still pending in the batch. It
// never blocks on a solve in flight.
func (s *Solver) Active(p int) bool {
	s.pendMu.Lock()
	defer s.pendMu.Unlock()
	return s.mirror.Active(p)
}

// ActivePapers returns the number of non-withdrawn papers, including the
// effect of accepted edits still pending in the batch. It never blocks on a
// solve in flight.
func (s *Solver) ActivePapers() int {
	s.pendMu.Lock()
	defer s.pendMu.Unlock()
	return s.mirror.ActivePapers()
}

// AddConflict registers a late conflict of interest between reviewer r and
// paper p and marks the paper's solver state dirty. The edit is rejected
// with ErrConflictSaturated when it would leave an active paper without δp
// eligible reviewers, and with ErrInvalidEdit on out-of-range indices.
func (s *Solver) AddConflict(r, p int) error {
	_, err := s.enqueueEdit(cra.Edit{Op: cra.OpAddConflict, R: r, P: p})
	return err
}

// WithdrawPaper removes paper p from the workload (e.g. a withdrawn
// submission): it keeps its index but receives no reviewers until restored.
func (s *Solver) WithdrawPaper(p int) error {
	_, err := s.enqueueEdit(cra.Edit{Op: cra.OpWithdrawPaper, P: p})
	return err
}

// RestorePaper re-activates a withdrawn paper. Errors: ErrConflictSaturated
// when conflicts accumulated during the withdrawal, ErrInfeasible when the
// pool cannot absorb the extra load, ErrInvalidEdit on a bad index.
func (s *Solver) RestorePaper(p int) error {
	_, err := s.enqueueEdit(cra.Edit{Op: cra.OpRestorePaper, P: p})
	return err
}

// AddReviewer appends a reviewer to the pool and returns its index. It
// fails with ErrInvalidEdit when the topic vector has the wrong dimension or
// a NaN or ±Inf weight. The edit is structural, so the next Resolve rebuilds
// the warm state (still reusing the session's buffers).
func (s *Solver) AddReviewer(r Reviewer) (int, error) {
	return s.enqueueEdit(cra.Edit{Op: cra.OpAddReviewer, Reviewer: r})
}

// SetWorkload changes the per-reviewer workload δr. Errors: ErrInfeasible
// when the new capacity cannot cover the active demand, ErrInvalidEdit for
// non-positive values.
func (s *Solver) SetWorkload(workload int) error {
	_, err := s.enqueueEdit(cra.Edit{Op: cra.OpSetWorkload, Workload: workload})
	return err
}

// Solve computes the assignment from a cold start, recording the warm state
// later Resolve calls reuse. Cancelling ctx aborts construction with the
// context error; the refinement phase is anytime — at the deadline it stops
// and keeps the best assignment found. A successful Solve publishes a new
// View.
func (s *Solver) Solve(ctx context.Context) (*Result, error) {
	s.checkReentry()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.solveGID.Store(curGID())
	defer s.solveGID.Store(0)
	return s.run(ctx, true)
}

// Resolve re-solves after the pending edits, warm where the method supports
// it (the SDGA-based defaults); with no pending edits it cheaply confirms
// the current assignment. Calling Resolve before any Solve solves cold. A
// successful Resolve publishes a new View.
func (s *Solver) Resolve(ctx context.Context) (*Result, error) {
	s.checkReentry()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.solveGID.Store(curGID())
	defer s.solveGID.Store(0)
	return s.run(ctx, !s.solved)
}

// run executes one solve under the held solve lock: it first drains the
// pending edit batch into the session (so concurrent edits coalesce into
// this warm re-solve), then solves, then publishes the new View and — for a
// durable session past its compaction threshold — rewrites the snapshot.
func (s *Solver) run(ctx context.Context, cold bool) (*Result, error) {
	s.scored = false
	s.pendMu.Lock()
	serr := s.storeErr
	s.pendMu.Unlock()
	if serr != nil {
		return nil, serr
	}
	s.drainLocked()
	if err := s.applyErr; err != nil {
		s.applyErr = nil
		return nil, err
	}
	defer s.maybeCompactLocked()
	s.start = time.Now()
	var a *core.Assignment
	var err error
	if cold {
		a, err = s.sess.Solve(ctx)
	} else {
		a, err = s.sess.Resolve(ctx)
	}
	if err != nil {
		return nil, wrapErr(err)
	}
	s.solved = true
	res := s.buildResult(a, time.Since(s.start))
	s.publishLocked(res, !cold)
	return res, nil
}

// scoreGroups records each active paper's group score in a into s.scores
// (0 for a withdrawn paper) and returns their sum in paper order. A paper
// whose group is the one its kept score was computed for keeps that score,
// so a warm resolve scores only the papers its edits moved.
func (s *Solver) scoreGroups(a *core.Assignment) float64 {
	in := s.sess.Instance()
	if len(s.scores) != len(a.Groups) {
		s.scores = make([]float64, len(a.Groups))
		s.scoredFor = make([][]int, len(a.Groups))
	}
	total := 0.0
	for p, g := range a.Groups {
		switch {
		case !s.sess.Active(p):
			s.scores[p], s.scoredFor[p] = 0, nil
			continue
		case s.scoredFor[p] == nil || !slices.Equal(s.scoredFor[p], g):
			s.scores[p] = in.GroupScore(p, g)
			s.scoredFor[p] = append(s.scoredFor[p][:0], g...)
		}
		total += s.scores[p]
	}
	return total
}

// buildResult assembles the public Result: metrics cover the active papers
// only (withdrawn papers keep empty groups in Assignment). It scores a only
// when the construction hook has not scored it in this solve.
func (s *Solver) buildResult(a *core.Assignment, elapsed time.Duration) *Result {
	if !s.scored {
		s.scoreGroups(a)
	}
	total, lowest, active := 0.0, 0.0, 0
	first := true
	for p := range a.Groups {
		if !s.sess.Active(p) {
			continue
		}
		sc := s.scores[p]
		total += sc
		if first || sc < lowest {
			lowest, first = sc, false
		}
		active++
	}
	avg := 0.0
	if active > 0 {
		avg = total / float64(active)
	}
	return &Result{
		Assignment:      a,
		Score:           total,
		AverageCoverage: avg,
		LowestCoverage:  lowest,
		Elapsed:         elapsed,
		Method:          s.opts.method,
	}
}
