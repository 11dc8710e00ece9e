package cra

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flow"
)

// ErrConflictSaturated is returned when conflicts of interest leave an
// active paper with fewer than δp eligible reviewers, so no feasible
// assignment can exist for it.
var ErrConflictSaturated = errors.New("cra: conflicts leave a paper with fewer candidates than the group size")

// SessionConfig configures a long-lived solver session. Every stage's profit
// cell is the marginal gain of Definition 9 plus the session's tieBreak.
// The session runs every transport and the candidate build on
// runtime.GOMAXPROCS(0) workers; the solved assignment is identical for
// every worker count.
type SessionConfig struct {
	// Refine runs the stochastic refinement after SDGA (the paper's SDGA-SRA
	// pipeline). Off = construction only.
	Refine bool
	// SRA parameterises the refinement (defaults are applied internally:
	// Omega 10, Lambda 0.1, MaxRounds 1000, Seed 1).
	SRA SRA
	// CandidateCap, when positive, restricts every stage (and the
	// refinement's pair scores and completions) to the top-k candidate
	// reviewers per paper — the sparse solve path, see SDGA.CandidateCap.
	// The refinement prices an assigned pair outside a paper's candidates
	// with an exact on-demand score, so it degrades only by the candidate
	// truncation itself. Candidate lists depend only on topic vectors, so
	// they survive every session edit except reviewer additions (a
	// structural rebuild recomputes them). 0 keeps the exact dense path.
	CandidateCap int
	// OnConstruct, when set, receives a private copy of the construction
	// (SDGA) assignment before refinement starts.
	OnConstruct func(a *core.Assignment)
}

// Session is a long-lived SDGA(-SRA) solver bound to one instance. It owns
// every piece of reusable hot state — the gain oracle, one profit matrix and
// one transportation solver per SDGA stage, the refinement's pair-score
// matrix and completion scratch — and supports incremental instance edits
// followed by warm re-solves:
//
//   - Solve computes the assignment from scratch (and records per-stage
//     state);
//   - AddConflict / WithdrawPaper / RestorePaper / AddReviewer / SetWorkload
//     edit the instance and mark the affected state dirty;
//   - Resolve re-solves warm: profit-matrix rows are re-filled only for
//     dirty papers, each stage's transportation re-solves through
//     Transport.ResolveRows from the retained flow and duals, and papers
//     whose stage choice drifts are propagated as dirty into later stages.
//
// Resolve replays the exact solve pipeline (same stage structure, same
// refinement seed), so on instances whose stage optima are unique — true
// with probability one for continuous random scores — it returns the same
// assignment a cold Solve of the edited instance would, only faster.
//
// A Session is not safe for concurrent use; callers serialise access (the
// public wgrap.Solver wraps it in a mutex).
type Session struct {
	in  *core.Instance // owned by the session
	eng *engine.Oracle
	cfg SessionConfig

	withdrawn []bool
	activeN   int
	// conflictN[p] counts paper p's conflicts, kept incrementally so the
	// saturation check on every edit is O(1) instead of a conflict-set scan.
	conflictN []int

	dirty      map[int]struct{}
	structural bool // dimensions or large-scale state changed: rebuild everything
	capsDirty  bool // only capacities changed (workload edit)
	version    uint64

	stages []*sessionStage

	// Refinement state: pair scores depend only on topic vectors, so the
	// matrix survives every edit except reviewer additions.
	pairs      engine.Matrix
	pairsValid bool
	fill       engine.Matrix
	sraTr      flow.Transport

	// cands holds the per-paper candidate reviewers of the sparse solve path
	// (nil when CandidateCap is off); rebuilt on structural resolves.
	cands [][]int32

	// Reused replay scratch.
	groupVecs []core.Vector
	rem       []int
	need      []int
	caps      []int
	rowDirty  []bool
	dirtyList []int

	last *core.Assignment
}

// sessionStage is the retained state of one SDGA stage.
type sessionStage struct {
	m        engine.Matrix
	tr       flow.Transport
	perPaper []int // chosen reviewer per paper (-1 for withdrawn papers)
}

// NewSession builds a session around the instance, taking ownership of it:
// the caller must not mutate in afterwards (wgrap clones on behalf of its
// callers). The instance's Workload must already be resolved (non-zero).
func NewSession(in *core.Instance, cfg SessionConfig) (*Session, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("cra: %w", err)
	}
	s := &Session{
		in:         in,
		eng:        engine.New(in),
		cfg:        cfg,
		withdrawn:  make([]bool, in.NumPapers()),
		activeN:    in.NumPapers(),
		dirty:      make(map[int]struct{}),
		structural: true,
		version:    in.Version(),
	}
	// Conflict saturation is not part of core.Validate (it is a solver-level
	// concern): detect it here so sessions fail with a typed error up front
	// instead of a late transport infeasibility. The per-paper counts stay
	// on the session and are maintained incrementally by AddConflict.
	s.conflictN = make([]int, in.NumPapers())
	for _, c := range in.Conflicts() {
		if c.Paper >= 0 && c.Paper < in.NumPapers() {
			s.conflictN[c.Paper]++
		}
	}
	for p, n := range s.conflictN {
		if in.NumReviewers()-n < in.GroupSize {
			return nil, fmt.Errorf("%w (paper %d)", ErrConflictSaturated, p)
		}
	}
	return s, nil
}

// eligible returns how many reviewers may serve paper p, from the
// incrementally maintained conflict counts.
func (s *Session) eligible(p int) int { return s.in.NumReviewers() - s.conflictN[p] }

// Instance returns the session's instance. Callers must treat it as
// read-only; edits go through the session mutators.
func (s *Session) Instance() *core.Instance { return s.in }

// Active reports whether paper p participates in the assignment (i.e. has
// not been withdrawn).
func (s *Session) Active(p int) bool { return !s.withdrawn[p] }

// ActivePapers returns the number of non-withdrawn papers.
func (s *Session) ActivePapers() int { return s.activeN }

// markDirty records paper p as needing a profit-row refill in every stage.
func (s *Session) markDirty(p int) { s.dirty[p] = struct{}{} }

// AddConflict registers a conflict of interest between reviewer r and paper
// p and marks the paper dirty. It rejects edits that would leave an active
// paper without δp eligible reviewers with ErrConflictSaturated.
func (s *Session) AddConflict(r, p int) error {
	if r < 0 || r >= s.in.NumReviewers() || p < 0 || p >= s.in.NumPapers() {
		return fmt.Errorf("cra: conflict (%d,%d) out of range", r, p)
	}
	if s.in.IsConflict(r, p) {
		return nil
	}
	if !s.withdrawn[p] && s.eligible(p)-1 < s.in.GroupSize {
		return fmt.Errorf("%w (paper %d)", ErrConflictSaturated, p)
	}
	s.in.AddConflict(r, p)
	s.conflictN[p]++
	s.markDirty(p)
	s.version = s.in.Version()
	return nil
}

// WithdrawPaper removes paper p from the workload: it keeps its index but
// receives no reviewers until restored.
func (s *Session) WithdrawPaper(p int) error {
	if p < 0 || p >= s.in.NumPapers() {
		return fmt.Errorf("cra: paper %d out of range", p)
	}
	if s.withdrawn[p] {
		return nil
	}
	s.withdrawn[p] = true
	s.activeN--
	s.markDirty(p)
	return nil
}

// RestorePaper re-activates a withdrawn paper. It fails with
// ErrConflictSaturated when conflicts added in the meantime leave the paper
// without δp eligible reviewers, and with ErrInsufficientCapacity when the
// reviewer pool cannot absorb the extra load.
func (s *Session) RestorePaper(p int) error {
	if p < 0 || p >= s.in.NumPapers() {
		return fmt.Errorf("cra: paper %d out of range", p)
	}
	if !s.withdrawn[p] {
		return nil
	}
	if s.eligible(p) < s.in.GroupSize {
		return fmt.Errorf("%w (paper %d)", ErrConflictSaturated, p)
	}
	if !core.HasCapacity(s.in.NumReviewers(), s.in.Workload, (s.activeN+1)*s.in.GroupSize) {
		return ErrInsufficientCapacity
	}
	s.withdrawn[p] = false
	s.activeN++
	s.markDirty(p)
	return nil
}

// AddReviewer appends a reviewer to the pool and returns its index. It
// rejects a topic vector of the wrong dimension or with a NaN or ±Inf
// weight. The edit is structural (every profit matrix gains a column), so
// the next Resolve rebuilds the warm state from scratch.
func (s *Session) AddReviewer(r core.Reviewer) (int, error) {
	if t := s.in.NumTopics(); r.Topics.Dim() != t {
		return -1, fmt.Errorf("cra: reviewer has %d topics, want %d", r.Topics.Dim(), t)
	}
	if k := r.Topics.NonFinite(); k >= 0 {
		return -1, fmt.Errorf("cra: reviewer topic %d weight %v is not finite", k, r.Topics[k])
	}
	idx := s.in.AddReviewer(r)
	s.structural = true
	s.pairsValid = false
	s.version = s.in.Version()
	return idx, nil
}

// SetWorkload changes the per-reviewer workload δr. Profit matrices are
// unaffected (gains do not depend on δr), so the next Resolve only reworks
// the transportation capacities.
func (s *Session) SetWorkload(workload int) error {
	if workload <= 0 {
		return fmt.Errorf("cra: workload δr must be positive, got %d", workload)
	}
	if !core.HasCapacity(s.in.NumReviewers(), workload, s.activeN*s.in.GroupSize) {
		return ErrInsufficientCapacity
	}
	if workload == s.in.Workload {
		return nil
	}
	s.in.Workload = workload
	s.capsDirty = true
	return nil
}

// Solve computes the assignment from a cold start, recording the per-stage
// state later Resolve calls warm-start from.
func (s *Session) Solve(ctx context.Context) (*core.Assignment, error) {
	s.structural = true
	return s.resolve(ctx)
}

// Resolve re-solves after the pending edits, warm: only dirty profit rows
// are re-filled and each stage's transportation re-solves from its retained
// flow and duals. With no pending edits it returns a copy of the recorded
// assignment without re-running anything; without a preceding Solve it
// solves cold.
func (s *Session) Resolve(ctx context.Context) (*core.Assignment, error) {
	return s.resolve(ctx)
}

// Assignment returns a copy of the last solved assignment, or nil before the
// first Solve. Withdrawn papers have empty groups.
func (s *Session) Assignment() *core.Assignment {
	if s.last == nil {
		return nil
	}
	return s.last.Clone()
}

func (s *Session) resolve(ctx context.Context) (*core.Assignment, error) {
	in := s.in
	P, R := in.NumPapers(), in.NumReviewers()
	if s.version != in.Version() {
		// The instance drifted outside the session mutators (defensive: the
		// session owns its instance, but a stale warm state would silently
		// corrupt results, so invalidate everything). Checked before the
		// no-edit fast path — out-of-band edits must never confirm a stale
		// assignment.
		s.structural = true
		s.version = in.Version()
		s.conflictN = growInts(s.conflictN, P)
		clear(s.conflictN)
		for _, c := range in.Conflicts() {
			if c.Paper >= 0 && c.Paper < P {
				s.conflictN[c.Paper]++
			}
		}
	}
	// Conflict saturation can only arise here through drift (the session's
	// own mutators reject saturating edits up front), but an active paper
	// with fewer than δp eligible reviewers would otherwise surface as a
	// generic transport infeasibility in whichever stage first runs out of
	// candidates — after the earlier stages already ran. Fail fast with the
	// precise typed error instead.
	for p := 0; p < P; p++ {
		if !s.withdrawn[p] && s.eligible(p) < in.GroupSize {
			return nil, fmt.Errorf("%w (paper %d)", ErrConflictSaturated, p)
		}
	}
	if !s.structural && !s.capsDirty && len(s.dirty) == 0 && s.last != nil {
		// No pending edits: the recorded assignment is still the solution of
		// the current instance (every solve path is deterministic for a
		// fixed seed), so confirm it without re-running anything.
		return s.last.Clone(), nil
	}
	if s.stages == nil {
		s.stages = make([]*sessionStage, in.GroupSize)
		for i := range s.stages {
			s.stages[i] = &sessionStage{}
		}
	}
	workers := runtime.GOMAXPROCS(0)
	for _, st := range s.stages {
		st.tr.Workers = workers
	}
	structural := s.structural || s.last == nil
	if structural {
		// Candidate lists depend on the topic vectors and the pool size, both
		// of which only change through structural edits; the pair-score matrix
		// retains the candidate slices, so it must be rebuilt alongside them.
		if k := effectiveCandidateCap(in, s.cfg.CandidateCap); k > 0 {
			s.cands = buildCandidates(in, k, workers)
			s.pairsValid = false
		} else {
			s.cands = nil
		}
	}

	// Replay scratch.
	if s.groupVecs == nil {
		s.groupVecs = make([]core.Vector, P)
		for p := range s.groupVecs {
			s.groupVecs[p] = make(core.Vector, in.NumTopics())
		}
	}
	for p := range s.groupVecs {
		clear(s.groupVecs[p])
	}
	s.rem = growInts(s.rem, R)
	for r := range s.rem {
		s.rem[r] = in.Workload
	}
	s.need = growInts(s.need, P)
	for p := 0; p < P; p++ {
		if s.withdrawn[p] {
			s.need[p] = 0
		} else {
			s.need[p] = 1
		}
	}
	s.caps = growInts(s.caps, R)
	s.rowDirty = growBools(s.rowDirty, P)
	clear(s.rowDirty)
	s.dirtyList = s.dirtyList[:0]
	for p := range s.dirty {
		s.rowDirty[p] = true
		s.dirtyList = append(s.dirtyList, p)
	}
	sort.Ints(s.dirtyList)

	a := core.NewAssignment(P)
	backedOff := false
	for stage := 0; stage < in.GroupSize && !backedOff; stage++ {
		err := s.runStage(ctx, stage, a, structural)
		if err != nil {
			perStage := make([][]int, stage)
			for k := range perStage {
				perStage[k] = s.stages[k].perPaper
			}
			if b := stageBackOff(ctx, err, s.eng, perStage, s.withdrawn, s.cands, tieBreak, workers); b != nil {
				a, err, backedOff = b, nil, true
			}
		}
		if err != nil {
			// The abort may have committed some stages' recorded choices but
			// not others', so the drift bookkeeping no longer describes a
			// complete run; invalidate the warm state — the next resolve
			// rebuilds cold (still reusing the buffers) instead of silently
			// solving on stale profit rows.
			s.structural = true
			return nil, fmt.Errorf("cra: session stage %d: %w", stage+1, err)
		}
	}

	if s.cfg.OnConstruct != nil {
		s.cfg.OnConstruct(a.Clone())
	}

	result := a
	if s.cfg.Refine {
		refined, err := s.refine(ctx, a)
		if err != nil {
			return nil, err
		}
		result = refined
	}

	s.last = result.Clone()
	clear(s.dirty)
	// A backed-off run's stage records stop at the failed stage and do not
	// describe its assignment, so the next Resolve must rebuild them.
	s.structural = backedOff
	s.capsDirty = false
	return result, nil
}

// runStage solves one SDGA stage of the replay, warm when possible, and
// applies its choices to the replay state (assignment, group vectors,
// remaining workloads, drift-dirty propagation).
func (s *Session) runStage(ctx context.Context, stage int, a *core.Assignment, structural bool) error {
	in := s.in
	P, R := in.NumPapers(), in.NumReviewers()
	st := s.stages[stage]
	stageCap := in.StageWorkload()
	for r := 0; r < R; r++ {
		c := stageCap
		if s.rem[r] < c {
			c = s.rem[r]
		}
		if c < 0 {
			c = 0
		}
		s.caps[r] = c
	}
	// Capacity exhaustion is expressed through the transportation column
	// capacities (not the profit matrix), so profit rows stay valid across
	// edits that only shift reviewer loads. The tie-break bonus makes stage
	// optima unique, which is what lets the warm ResolveRows path reproduce
	// a cold solve's plan exactly (see tieBreak).
	spec := engine.ProfitSpec{
		GroupVecs: s.groupVecs,
		Forbidden: func(p, r int) bool {
			return s.withdrawn[p] || a.Contains(p, r) || in.IsConflict(r, p)
		},
		ForbiddenValue: flow.Forbidden,
		Bonus:          tieBreak,
	}

	if s.cands != nil {
		// Sparse mode: the escape hatch (and the warm re-read of densified
		// rows) needs this stage's spec, whose closures read replay state
		// valid only within the call — re-point the callback every stage.
		st.tr.DenseRow = func(i int, buf []float64) []float64 {
			s.eng.FillRowInto(buf, i, spec)
			return buf
		}
	}
	var rows [][]int
	var err error
	if structural {
		if s.cands != nil {
			if err = s.eng.FillProfitSparse(ctx, &st.m, spec, s.cands); err == nil {
				rows, _, err = st.tr.SolveSparse(st.m.Rows(), s.cands, R, s.need, s.caps)
			}
		} else if err = s.eng.FillProfit(ctx, &st.m, spec); err == nil {
			rows, _, err = st.tr.SolveDense(st.m.Rows(), s.need, s.caps)
		}
	} else {
		if err = s.eng.FillProfitRows(ctx, &st.m, spec, s.dirtyList); err == nil {
			rows, _, err = st.tr.ResolveRows(st.m.Rows(), s.dirtyList, s.need, s.caps)
		}
	}
	if err != nil && ctx.Err() == nil && in.Workload > stageCap {
		if stageFallbackHook != nil {
			stageFallbackHook()
		}
		// The equal per-stage partition of Definition 9 can be infeasible in
		// the general case; fall back to the reviewers' full remaining
		// workload via a capacity-only warm re-solve (the matrix and CSR are
		// untouched), which keeps the overall assignment feasible whenever
		// one exists stage-wise.
		for r := 0; r < R; r++ {
			c := s.rem[r]
			if c < 0 {
				c = 0
			}
			s.caps[r] = c
		}
		rows, _, err = st.tr.Resolve(s.caps)
	}
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}

	st.perPaper = growInts(st.perPaper, P)
	record := !structural // diff against the recorded run only when one exists
	for p := 0; p < P; p++ {
		var chosen int
		if s.withdrawn[p] || len(rows[p]) == 0 {
			chosen = -1
		} else {
			chosen = rows[p][0]
		}
		if record && chosen != st.perPaper[p] && !s.rowDirty[p] {
			// The stage choice drifted: the paper's group vector now differs
			// from the recorded run, so its profit rows in every later stage
			// must be re-filled.
			s.rowDirty[p] = true
			s.dirtyList = append(s.dirtyList, p)
		}
		st.perPaper[p] = chosen
		if chosen >= 0 {
			a.Assign(p, chosen)
			s.groupVecs[p].MaxInPlace(in.Reviewers[chosen].Topics)
			s.rem[chosen]--
		}
	}
	if !structural {
		sort.Ints(s.dirtyList)
	}
	return nil
}

// refine runs the session's stochastic refinement from start (the
// construction of a solve, or the input of SRA.RefineContext), reusing the
// session pair-score matrix, completion matrix and transportation solver.
// The stochastic stream restarts from the configured seed on every call, so
// warm and cold runs of the same edited instance follow the same trajectory.
// Like every Refiner it never returns start itself, not even from its
// anytime exit.
func (s *Session) refine(ctx context.Context, start *core.Assignment) (*core.Assignment, error) {
	cfg := s.cfg.SRA.withDefaults()
	if cfg.TimeBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.TimeBudget)
		defer cancel()
	}
	if !s.pairsValid {
		var err error
		if s.cands != nil {
			err = s.eng.FillProfitSparse(ctx, &s.pairs, engine.ProfitSpec{}, s.cands)
		} else {
			err = s.eng.FillPairScores(ctx, &s.pairs)
		}
		if err != nil {
			// Context exhausted before refinement: anytime semantics.
			return start.Clone(), nil
		}
		s.pairsValid = true
	}
	active := make([]bool, s.in.NumPapers())
	for p := range active {
		active[p] = !s.withdrawn[p]
	}
	s.sraTr.Workers = runtime.GOMAXPROCS(0)
	run := sraRun{
		cfg:           cfg,
		eng:           s.eng,
		pairScore:     s.pairs.Rows(),
		reviewerTotal: pairReviewerTotals(s.pairs.Rows(), active, s.in.NumReviewers(), s.cands),
		active:        active,
		cands:         s.cands,
		fill:          &s.fill,
		tr:            &s.sraTr,
		rng:           rand.New(rand.NewSource(cfg.Seed)),
	}
	return run.refine(ctx, start)
}

// tieBreak returns a deterministic, index-keyed perturbation in [0, 1e-7)
// added to every stage profit cell. Weighted-coverage gains tie exactly and
// systematically (the min() saturates: any reviewer covering a paper's
// remaining need yields the identical capped gain), and tied transportation
// optima are broken by search order — which differs between a cold
// SolveDense and a warm ResolveRows. The perturbation makes the stage
// optimum unique, so warm and cold runs of the same edited instance pick
// identical plans and the session's replay parity is exact rather than
// tie-lucky.
//
// The range is a deliberate compromise between two failure modes. It must
// sit far ABOVE the transport's tightness tolerance (1e-12): the solver
// treats any reduced cost within that tolerance as zero, so a perturbation
// gap that lands below it is invisible and the "unique" optimum decays back
// into search-order ambiguity — warm and cold replays then legitimately pick
// different plans, which the stochastic refinement amplifies into real score
// divergence (observed at the earlier [0, 1e-9) range, where roughly one
// tied pair in 10³ drew an unresolvable gap; at 1e-7 that is one in 10⁵ of
// an already small population). And it must sit BELOW any genuine gain
// difference it could override: real non-tied gains differ at the 1e-2
// scale, so a 1e-7 nudge only ever decides exact ties. The value is
// identical across runs (it depends only on the pair indices).
func tieBreak(p, r int) float64 {
	x := uint64(p+1)*0x9E3779B97F4A7C15 ^ uint64(r+1)*0xC2B2AE3D27D4EB4F
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return 1e-7 * float64(x>>11) / float64(1<<53)
}

// growInts returns s resized to n; contents are unspecified.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
