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
// cell is the marginal gain of Definition 9 plus engine.TieBreak.
// The session runs every transport and the candidate build on
// runtime.GOMAXPROCS(0) workers; the solved assignment is identical for
// every worker count.
type SessionConfig struct {
	// Baseline, when set, replaces SDGA as the construction: every run
	// executes this algorithm cold on the active papers, with withdrawn
	// papers compacted away and given empty groups. Refine and CandidateCap
	// do not apply to it.
	Baseline Algorithm
	// Refine runs the stochastic refinement after SDGA (the paper's SDGA-SRA
	// pipeline). Off = construction only.
	Refine bool
	// SRA parameterises the refinement (defaults are applied internally:
	// Omega 10, MaxRounds 1000, Seed 1).
	SRA SRA
	// CandidateCap, when positive, restricts every stage and every
	// refinement completion to the top-k candidate reviewers per paper — the
	// sparse solve path, see SDGA.CandidateCap — and the refinement's
	// reviewer totals (the denominators of Equation 9) to those pairs. The
	// removal model prices every assigned pair, inside a paper's candidates
	// or not, with the oracle's exact pair score, so the refinement degrades
	// only by the candidate truncation itself. Candidate lists depend only
	// on topic vectors, so they survive every session edit except reviewer
	// additions (a structural rebuild recomputes them). 0 keeps the exact
	// dense path.
	CandidateCap int
	// OnConstruct, when set, receives a private copy of the construction
	// (SDGA or Baseline) assignment of every run, before refinement starts.
	OnConstruct func(a *core.Assignment)
}

// Session is a long-lived solver bound to one instance: SDGA(-SRA), or the
// configured Baseline algorithm. It owns every piece of reusable hot state —
// the gain oracle, one transportation solver per SDGA stage and one profit
// matrix that every fill writes into — and supports incremental instance
// edits followed by warm re-solves:
//
//   - Solve computes the assignment from scratch (and records per-stage
//     state);
//   - Apply judges an edit by the one rule set, EditState.Check, then edits
//     the instance and marks the affected state dirty; the five mutators
//     (AddConflict, WithdrawPaper, RestorePaper, AddReviewer, SetWorkload)
//     are Apply with one op each;
//   - Resolve re-solves warm: profit rows are re-filled only for dirty
//     papers, each stage's transportation re-solves through
//     Transport.ResolveRows from the retained flow and duals, and papers
//     whose stage choice drifts are propagated as dirty into later stages.
//
// Resolve replays the exact solve pipeline (same stage structure, same
// refinement seed), so on instances whose stage optima are unique — true
// with probability one for continuous random scores — it returns the same
// assignment a cold Solve of the edited instance would, only faster. A
// Baseline re-runs cold on Resolve, and like SDGA only after an edit that
// changed the instance.
//
// A Session is not safe for concurrent use; callers serialise access (the
// public wgrap.Solver wraps it in a mutex).
type Session struct {
	in  *core.Instance // owned by the session
	eng *engine.Oracle
	cfg SessionConfig

	// edits is the state the edit rules read; Apply advances it with the
	// instance.
	edits EditState

	dirty      map[int]struct{}
	structural bool // dimensions or large-scale state changed: rebuild everything
	capsDirty  bool // only capacities changed (workload edit)
	version    uint64

	stages []*sessionStage

	// buf is the one profit matrix of the session: every stage fill, every
	// refinement completion round and the refinement's pair-score fill write
	// into it. One is enough because a transport copies every cell it loads,
	// so buf holds nothing a later call reads, and a warm call refills its
	// dirty rows before its transport reads them. Every fill uses cands, so
	// a warm refill always finds the layout it needs.
	buf engine.Matrix

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
		edits:      NewEditState(in, nil),
		dirty:      make(map[int]struct{}),
		structural: true,
		version:    in.Version(),
	}
	// Conflict saturation is not part of core.Validate (it is a solver-level
	// concern): detect it here so sessions fail with a typed error up front
	// instead of a late transport infeasibility.
	if p := s.edits.saturated(); p >= 0 {
		return nil, fmt.Errorf("%w (paper %d)", ErrConflictSaturated, p)
	}
	return s, nil
}

// Instance returns the session's instance. Callers must treat it as
// read-only; edits go through the session mutators.
func (s *Session) Instance() *core.Instance { return s.in }

// Active reports whether paper p participates in the assignment (i.e. has
// not been withdrawn).
func (s *Session) Active(p int) bool { return s.edits.Active(p) }

// ActivePapers returns the number of non-withdrawn papers.
func (s *Session) ActivePapers() int { return s.edits.ActivePapers() }

// EditState returns a deep copy of the state the session judges edits by.
func (s *Session) EditState() EditState { return s.edits.Clone() }

// Apply judges e by EditState.Check, then applies it: it advances the edit
// state, edits the instance and marks what the edit dirtied for the next
// Resolve. It returns the new reviewer's index for OpAddReviewer and -1
// otherwise. An edit that changes nothing is accepted and marks nothing.
func (s *Session) Apply(e Edit) (int, error) {
	if err := s.edits.Check(&e); err != nil {
		return -1, err
	}
	if !s.edits.Apply(&e) {
		return -1, nil
	}
	switch e.Op {
	case OpAddConflict:
		s.in.AddConflict(e.R, e.P)
		s.dirty[e.P] = struct{}{}
		s.version = s.in.Version()
	case OpWithdrawPaper, OpRestorePaper:
		s.dirty[e.P] = struct{}{}
	case OpAddReviewer:
		// Every profit matrix gains a column: the next Resolve rebuilds the
		// warm state from scratch.
		idx := s.in.AddReviewer(e.Reviewer)
		s.structural = true
		s.version = s.in.Version()
		return idx, nil
	case OpSetWorkload:
		// Gains do not depend on δr: only the capacities are reworked.
		s.in.Workload = e.Workload
		s.capsDirty = true
	}
	return -1, nil
}

// AddConflict registers a conflict of interest between reviewer r and paper
// p (Apply with OpAddConflict).
func (s *Session) AddConflict(r, p int) error {
	_, err := s.Apply(Edit{Op: OpAddConflict, R: r, P: p})
	return err
}

// WithdrawPaper removes paper p from the workload: it keeps its index but
// receives no reviewers until restored (Apply with OpWithdrawPaper).
func (s *Session) WithdrawPaper(p int) error {
	_, err := s.Apply(Edit{Op: OpWithdrawPaper, P: p})
	return err
}

// RestorePaper re-activates a withdrawn paper (Apply with OpRestorePaper).
func (s *Session) RestorePaper(p int) error {
	_, err := s.Apply(Edit{Op: OpRestorePaper, P: p})
	return err
}

// AddReviewer appends a reviewer to the pool and returns its index (Apply
// with OpAddReviewer).
func (s *Session) AddReviewer(r core.Reviewer) (int, error) {
	return s.Apply(Edit{Op: OpAddReviewer, Reviewer: r})
}

// SetWorkload changes the per-reviewer workload δr (Apply with
// OpSetWorkload).
func (s *Session) SetWorkload(workload int) error {
	_, err := s.Apply(Edit{Op: OpSetWorkload, Workload: workload})
	return err
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

func (s *Session) resolve(ctx context.Context) (*core.Assignment, error) {
	in := s.in
	if s.version != in.Version() {
		// The instance drifted outside the session mutators (defensive: the
		// session owns its instance, but a stale warm state would silently
		// corrupt results, so invalidate everything). Checked before the
		// no-edit fast path — out-of-band edits must never confirm a stale
		// assignment.
		s.structural = true
		s.version = in.Version()
		s.edits = NewEditState(in, s.edits.withdrawn)
	}
	// Conflict saturation can only arise here through drift (Apply rejects
	// saturating edits up front), but an active paper with fewer than δp
	// eligible reviewers would otherwise surface as a generic transport
	// infeasibility in whichever stage first runs out of candidates — after
	// the earlier stages already ran. Fail fast with the precise typed error
	// instead.
	if p := s.edits.saturated(); p >= 0 {
		return nil, fmt.Errorf("%w (paper %d)", ErrConflictSaturated, p)
	}
	if !s.structural && !s.capsDirty && len(s.dirty) == 0 && s.last != nil {
		// No pending edits: the recorded assignment is still the solution of
		// the current instance (every solve path is deterministic for a
		// fixed seed), so confirm it without re-running anything.
		return s.last.Clone(), nil
	}
	var a *core.Assignment
	var err error
	backedOff := false
	if s.cfg.Baseline != nil {
		a, err = s.baseline(ctx)
	} else {
		a, backedOff, err = s.sdga(ctx)
	}
	if err != nil {
		return nil, err
	}

	if s.cfg.OnConstruct != nil {
		s.cfg.OnConstruct(a.Clone())
	}

	result := a
	if s.cfg.Refine && s.cfg.Baseline == nil {
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

// sdga runs the SDGA construction of a resolve, each stage warm from its
// recorded run when the pending edits allow. It also reports whether the
// stage back-off completed the assignment.
func (s *Session) sdga(ctx context.Context) (*core.Assignment, bool, error) {
	in := s.in
	P, R := in.NumPapers(), in.NumReviewers()
	if s.stages == nil {
		s.stages = make([]*sessionStage, in.GroupSize)
		for i := range s.stages {
			s.stages[i] = &sessionStage{}
		}
	}
	structural := s.structural || s.last == nil
	if structural {
		// Candidate lists depend on the topic vectors and the pool size, both
		// of which only change through structural edits.
		if k := effectiveCandidateCap(in, s.cfg.CandidateCap); k > 0 {
			s.cands = buildCandidates(in, k, runtime.GOMAXPROCS(0))
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
		if s.edits.withdrawn[p] {
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
			if b := stageBackOff(ctx, err, s.eng, perStage, s.edits.withdrawn, s.cands, true); b != nil {
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
			return nil, false, fmt.Errorf("cra: session stage %d: %w", stage+1, err)
		}
	}
	return a, backedOff, nil
}

// baseline runs the Baseline algorithm cold on the active papers: on the
// instance itself when no paper is withdrawn, and otherwise on a compacted
// instance of the active papers, with the conflicts remapped and the groups
// copied back to the original paper indices. With every paper withdrawn the
// assignment is empty, as for SDGA.
func (s *Session) baseline(ctx context.Context) (*core.Assignment, error) {
	in := s.in
	P := in.NumPapers()
	switch s.edits.ActivePapers() {
	case P:
		return s.cfg.Baseline.AssignContext(ctx, in)
	case 0:
		return core.NewAssignment(P), nil
	}
	sub := &core.Instance{
		Reviewers: in.Reviewers,
		GroupSize: in.GroupSize,
		Workload:  in.Workload,
		Score:     in.Score,
	}
	idx := make([]int, 0, s.edits.ActivePapers())
	back := make(map[int]int, s.edits.ActivePapers())
	for p := 0; p < P; p++ {
		if s.edits.Active(p) {
			back[p] = len(idx)
			idx = append(idx, p)
			sub.Papers = append(sub.Papers, in.Papers[p])
		}
	}
	for _, c := range in.Conflicts() {
		if np, ok := back[c.Paper]; ok {
			sub.AddConflict(c.Reviewer, np)
		}
	}
	compact, err := s.cfg.Baseline.AssignContext(ctx, sub)
	if err != nil {
		return nil, err
	}
	full := core.NewAssignment(P)
	for np, g := range compact.Groups {
		full.Groups[idx[np]] = g
	}
	return full, nil
}

// fillSolve fills the profit matrix m under spec and solves its
// transportation on tr with row demands need and column capacities caps. A
// cold call fills the whole matrix and loads it through FillProfitSparse and
// SolveSparse, over the candidate lists cands, or every reviewer when cands
// is nil. A warm call re-fills only the dirty rows and re-solves through
// ResolveRows from the flow and duals of the preceding solve on tr, which
// reads only those rows: m need only hold some fill over the same cands,
// not the one tr loaded, since tr keeps its own copy of every cell. It is
// the one place that sets tr's worker count, and it points tr.DenseRow at
// spec on every call, since spec's closures read state that is valid only
// within the caller's step: the escape hatch and the warm re-read of
// densified rows need this step's spec.
func fillSolve(ctx context.Context, eng *engine.Oracle, m *engine.Matrix, tr *flow.Transport, spec engine.ProfitSpec,
	cands [][]int32, warm bool, dirty []int, need, caps []int) ([][]int, error) {
	tr.Workers = runtime.GOMAXPROCS(0)
	tr.DenseRow = func(i int, buf []float64) []float64 {
		eng.FillRowInto(buf, i, spec)
		return buf
	}
	var rows [][]int
	var err error
	if warm {
		if err = eng.FillProfitRows(ctx, m, spec, dirty); err == nil {
			rows, _, err = tr.ResolveRows(m.Rows(), dirty, need, caps)
		}
	} else if err = eng.FillProfitSparse(ctx, m, spec, cands); err == nil {
		rows, _, err = tr.SolveSparse(m.Rows(), cands, len(caps), need, caps)
	}
	return rows, err
}

// forbidGroups is the ProfitSpec.ForbiddenCols of a fill over the groups of
// a: row p is forbidden whole unless open(p), and otherwise forbids the
// reviewers of p's group in a, p's conflicts of interest and the columns in
// also.
func forbidGroups(in *core.Instance, a *core.Assignment, open func(p int) bool, also []int) func(int, []int) ([]int, bool) {
	return func(p int, cols []int) ([]int, bool) {
		if !open(p) {
			return cols, true
		}
		cols = append(cols, a.Groups[p]...)
		cols = append(cols, in.PaperConflicts(p)...)
		return append(cols, also...), false
	}
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
	// edits that only shift reviewer loads. The tie-break makes stage
	// optima unique, which is what lets the warm ResolveRows path reproduce
	// a cold solve's plan exactly (see engine.TieBreak).
	spec := engine.ProfitSpec{
		GroupVecs:      s.groupVecs,
		ForbiddenCols:  forbidGroups(in, a, s.edits.Active, nil),
		ForbiddenValue: flow.Forbidden,
		TieBreak:       true,
	}
	rows, err := fillSolve(ctx, s.eng, &s.buf, &st.tr, spec, s.cands, !structural, s.dirtyList, s.need, s.caps)
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
		if s.edits.withdrawn[p] || len(rows[p]) == 0 {
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
// construction of a solve, or the input of SRA.RefineContext). It fills the
// pair scores into the session's buffer and sums them into the reviewer
// totals of Equation 9, then hands the buffer, which the completion rounds
// overwrite, to a refinement loop whose completion transport lives only as
// long as the loop, so a refinement leaves nothing behind in the session.
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
	if err := s.eng.FillProfitSparse(ctx, &s.buf, engine.ProfitSpec{}, s.cands); err != nil {
		// Context exhausted before refinement: anytime semantics.
		return start.Clone(), nil
	}
	active := make([]bool, s.in.NumPapers())
	for p := range active {
		active[p] = !s.edits.withdrawn[p]
	}
	run := sraRun{
		cfg:           cfg,
		eng:           s.eng,
		reviewerTotal: pairReviewerTotals(s.buf.Rows(), active, s.in.NumReviewers(), s.cands),
		active:        active,
		cands:         s.cands,
		fill:          &s.buf,
		rng:           rand.New(rand.NewSource(cfg.Seed)),
	}
	return run.refine(ctx, start)
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
