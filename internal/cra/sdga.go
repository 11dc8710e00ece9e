package cra

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/lap"
)

// StageSolver selects the linear-assignment engine used for each
// Stage-WGRAP sub-problem of SDGA.
type StageSolver int

// Stage solvers.
const (
	// StageFlow solves each stage as a transportation problem with min-cost
	// max-flow; it handles any per-stage workload directly. Default.
	StageFlow StageSolver = iota
	// StageHungarian duplicates every reviewer into ⌈δr/δp⌉ columns and runs
	// the Hungarian algorithm; the classic formulation referenced in
	// Section 4.2. Used by the stage-solver ablation benchmark.
	StageHungarian
)

// SDGA is the Stage Deepening Greedy Algorithm (Algorithm 2): the assignment
// is built in δp stages; at each stage exactly one reviewer is added to every
// paper by solving a linear assignment that maximises the total marginal gain
// (Definition 9 and Lemma 2), with the per-stage reviewer workload capped at
// ⌈δr/δp⌉. SDGA is a (1−1/e)-approximation when δp divides δr and a
// 1/2-approximation otherwise (Theorems 1 and 2).
//
// The per-stage P×R profit matrix is built by the fused gain oracle of
// internal/engine: rows are filled in parallel and the flat backing buffer is
// reused across stages.
type SDGA struct {
	// Solver selects the per-stage linear assignment engine.
	Solver StageSolver
	// Transport selects the transportation solver behind StageFlow:
	// flow.Dijkstra (default) shares one flow.Transport across the δp
	// stages — flat buffers are reused, and the stage-capacity fallback
	// re-solves incrementally with Resolve instead of rebuilding the stage —
	// while flow.Legacy is the SPFA path kept for parity tests and the
	// transport ablation benchmark.
	Transport flow.Solver
	// Shards bounds the goroutines the stage transport uses to load and seed
	// each stage instance, sharded across papers — the same parallel axis the
	// engine's profit-matrix build already exploits. 0 means GOMAXPROCS, 1
	// serial. The assignment is identical for every value (the parallel
	// passes write disjoint per-paper state; everything order-sensitive stays
	// serial), so sharding is on by default.
	Shards int
	// PairBonus optionally adds a modular per-pair term to the marginal gain
	// used by every stage (e.g. reviewer bids, see internal/bids). A modular
	// bonus keeps the overall objective submodular, so the approximation
	// guarantee is preserved for the blended objective. Called concurrently
	// during the matrix build; it must be safe for concurrent use.
	PairBonus func(r, p int) float64
	// GainWeight scales the coverage part of the marginal gain when a
	// PairBonus is supplied (0 means 1, i.e. plain coverage).
	GainWeight float64
	// CandidateCap, when positive, restricts every stage to the top-k
	// candidate reviewers per paper (by approximate coverage score, via the
	// inverted topic index), making the matrix build and each stage solve
	// O(P·k) instead of O(P·R). Papers whose candidates saturate are widened
	// to the full pool by the transport's escape hatch, so feasibility never
	// regresses. 0 keeps the exact dense path. Ignored by StageHungarian and
	// the Legacy transport (kept dense for the ablation baselines).
	CandidateCap int
}

// Name implements Algorithm.
func (SDGA) Name() string { return "SDGA" }

// Assign implements Algorithm.
func (s SDGA) Assign(instance *core.Instance) (*core.Assignment, error) {
	return s.AssignContext(context.Background(), instance)
}

// AssignContext implements Algorithm; cancellation is checked between and
// inside the δp stage solves.
func (s SDGA) AssignContext(ctx context.Context, instance *core.Instance) (*core.Assignment, error) {
	in, err := prepare(instance)
	if err != nil {
		return nil, err
	}
	eng := engine.New(in)
	P := in.NumPapers()
	a := core.NewAssignment(P)
	groupVecs := make([]core.Vector, P)
	for p := range groupVecs {
		groupVecs[p] = make(core.Vector, in.NumTopics())
	}
	rem := make([]int, in.NumReviewers())
	for r := range rem {
		rem[r] = in.Workload
	}
	var m engine.Matrix
	tr := flow.NewTransport()
	tr.Workers = shardWorkers(s.Shards)
	var cands [][]int32
	if k := effectiveCandidateCap(in, s.CandidateCap); k > 0 && s.Solver != StageHungarian && s.Transport != flow.Legacy {
		cands = buildCandidates(in, k, shardWorkers(s.Shards))
	}
	perStage := make([][]int, 0, in.GroupSize)
	for stage := 0; stage < in.GroupSize; stage++ {
		perPaper, err := s.runStage(ctx, eng, a, groupVecs, rem, &m, tr, cands)
		if err != nil {
			if b := stageBackOff(ctx, err, eng, perStage, nil, cands, s.bonus(), s.GainWeight, shardWorkers(s.Shards)); b != nil {
				return b, nil
			}
			return nil, fmt.Errorf("cra: SDGA stage %d: %w", stage+1, err)
		}
		perStage = append(perStage, perPaper)
	}
	return a, nil
}

// bonus adapts PairBonus to the engine's (paper, reviewer) argument order;
// nil without one.
func (s SDGA) bonus() func(p, r int) float64 {
	if s.PairBonus == nil {
		return nil
	}
	return func(p, r int) float64 { return s.PairBonus(r, p) }
}

// runStage solves one Stage-WGRAP sub-problem, applies its assignment and
// returns the reviewer it gave each paper. tr is the transportation solver
// shared across all stages of one assignment; cands, when non-nil, holds the
// per-paper candidate reviewers of the sparse solve path.
func (s SDGA) runStage(ctx context.Context, eng *engine.Oracle, a *core.Assignment, groupVecs []core.Vector, rem []int, m *engine.Matrix, tr *flow.Transport, cands [][]int32) ([]int, error) {
	in := eng.Instance()
	P, R := in.NumPapers(), in.NumReviewers()
	stageCap := in.StageWorkload()

	// Per-stage capacity: at most ⌈δr/δp⌉ new papers per reviewer this stage,
	// and never beyond the reviewer's remaining global workload.
	buildCaps := func(perStage int) []int {
		caps := make([]int, R)
		for r := 0; r < R; r++ {
			c := perStage
			if rem[r] < c {
				c = rem[r]
			}
			if c < 0 {
				c = 0
			}
			caps[r] = c
		}
		return caps
	}

	bonus := s.bonus()

	solveStage := func(caps []int) ([]int, error) {
		// Profit matrix: marginal gain of adding reviewer r to paper p's
		// group, built in parallel into the stage-shared flat matrix (only
		// the candidate cells in sparse mode).
		spec := engine.ProfitSpec{
			GroupVecs: groupVecs,
			Forbidden: func(p, r int) bool {
				return caps[r] == 0 || a.Contains(p, r) || in.IsConflict(r, p)
			},
			ForbiddenValue: flow.Forbidden,
			Bonus:          bonus,
			GainWeight:     s.GainWeight,
		}
		if cands != nil && s.Solver != StageHungarian && s.Transport != flow.Legacy {
			if err := eng.FillProfitSparse(ctx, m, spec, cands); err != nil {
				return nil, err
			}
			need := make([]int, P)
			for p := range need {
				need[p] = 1
			}
			// The escape hatch densifies a paper whose candidates all
			// saturate; the callback stays valid through the fallback Resolve
			// because the forbidden set is capacity-identical there (caps[r]
			// and rem[r] zero together).
			tr.DenseRow = func(i int, buf []float64) []float64 {
				eng.FillRowInto(buf, i, spec)
				return buf
			}
			rows, _, err := tr.SolveSparse(m.Rows(), cands, R, need, caps)
			if err != nil {
				return nil, err
			}
			return perPaperColumns(rows), nil
		}
		if err := eng.FillProfit(ctx, m, spec); err != nil {
			return nil, err
		}
		profit := m.Rows()
		switch s.Solver {
		case StageHungarian:
			return stageHungarian(profit, caps)
		default:
			need := make([]int, P)
			for p := range need {
				need[p] = 1
			}
			var rows [][]int
			var err error
			if s.Transport == flow.Legacy {
				rows, _, err = flow.MaxProfitTransportWith(flow.Legacy, profit, need, caps)
			} else {
				rows, _, err = tr.Solve(profit, need, caps)
			}
			if err != nil {
				return nil, err
			}
			return perPaperColumns(rows), nil
		}
	}

	perPaper, err := solveStage(buildCaps(stageCap))
	if err != nil && ctx.Err() == nil && in.Workload > stageCap {
		if stageFallbackHook != nil {
			stageFallbackHook()
		}
		// The equal per-stage partition of Definition 9 can be infeasible in
		// the general (non-integral) case or in tail stages with conflicts;
		// fall back to the reviewers' full remaining workload, which keeps
		// the overall assignment feasible whenever one exists stage-wise.
		if s.Solver != StageHungarian && s.Transport != flow.Legacy {
			// Incremental re-solve: the profit matrix is unchanged — a
			// reviewer is forbidden exactly when rem[r] == 0, which zeroes
			// both capacity vectors identically — so only the column
			// capacities grew and the Transport can warm-start from the
			// partial flow of the failed tight-capacity solve instead of
			// refilling the P×R matrix and solving from scratch.
			var rows [][]int
			rows, _, err = tr.Resolve(buildCaps(in.Workload))
			if err == nil {
				perPaper = perPaperColumns(rows)
			}
		} else {
			perPaper, err = solveStage(buildCaps(in.Workload))
		}
	}
	if err != nil {
		return nil, err
	}

	for p, r := range perPaper {
		a.Assign(p, r)
		groupVecs[p].MaxInPlace(in.Reviewers[r].Topics)
		rem[r]--
	}
	return perPaper, nil
}

// shardWorkers resolves a Shards setting: 0 means one worker per available
// CPU, anything below 1 is serial.
func shardWorkers(n int) int {
	if n == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		return 1
	}
	return n
}

// stageFallbackHook, when non-nil, is invoked whenever a stage falls back to
// the reviewers' full remaining workload; tests use it to assert the fallback
// (and its incremental Resolve) is actually exercised.
var stageFallbackHook func()

// perPaperColumns flattens a unit-demand transportation plan (one column per
// row) into the per-paper reviewer slice.
func perPaperColumns(rows [][]int) []int {
	perPaper := make([]int, len(rows))
	for p, cols := range rows {
		perPaper[p] = cols[0]
	}
	return perPaper
}

// stageHungarian expands each reviewer into caps[r] identical columns and
// solves the resulting rectangular assignment with the Hungarian algorithm.
func stageHungarian(profit [][]float64, caps []int) ([]int, error) {
	P := len(profit)
	// Column expansion.
	var colOwner []int
	for r, c := range caps {
		for k := 0; k < c; k++ {
			colOwner = append(colOwner, r)
		}
	}
	if len(colOwner) < P {
		return nil, flow.ErrInfeasible
	}
	expanded := make([][]float64, P)
	for p := 0; p < P; p++ {
		expanded[p] = make([]float64, len(colOwner))
		for j, r := range colOwner {
			v := profit[p][r]
			if v == flow.Forbidden {
				expanded[p][j] = lap.Forbidden
			} else {
				expanded[p][j] = v
			}
		}
	}
	rows, _, err := lap.MaximizeRect(expanded)
	if err != nil {
		return nil, err
	}
	out := make([]int, P)
	for p, j := range rows {
		out[p] = colOwner[j]
	}
	return out, nil
}
