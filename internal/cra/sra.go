package cra

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flow"
)

// ProbabilityModel selects how the stochastic refinement estimates the
// probability P(r|p) that pair (r, p) belongs to the optimal assignment.
type ProbabilityModel int

// Probability models (Section 4.4).
const (
	// ProbCoverageDecay is Equation 10: coverage-based with an exponential
	// decay towards the uniform floor 1/R as refinement iterations pass.
	// Default.
	ProbCoverageDecay ProbabilityModel = iota
	// ProbCoverage is Equation 9: coverage-based, no decay.
	ProbCoverage
	// ProbUniform treats all reviewers as equally likely (the strawman
	// discussed before Equation 9).
	ProbUniform
)

// SRA is the Stochastic Refinement Algorithm of Section 4.4 (Algorithm 3).
// Starting from an existing assignment (typically produced by SDGA) it
// repeatedly removes one reviewer from every paper — reviewers with a low
// estimated probability of belonging to the optimal assignment are removed
// preferentially — and re-completes the assignment with one Stage-WGRAP
// linear assignment. The best assignment seen is retained, so refinement
// never lowers the coverage score. The process stops when the score has not
// improved for Omega consecutive rounds, when MaxRounds is reached, or when
// the context passed to RefineContext is done (TimeBudget is folded into the
// context deadline), always returning the best assignment found.
//
// Each call refines on a throwaway Session over a clone of the instance, so
// RefineContext runs the session's refinement: the probability model's
// reviewer totals come from one O(P·R) pair-score fill through the parallel
// gain oracle, the per-round completion refills the session's one profit
// matrix and re-solves one transportation solver that lives for the
// refinement, and per-paper scores are re-evaluated only for papers whose
// group actually changed in the round (delta re-scoring: a round that
// removes and re-adds the same reviewer leaves the cached score untouched).
// A Solver refining its own construction follows the identical trajectory
// for the same settings.
type SRA struct {
	// Omega is the convergence threshold ω (default 10, the paper's setting).
	Omega int
	// MaxRounds caps the number of refinement rounds (default 1000).
	MaxRounds int
	// TimeBudget optionally bounds the wall-clock refinement time (0 =
	// none). It is equivalent to calling RefineContext with a deadline of
	// now+TimeBudget; when both are set the earlier deadline wins.
	TimeBudget time.Duration
	// Model selects the probability model (default Equation 10).
	Model ProbabilityModel
	// Seed makes the stochastic process reproducible (default 1).
	Seed int64
	// OnRound, when set, is called after every refinement round with the
	// 1-based round number, the best score so far and the elapsed time; the
	// refinement-progress experiment (Figure 12) uses it to record a trace.
	OnRound func(round int, bestScore float64, elapsed time.Duration)
	// OnImprovement, when set, is called whenever a round improves the best
	// score, with a private copy of the new best assignment; solver sessions
	// use it to stream anytime progress.
	OnImprovement func(round int, best *core.Assignment, score float64, elapsed time.Duration)
}

// Name implements Refiner.
func (SRA) Name() string { return "SRA" }

func (s SRA) withDefaults() SRA {
	if s.Omega <= 0 {
		s.Omega = 10
	}
	if s.MaxRounds <= 0 {
		s.MaxRounds = 1000
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Refine implements Refiner.
func (s SRA) Refine(instance *core.Instance, start *core.Assignment) (*core.Assignment, error) {
	return s.RefineContext(context.Background(), instance, start)
}

// RefineContext implements Refiner. Refinement is an anytime process: when
// ctx is cancelled or its deadline (or TimeBudget) expires, the best
// assignment found so far is returned with a nil error.
func (s SRA) RefineContext(ctx context.Context, instance *core.Instance, start *core.Assignment) (*core.Assignment, error) {
	in, err := prepare(instance)
	if err != nil {
		return nil, err
	}
	if err := in.ValidateAssignment(start); err != nil {
		return nil, err
	}
	sess, err := NewSession(in.Clone(), SessionConfig{Refine: true, SRA: s})
	if err != nil {
		return nil, err
	}
	return sess.refine(ctx, start)
}

// pairReviewerTotals sums each reviewer's pair scores over the active papers
// (the denominator of Equation 9), reading a pair-score fill: row p holds
// one cell per reviewer, or, with non-nil cands, one cell per entry of
// cands[p], so totals run over candidate pairs only — the truncated pairs
// carry exactly the score mass the pruning already deemed negligible. The
// caller sums them before anything overwrites the fill. Non-finite scores (a
// custom ScoreFunc gone wrong) are skipped so one bad cell cannot poison a
// reviewer's whole denominator with NaN — the probability model then
// degrades to the uniform floor for that reviewer instead of producing a
// zero-mass removal distribution.
func pairReviewerTotals(pairScore [][]float64, active []bool, R int, cands [][]int32) []float64 {
	totals := make([]float64, R)
	for p := range pairScore {
		if !active[p] {
			continue
		}
		for x, c := range pairScore[p] {
			if math.IsInf(c, 0) || math.IsNaN(c) {
				continue
			}
			r := x
			if cands != nil {
				r = int(cands[p][x])
			}
			totals[r] += c
		}
	}
	return totals
}

// sraRun is one configured execution of the refinement loop over a
// session's gain oracle and profit matrix, with a completion transport of its
// own that lives as long as the run (see Session.refine).
type sraRun struct {
	cfg           SRA // defaults already applied
	eng           *engine.Oracle
	reviewerTotal []float64
	// active masks the papers that participate; withdrawn papers keep empty
	// groups and are never touched by removal or completion.
	active []bool
	// cands, when non-nil, holds the per-paper candidate lists of the sparse
	// mode, over which the completion fills and solves.
	cands [][]int32
	fill  *engine.Matrix
	tr    flow.Transport
	rng   *rand.Rand
	// pairs[p] caches the pair scores of paper p that the removal model has
	// read in this refinement, each computed the first time a round prices
	// the pair (see pairScore).
	pairs [][]cachedPair
}

// cachedPair is one pair score of sraRun.pairs: reviewer r's on the paper.
type cachedPair struct {
	r int32
	s float64
}

// newPairCache returns an empty sraRun.pairs for P papers. One backing
// array gives every paper room for twice its group, so the cache rarely
// allocates after this.
func newPairCache(P, groupSize int) [][]cachedPair {
	pairs := make([][]cachedPair, P)
	room := 2 * groupSize
	backing := make([]cachedPair, P*room)
	for p := range pairs {
		pairs[p] = backing[p*room : p*room : (p+1)*room]
	}
	return pairs
}

// pairScore returns the oracle's pair score of (r, p), computing it only
// the first time the refinement asks. A group holds few reviewers over a
// refinement, so the scan of p's cached pairs stays short.
func (run *sraRun) pairScore(r, p int) float64 {
	for _, c := range run.pairs[p] {
		if int(c.r) == r {
			return c.s
		}
	}
	sc := run.eng.PairScore(r, p)
	run.pairs[p] = append(run.pairs[p], cachedPair{r: int32(r), s: sc})
	return sc
}

// lambda is the decay rate λ of Equation 10.
const lambda = 0.1

// prob returns P(r|p) under the run's probability model. Every pair is
// priced with the oracle's exact pair score (through the refinement's cache,
// pairScore), bit for bit what a pair-score fill writes, so an assigned pair
// outside a paper's candidates, which a densified stage or completion can
// produce, is priced correctly rather than as zero.
func (run *sraRun) prob(r, p int, iteration int) float64 {
	R := len(run.reviewerTotal)
	switch run.cfg.Model {
	case ProbUniform:
		return 1 / float64(R)
	case ProbCoverage:
		if run.reviewerTotal[r] == 0 {
			return 1 / float64(R)
		}
		return run.pairScore(r, p) / run.reviewerTotal[r]
	default: // ProbCoverageDecay, Equation 10
		base := 0.0
		if run.reviewerTotal[r] > 0 {
			base = run.pairScore(r, p) / run.reviewerTotal[r]
		}
		v := math.Exp(-lambda*float64(iteration)) * base
		if floor := 1 / float64(R); v < floor {
			v = floor
		}
		return v
	}
}

// refine runs the refinement loop from start and returns the best assignment
// found (anytime: never worse than start, nil error on context expiry).
func (run *sraRun) refine(ctx context.Context, start *core.Assignment) (*core.Assignment, error) {
	in := run.eng.Instance()
	s := run.cfg
	P := in.NumPapers()

	best := start.Clone()
	current := start.Clone()
	// trial is the round's scratch assignment: re-derived from current by
	// CloneInto every round (no per-round allocation) and swapped into
	// current's place when the round completes.
	trial := start.Clone()
	// Per-paper scores of the current assignment, kept incrementally; the
	// trial scores double-buffer them the same way the assignments do.
	currentScores := run.eng.PaperScores(current)
	trialScores := append([]float64(nil), currentScores...)
	bestScore := sum(currentScores)
	stale := 0
	startTime := time.Now()

	// Remaining reviewer capacity of current, maintained incrementally across
	// rounds: removals free a slot, completions take one back, and a failed
	// completion reverts its removals — so the O(P·δp + R) rebuild happens
	// once, not per round.
	rem := remainingCapacity(in, current)
	victims := make([]int, P)
	comp := newCompletion(P)
	weights := make([]float64, in.GroupSize)

	for iter := 1; iter <= s.MaxRounds && stale < s.Omega; iter++ {
		if ctx.Err() != nil {
			break
		}
		// Removal phase: drop one reviewer from every paper, preferring pairs
		// with a low probability of being "correct".
		current.CloneInto(trial)
		for p := 0; p < P; p++ {
			victims[p] = -1
			if !run.active[p] {
				continue
			}
			g := trial.Groups[p]
			if len(g) == 0 {
				continue
			}
			w := weights[:0]
			for _, r := range g {
				wi := 1 - run.prob(r, p, iter)
				if wi < 0 {
					wi = 0
				}
				w = append(w, wi)
			}
			victim := g[categorical(run.rng, w)]
			trial.Remove(p, victim)
			rem[victim]++
			victims[p] = victim
		}
		// Completion phase: one Stage-WGRAP linear assignment adds a reviewer
		// back to every paper (Figure 8(c)). The completion re-fills profit
		// rows and re-solves the transport only for papers whose post-removal
		// group actually changed since the previous round (see complete).
		added, err := run.complete(ctx, comp, trial, rem)
		if err != nil {
			// Whatever failed, the completion applied nothing: revert the
			// removal phase's capacity releases so rem describes current again.
			for p := 0; p < P; p++ {
				if victims[p] >= 0 {
					rem[victims[p]]--
				}
			}
			if ctx.Err() != nil {
				break
			}
			// The stochastic removal produced an infeasible completion
			// (possible with many conflicts); skip this round.
			stale++
			continue
		}
		// Delta re-scoring: only papers whose group changed need a fresh
		// group-score evaluation; a paper that got its removed reviewer back
		// keeps its cached score.
		copy(trialScores, currentScores)
		for p := 0; p < P; p++ {
			if len(added[p]) == 1 && added[p][0] == victims[p] {
				continue
			}
			if len(added[p]) == 0 && victims[p] == -1 {
				continue
			}
			trialScores[p] = run.eng.GroupScore(p, trial.Groups[p])
		}
		score := sum(trialScores)
		if score > bestScore+1e-12 {
			bestScore = score
			best = trial.Clone()
			stale = 0
			if s.OnImprovement != nil {
				s.OnImprovement(iter, best.Clone(), bestScore, time.Since(startTime))
			}
		} else {
			stale++
		}
		// Continue refining from the trial even if it did not improve: the
		// stochastic walk may escape local maxima; the best is kept separately.
		// Swapping (not assigning) keeps the other buffer alive as the next
		// round's scratch; rem already describes the new current.
		current, trial = trial, current
		currentScores, trialScores = trialScores, currentScores
		if s.OnRound != nil {
			s.OnRound(iter, bestScore, time.Since(startTime))
		}
	}
	return best, nil
}

// completion is the retained state of the per-round Stage-WGRAP completion:
// the profit matrix contents are described row-by-row by the post-removal
// group (sorted) and open-slot count that were last written into them, so a
// round only re-fills the rows — and only releases the transport flow — of
// papers whose removal actually changed something. In the common case where
// a round removes and re-adds the same reviewer for most papers, the bulk of
// the O(P·R·T) matrix rebuild and of the transport re-solve disappears.
type completion struct {
	started bool
	// prev[p] is the sorted post-removal group currently encoded in profit
	// row p; need[p] the open-slot count; groupVecs[p] the matching group
	// expertise vector.
	prev      [][]int32
	need      []int
	groupVecs []core.Vector
	scratch   []int32
	dirty     []int
}

func newCompletion(papers int) *completion {
	return &completion{
		prev:      make([][]int32, papers),
		need:      make([]int, papers),
		groupVecs: make([]core.Vector, papers),
	}
}

// complete adds one reviewer back to every open slot of trial with a single
// maximum-profit transportation solve (Figure 8(c)), warm: profit rows are
// re-filled via engine.FillProfitRows and the transport re-solved via
// flow.Transport.ResolveRows for the dirty papers only. Reviewer capacity
// lives exclusively in the transport's column capacities (rem), never in the
// profit cells, which is what keeps clean rows byte-identical across rounds.
// On success the added reviewers are applied to trial and rem; on
// flow.ErrInfeasible the matrix and transport keep this round's instance (the
// next round diffs against it); on any other error the state is marked cold
// so the next round rebuilds from scratch.
func (run *sraRun) complete(ctx context.Context, c *completion, trial *core.Assignment, rem []int) ([][]int, error) {
	in := run.eng.Instance()
	P := in.NumPapers()
	c.dirty = c.dirty[:0]
	for p := 0; p < P; p++ {
		need := 0
		if run.active[p] {
			need = in.GroupSize - len(trial.Groups[p])
			if need < 0 {
				need = 0
			}
		}
		g := trial.Groups[p]
		key := c.scratch[:0]
		for _, r := range g {
			key = append(key, int32(r))
		}
		c.scratch = key
		slices.Sort(key)
		if c.started && need == c.need[p] && slices.Equal(key, c.prev[p]) {
			continue
		}
		c.need[p] = need
		c.prev[p] = append(c.prev[p][:0], key...)
		c.dirty = append(c.dirty, p)
		if c.groupVecs[p] == nil {
			c.groupVecs[p] = make(core.Vector, in.NumTopics())
		}
		gv := c.groupVecs[p]
		clear(gv)
		for _, r := range g {
			gv.MaxInPlace(in.Reviewers[r].Topics)
		}
	}
	spec := engine.ProfitSpec{
		GroupVecs:      c.groupVecs,
		ForbiddenCols:  forbidGroups(in, trial, func(p int) bool { return c.need[p] != 0 }, nil),
		ForbiddenValue: flow.Forbidden,
	}
	rows, err := fillSolve(ctx, run.eng, run.fill, &run.tr, spec, run.cands, c.started, c.dirty, c.need, rem)
	// After a solve that failed only for infeasibility, the edit-stable CSR
	// and the partial flow stay loaded, and the next round can re-solve
	// incrementally from them. Any other failure may leave rows half
	// re-filled, so the next round rebuilds cold.
	c.started = err == nil || errors.Is(err, flow.ErrInfeasible)
	if err != nil {
		return nil, err
	}
	for p, cols := range rows {
		for _, r := range cols {
			trial.Assign(p, r)
			rem[r]--
		}
	}
	return rows, nil
}

// sum adds up a score slice.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// zeroMassEps is the weight mass under which the removal distribution counts
// as degenerate: weights are complements of probabilities in [0, 1], so a
// legitimate total sits at O(1) and anything at rounding-noise scale means
// every group member was estimated as near-certainly "correct".
const zeroMassEps = 1e-12

// categorical draws an index proportionally to the weights. Non-finite
// weights are treated as zero, and when the whole distribution is degenerate
// (total mass below zeroMassEps — e.g. every pair's membership probability
// saturated at 1) it falls back deterministically to the largest weight,
// ties broken by the lowest index, instead of sampling from a zero-mass
// distribution; the random stream is not consumed in that case, so the
// fallback is reproducible regardless of how the weights underflowed.
func categorical(rng *rand.Rand, weights []float64) int {
	total := 0.0
	argmax := 0
	for i, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			continue
		}
		total += w
		if w > weights[argmax] || math.IsNaN(weights[argmax]) || math.IsInf(weights[argmax], 0) || weights[argmax] < 0 {
			argmax = i
		}
	}
	if total <= zeroMassEps || math.IsNaN(total) {
		return argmax
	}
	u := rng.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	// Rounding fell through the whole accumulation (u landed within an ulp of
	// total): return the largest valid weight, never a sanitized-away index.
	return argmax
}
