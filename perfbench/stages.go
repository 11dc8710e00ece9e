package main

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/topics"
)

// stageLoop is a cold SDGA solve assembled in the benchmark from the
// engine, flow and topics layers, so that each layer's share of a cold solve
// can be timed from outside the program. It does the work a session's cold
// solve does, stage by stage and through the same calls, but it is a model
// of the session, not a copy: its tie-break term is its own (see perturb),
// so its plans may differ from the session's wherever gains tie. The traced
// run checks that its assignment is valid and reports how far its objective
// lies from the session's. Like a session, it keeps its oracle, profit
// matrices and transports across solves.
type stageLoop struct {
	in           *core.Instance
	candidateCap int
	eng          *engine.Oracle
	m            []engine.Matrix
	tr           []flow.Transport
}

func newStageLoop(in *core.Instance, candidateCap int) *stageLoop {
	return &stageLoop{
		in: in, candidateCap: candidateCap, eng: engine.New(in),
		m: make([]engine.Matrix, in.GroupSize), tr: make([]flow.Transport, in.GroupSize),
	}
}

// stageCounts are the work counts of one cold solve.
type stageCounts struct {
	cells     int64 // profit cells filled, densified rows included
	densified int   // rows the sparse transport widened to the full pool
	fallbacks int   // stages that fell back to the full remaining workload
}

// solve runs one cold solve. It reports a "topics.candidates" span for the
// candidate lists (which only a candidate cap builds, so without one the
// span times the skipped step), an "engine.fill" span per profit fill and a
// "flow.transport" span per transport solve, with an "engine.densify" span
// inside the transport for every row it widens to the full pool. It returns
// the assignment and the solve's work counts.
func (l *stageLoop) solve(ctx context.Context, span func(name string, t0, t1 time.Time)) (*core.Assignment, stageCounts, error) {
	in, eng := l.in, l.eng
	P, R := in.NumPapers(), in.NumReviewers()
	workers := runtime.GOMAXPROCS(0)
	t0 := time.Now()
	var cands [][]int32
	if k := l.candidateCap; k > 0 && k < R {
		cands = candidateLists(in, max(k, in.GroupSize), workers)
	}
	span("topics.candidates", t0, time.Now())

	groupVecs := make([]core.Vector, P)
	for p := range groupVecs {
		groupVecs[p] = make(core.Vector, in.NumTopics())
	}
	rem := make([]int, R)
	for r := range rem {
		rem[r] = in.Workload
	}
	need := make([]int, P)
	for p := range need {
		need[p] = 1
	}
	caps := make([]int, R)
	a := core.NewAssignment(P)
	var n stageCounts
	for stage := 0; stage < in.GroupSize; stage++ {
		stageCap := in.StageWorkload()
		for r := range caps {
			caps[r] = max(0, min(stageCap, rem[r]))
		}
		spec := engine.ProfitSpec{
			GroupVecs:      groupVecs,
			Forbidden:      func(p, r int) bool { return a.Contains(p, r) || in.IsConflict(r, p) },
			ForbiddenValue: flow.Forbidden,
			Bonus:          perturb,
		}
		m, tr := &l.m[stage], &l.tr[stage]
		tr.Workers = workers
		tr.DenseRow = nil
		if cands != nil {
			// A cold SolveSparse widens rows serially, so the counters need
			// no lock.
			tr.DenseRow = func(i int, buf []float64) []float64 {
				t0 := time.Now()
				eng.FillRowInto(buf, i, spec)
				span("engine.densify", t0, time.Now())
				n.cells += int64(R)
				n.densified++
				return buf
			}
		}
		t0 := time.Now()
		var err error
		if cands != nil {
			err = eng.FillProfitSparse(ctx, m, spec, cands)
			for _, c := range cands {
				n.cells += int64(len(c))
			}
		} else {
			err = eng.FillProfit(ctx, m, spec)
			n.cells += int64(P) * int64(R)
		}
		t1 := time.Now()
		span("engine.fill", t0, t1)
		if err != nil {
			return nil, n, err
		}
		var rows [][]int
		if cands != nil {
			rows, _, err = tr.SolveSparse(m.Rows(), cands, R, need, caps)
		} else {
			rows, _, err = tr.SolveDense(m.Rows(), need, caps)
		}
		if err != nil && in.Workload > stageCap {
			// The equal per-stage partition of the workload can be
			// infeasible; fall back to the reviewers' full remaining
			// workload, as SDGA does.
			for r := range caps {
				caps[r] = max(0, rem[r])
			}
			rows, _, err = tr.Resolve(caps)
			n.fallbacks++
		}
		span("flow.transport", t1, time.Now())
		if err != nil {
			return nil, n, err
		}
		for p, cols := range rows {
			if len(cols) == 0 {
				continue
			}
			r := cols[0]
			a.Assign(p, r)
			groupVecs[p].MaxInPlace(in.Reviewers[r].Topics)
			rem[r]--
		}
	}
	return a, n, nil
}

// perturb is a deterministic per-pair term in [0, 1e-7) added to every
// profit cell so that each stage optimum is unique, as the session makes
// its own. Weighted-coverage gains tie systematically, and a transport over
// tied profits searches far longer: without the term the sparse stage solves
// of cold-sparse took eight times the session's, so the loop would not
// model its work. The term is a splitmix64 hash of the pair, far below any
// real gain difference.
func perturb(p, r int) float64 {
	x := uint64(p)<<32 | uint64(uint32(r))
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	x ^= x >> 31
	return 1e-7 * float64(x>>11) / (1 << 53)
}

// candidateLists builds the per-paper candidate reviewers the sparse path
// solves over: three quarters of each list are the paper's top topical
// reviewers and a quarter strides across the pool. Purely topical lists
// would collapse onto a few popular reviewers and send nearly every row
// through the densify escape hatch, a different and far larger amount of
// work than the session does. Like the session, it shards the papers over
// workers, each with its own scorer, so its time compares with the
// session's.
func candidateLists(in *core.Instance, k, workers int) [][]int32 {
	P, R := in.NumPapers(), in.NumReviewers()
	vecs := make([][]float64, R)
	for r := range vecs {
		vecs[r] = in.Reviewers[r].Topics
	}
	ix := topics.BuildIndex(vecs)
	spread := k / 4
	cands := make([][]int32, P)
	workers = max(1, min(workers, P))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range workers {
		go func(lo, hi int) {
			defer wg.Done()
			sc := ix.NewScorer()
			for p := lo; p < hi; p++ {
				row := sc.TopK(in.Papers[p].Topics, k-spread, make([]int32, 0, k))
				for j := 0; j < spread; j++ {
					r := int32((p*spread + j) % R)
					for slices.Contains(row, r) {
						r = (r + 1) % int32(R)
					}
					row = append(row, r)
				}
				slices.Sort(row)
				cands[p] = row
			}
		}(w*P/workers, (w+1)*P/workers)
	}
	wg.Wait()
	return cands
}
