package engine

import (
	"math"

	"repro/internal/core"
)

// This file holds the residual-topic row kernel of the weighted-coverage
// fills; the package doc gives the algorithm and why it is exact.

// openTopic is one topic of a profit row that the paper's group can still
// raise: p is the paper weight p_t and c = min(g_t, p_t) < p the coverage the
// group already has. Pair-score rows (no group) list every topic.
type openTopic struct {
	t    int
	p, c float64
}

// rowScratch is one fill worker's scratch space: the open topics of the row
// being filled and its forbidden columns (ProfitSpec.ForbiddenCols). Pooled
// on the Oracle so steady-state fills allocate nothing.
type rowScratch struct {
	open   []openTopic
	forbid []int
}

// topicPanel is the topic-major copy of the reviewer pool's expertise
// vectors: data[t*cols+r] is reviewer r's weight on topic t. It is immutable
// once published; a pool that has grown gets a fresh panel.
type topicPanel struct {
	cols int
	data []float64
}

// panelFor returns the panel of the current reviewer pool, rebuilding it when
// reviewers were appended since it was built (core.Instance.AddReviewer).
// Every fill entry point calls it once before handing rows to workers, so the
// rebuild happens at that serial point; the double-checked lock keeps
// concurrent fills from building it twice.
func (o *Oracle) panelFor() *topicPanel {
	R := o.in.NumReviewers()
	if pn := o.panel.Load(); pn != nil && pn.cols == R {
		return pn
	}
	o.panelMu.Lock()
	defer o.panelMu.Unlock()
	if pn := o.panel.Load(); pn != nil && pn.cols == R {
		return pn
	}
	T := o.in.NumTopics()
	pn := &topicPanel{cols: R, data: make([]float64, T*R)}
	for r := range o.in.Reviewers {
		for t, x := range o.in.Reviewers[r].Topics[:T] {
			pn.data[t*R+r] = x
		}
	}
	o.panel.Store(pn)
	return pn
}

// getScratch draws a worker scratch from the oracle's pool.
func (o *Oracle) getScratch() *rowScratch { return o.rowPool.Get().(*rowScratch) }

// openTopics lists the topics of paper p that group vector g can still raise,
// in ascending order, into open (reused). A nil g lists every topic: the row
// then holds pair scores, whose term min(x_t, p_t) is not a clamped
// difference, so no topic can be skipped.
func (o *Oracle) openTopics(open []openTopic, p int, g core.Vector) []openTopic {
	open = open[:0]
	for t, pv := range o.in.Papers[p].Topics {
		var c float64
		if g != nil {
			if c = min(g[t], pv); c >= pv {
				continue
			}
		}
		open = append(open, openTopic{t: t, p: pv, c: c})
	}
	return open
}

// denseRow adds the open topics' terms, in ascending order, to every column
// of a dense row (len(row) <= pn.cols): max(0, min(x_t, p_t) − c_t) for a
// gain row, min(x_t, p_t) for a pair-score row, whose open topics carry
// c_t = 0. vectorStep covers the leading columns; the Go loop covers the
// rest, or the whole row without AVX.
func (pn *topicPanel) denseRow(row []float64, open []openTopic, pair bool) {
	lo := 0.0
	if pair {
		lo = math.Inf(-1)
	}
	for _, ot := range open {
		pt, ct := ot.p, ot.c
		x := pn.data[ot.t*pn.cols:][:len(row)]
		n := vectorStep(row, x, pt, ct, lo)
		tail := row[n:]
		if pair {
			for i, v := range x[n:] {
				tail[i] += min(v, pt)
			}
			continue
		}
		for i, v := range x[n:] {
			tail[i] += max(0, min(v, pt)-ct)
		}
	}
}

// weightedRow fills the weighted-coverage profit cells of row p: one per
// reviewer in the dense layout (len(row) == R), or, when cand is non-nil,
// one per candidate column of the sparse-row layout (len(cand) == len(row)).
// It accumulates the numerators in row over the open topics, then finishes
// every cell in one loop: row[i]/den (0 when den == 0) plus the inlined
// TieBreak when the spec sets it, the same operations in the same order as
// profitCell. A spec with the per-cell Forbidden or Bonus finishes each cell
// through them instead. fillRow forbids the listed cells afterwards.
func (j *fillJob) weightedRow(sc *rowScratch, row []float64, p int, cand []int32) {
	o, pn, spec := j.o, j.pn, &j.spec
	clear(row)
	den := o.paperSum[p]
	if den != 0 {
		var gv core.Vector
		if spec.GroupVecs != nil {
			gv = spec.GroupVecs[p]
		}
		sc.open = o.openTopics(sc.open, p, gv)
		if cand == nil {
			pn.denseRow(row, sc.open, gv == nil)
		} else {
			for _, ot := range sc.open {
				pt, ct := ot.p, ot.c
				base := pn.data[ot.t*pn.cols : (ot.t+1)*pn.cols]
				if gv == nil {
					for i, r := range cand {
						row[i] += min(base[r], pt)
					}
				} else {
					for i, r := range cand {
						row[i] += max(0, min(base[r], pt)-ct)
					}
				}
			}
		}
	}
	if spec.Forbidden != nil || spec.Bonus != nil {
		for i := range row {
			r := i
			if cand != nil {
				r = int(cand[i])
			}
			if spec.Forbidden != nil && spec.Forbidden(p, r) {
				row[i] = spec.ForbiddenValue
				continue
			}
			var gain float64
			if den != 0 {
				gain = row[i] / den
			}
			if spec.TieBreak {
				gain += TieBreak(p, r)
			}
			if spec.Bonus != nil {
				gain += spec.Bonus(p, r)
			}
			row[i] = gain
		}
		return
	}
	d := den
	if d == 0 {
		d = 1 // the row is still clear, and +0/1 is the zero gain
	}
	switch {
	case !spec.TieBreak:
		for i := range row {
			row[i] /= d
		}
	case cand == nil:
		for i := range row {
			row[i] = row[i]/d + TieBreak(p, i)
		}
	default:
		for i, r := range cand {
			row[i] = row[i]/d + TieBreak(p, int(r))
		}
	}
}
