// Package engine is the shared marginal-gain oracle of the assignment
// algorithms. Every conference algorithm (internal/cra) and the journal
// branch-and-bound solver (internal/jra) spend almost all of their time
// evaluating the gain of Definition 8 — the score increase of merging one
// reviewer's expertise vector into a paper's running group vector. The
// generic path in internal/core materialises the merged vector and calls the
// configured ScoreFunc twice per evaluation; at paper scale (P×R profit
// matrices per SDGA stage) that is millions of allocations per stage.
//
// The Oracle removes both costs:
//
//   - It recognises the four scoring functions of the paper (weighted
//     coverage, reviewer coverage, paper coverage, dot-product) and computes
//     the merge gain in one fused, allocation-free pass over the topic
//     vectors, with the per-paper Sum denominators cached up front. Unknown
//     (custom) scoring functions fall back to the generic two-call path with
//     a pooled scratch vector, so correctness never depends on recognition.
//   - It builds flat, row-major profit matrices in parallel with a
//     GOMAXPROCS-sized worker pool and reusable buffers (see Matrix and
//     FillProfitSparse in matrix.go).
//
// # The residual-topic fill
//
// A weighted-coverage profit cell (p, r) is the gain
//
//	Σ_t max(0, min(x_t, p_t) − c_t) / Σ_t p_t,  c_t = min(g_t, p_t),
//
// where x is reviewer r's vector, p the paper's and g its group's. Computed
// one cell at a time, that is a loop-carried sum over all T topics per
// cell. The fills compute it one row at a time instead (kernel.go): they
// list the row's open topics — those with c_t < p_t, which the group can
// still raise — and, for each in ascending order, stream the row's columns
// against a topic-major T×R copy of the reviewer vectors (the panel),
// adding the topic's term into every column's running sum. One call-free
// loop then finishes the row: each cell divided by the paper's denominator,
// plus the inlined TieBreak when the spec sets it. The row's forbidden cells
// are described once per row (ProfitSpec.ForbiddenCols), not asked for per
// cell: a row forbidden whole skips the kernel, and any other row has the
// few columns its description lists overwritten after the loop. A dense
// fill costs O(P·T) to list the open topics plus O(R) per open topic of
// each row; from SDGA's second stage on most of a paper's topics are
// closed.
//
// The row kernel is exact, not an approximation: a closed topic (c_t = p_t)
// contributes max(0, min(x_t, p_t) − p_t) = +0 for every reviewer, a sum
// that starts at +0 and adds only non-negative terms is unchanged by adding
// +0, and the open topics are added in the same ascending order as the
// per-cell sum. So every cell has the same bits as the per-cell value for
// finite weights, and tie-breaks downstream cannot move. (A NaN or ±Inf
// weight breaks the argument, which is one reason core.Instance.Validate and
// the session edit paths reject them.) Pair-score fills (no group vectors)
// use the same kernel with every topic open and the term min(x_t, p_t). The
// other three scores and custom ones fill cell by cell.
//
// On an amd64 CPU with AVX, a dense row's topic term runs eight columns at a
// time in assembly (kernel_amd64.s): max(lo, min(x, p_t) − c) with VMINPD,
// VSUBPD, VMAXPD and VADDPD, where a gain row passes c = c_t and lo = 0 and
// a pair-score row c = 0 and lo = −Inf, which gives exactly min(x, p_t) for
// finite x. The Go loop fills the last len(row) mod 8 columns, and the whole
// row on other CPUs and architectures; the CPU picks the path once, with no
// option to set. Sparse candidate rows gather through candidate ids and stay
// scalar. The vector step keeps every bit. Its lanes run across columns, so
// each cell still adds its open topics in ascending order. VMINPD and
// VMAXPD differ from Go's min and max only on NaN, which is rejected as
// above, and in which zero they return when both operands are ±0. A zero
// term's sign cannot reach a sum: the row starts at +0, a sum that starts
// at +0 never becomes −0, and adding ±0 to any other value leaves it
// unchanged. Negative weights, which Validate accepts, fall under the same
// argument.
//
// An Oracle is read-only with respect to its Instance and safe for
// concurrent use, provided the instance is not mutated during a call.
// Between calls a session may add conflicts (fills see them through the
// row descriptions, which list core.Instance.PaperConflicts) and append
// reviewers (core.Instance.AddReviewer):
// the next fill rebuilds the panel for the grown pool before it hands rows
// to its workers. Changing the scoring function or the paper set after New
// is not supported.
package engine

import (
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// scoreKind identifies a recognised scoring function for the fused paths.
type scoreKind int

const (
	kindGeneric scoreKind = iota
	kindWeighted
	kindReviewer
	kindPaper
	kindDot
)

// classify maps a ScoreFunc to its fused kind by comparing the function's
// code pointer against the four implementations exported by internal/core. A
// nil function means the core default (weighted coverage); anything
// unrecognised gets the generic fallback.
func classify(fn core.ScoreFunc) scoreKind {
	if fn == nil {
		return kindWeighted
	}
	switch reflect.ValueOf(fn).Pointer() {
	case reflect.ValueOf(core.WeightedCoverage).Pointer():
		return kindWeighted
	case reflect.ValueOf(core.ReviewerCoverage).Pointer():
		return kindReviewer
	case reflect.ValueOf(core.PaperCoverage).Pointer():
		return kindPaper
	case reflect.ValueOf(core.DotProduct).Pointer():
		return kindDot
	}
	return kindGeneric
}

// Oracle evaluates scores and marginal gains for one instance.
type Oracle struct {
	in    *core.Instance
	kind  scoreKind
	score core.ScoreFunc
	// paperSum caches the scoring denominator sum_t p[t] of every paper.
	paperSum []float64
	// scratch pools T-dimensional vectors for the generic fallback and for
	// group-vector construction; entries are *core.Vector to keep Get/Put
	// allocation free.
	scratch sync.Pool
	// panel is the topic-major reviewer copy the weighted-coverage fills
	// stream (see kernel.go), built on first use and rebuilt under panelMu
	// when the reviewer pool grows.
	panel   atomic.Pointer[topicPanel]
	panelMu sync.Mutex
	// rowPool pools the fill workers' *rowScratch, jobPool the *fillJob of
	// each fill, so steady-state fills allocate nothing.
	rowPool, jobPool sync.Pool
}

// New builds an oracle for the instance. The instance must not be mutated
// while the oracle is in use.
func New(in *core.Instance) *Oracle {
	o := &Oracle{
		in:       in,
		kind:     classify(in.Score),
		score:    in.ScoreFn(),
		paperSum: make([]float64, in.NumPapers()),
	}
	for p := range in.Papers {
		o.paperSum[p] = in.Papers[p].Topics.Sum()
	}
	t := in.NumTopics()
	o.scratch.New = func() interface{} {
		v := make(core.Vector, t)
		return &v
	}
	o.rowPool.New = func() interface{} { return &rowScratch{open: make([]openTopic, 0, t)} }
	o.jobPool.New = func() interface{} { return new(fillJob) }
	return o
}

// Instance returns the instance the oracle was built for.
func (o *Oracle) Instance() *core.Instance { return o.in }

// Score returns the coverage score of expertise vector g for paper p,
// equivalent to in.ScoreFn()(g, in.Papers[p].Topics) but with the paper
// denominator cached and the recognised functions fused.
func (o *Oracle) Score(g core.Vector, p int) float64 {
	paper := o.in.Papers[p].Topics
	den := o.paperSum[p]
	switch o.kind {
	case kindWeighted:
		if den == 0 {
			return 0
		}
		// Branchless accumulation (builtin float min compiles to two
		// MINSDs plus a POR, to honour NaN and signed zeros): the per-topic
		// branches of the generic path mispredict heavily on real topic
		// vectors.
		num := 0.0
		for t, pv := range paper {
			num += min(g[t], pv)
		}
		return num / den
	case kindReviewer:
		if den == 0 {
			return 0
		}
		num := 0.0
		for t, pv := range paper {
			if gv := g[t]; gv >= pv {
				num += gv
			}
		}
		return num / den
	case kindPaper:
		if den == 0 {
			return 0
		}
		num := 0.0
		for t, pv := range paper {
			if g[t] >= pv {
				num += pv
			}
		}
		return num / den
	case kindDot:
		if den == 0 {
			return 0
		}
		return core.Dot(g, paper) / den
	default:
		return o.score(g, paper)
	}
}

// PairScore returns c(r, p), the score of single reviewer r for paper p.
func (o *Oracle) PairScore(r, p int) float64 {
	return o.Score(o.in.Reviewers[r].Topics, p)
}

// Gain returns the marginal gain of merging reviewer r into group vector g
// for paper p (Definition 8), without modifying or materialising anything.
// For the four recognised scoring functions the gain is accumulated per
// topic in a single pass; only topics where the reviewer raises the group
// expertise contribute.
func (o *Oracle) Gain(p int, g core.Vector, r int) float64 {
	paper := o.in.Papers[p].Topics
	rv := o.in.Reviewers[r].Topics
	den := o.paperSum[p]
	switch o.kind {
	case kindWeighted:
		if den == 0 {
			return 0
		}
		// min distributes over max: min(max(g,x), p) − min(g, p) equals
		// max(0, min(x, p) − min(g, p)), so the whole pass is branchless.
		num := 0.0
		for t, pv := range paper {
			num += max(0, min(rv[t], pv)-min(g[t], pv))
		}
		return num / den
	case kindReviewer:
		if den == 0 {
			return 0
		}
		num := 0.0
		for t, pv := range paper {
			gv, x := g[t], rv[t]
			if x > gv {
				if x >= pv {
					num += x
				}
				if gv >= pv {
					num -= gv
				}
			}
		}
		return num / den
	case kindPaper:
		if den == 0 {
			return 0
		}
		num := 0.0
		for t, pv := range paper {
			gv, x := g[t], rv[t]
			if x > gv && x >= pv && gv < pv {
				num += pv
			}
		}
		return num / den
	case kindDot:
		if den == 0 {
			return 0
		}
		num := 0.0
		for t, pv := range paper {
			num += max(0, rv[t]-g[t]) * pv
		}
		return num / den
	default:
		return o.genericGain(paper, g, rv)
	}
}

// genericGain is the fallback for unrecognised scoring functions: the classic
// two-evaluation difference, with the merged vector drawn from the pool.
func (o *Oracle) genericGain(paper, g, rv core.Vector) float64 {
	vp := o.scratch.Get().(*core.Vector)
	merged := *vp
	copy(merged, g)
	merged.MaxInPlace(rv)
	gain := o.score(merged, paper) - o.score(g, paper)
	o.scratch.Put(vp)
	return gain
}

// GroupScore returns c(g, p) for the group of reviewer indices assigned to
// paper p, building the group vector in pooled scratch space.
func (o *Oracle) GroupScore(p int, group []int) float64 {
	vp := o.scratch.Get().(*core.Vector)
	g := *vp
	for i := range g {
		g[i] = 0
	}
	for _, r := range group {
		g.MaxInPlace(o.in.Reviewers[r].Topics)
	}
	s := o.Score(g, p)
	o.scratch.Put(vp)
	return s
}

// AssignmentScore computes the WGRAP objective of Definition 3 with the
// fused scoring path.
func (o *Oracle) AssignmentScore(a *core.Assignment) float64 {
	s := 0.0
	for p := range o.in.Papers {
		s += o.GroupScore(p, a.Groups[p])
	}
	return s
}

// PaperScores returns the per-paper coverage scores of the assignment.
func (o *Oracle) PaperScores(a *core.Assignment) []float64 {
	out := make([]float64, o.in.NumPapers())
	for p := range o.in.Papers {
		out[p] = o.GroupScore(p, a.Groups[p])
	}
	return out
}
