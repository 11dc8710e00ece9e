package topics

import (
	"math/bits"
	"slices"
)

// Index is an inverted index over a fixed pool of topic vectors (typically
// the reviewer pool): for every topic it holds the postings of vectors with
// positive weight on that topic, sorted by weight descending. It is the
// candidate-generation stage of the sparse solve path: the weighted-coverage
// objective concentrates nearly all assignment mass on reviewers whose topic
// vectors overlap the paper's, so scanning a budgeted prefix of the postings
// of the paper's own topics recovers the high-score reviewers without ever
// touching the full pool.
//
// An Index is immutable after BuildIndex and safe for concurrent use; the
// per-query scratch lives in Scorer, so concurrent queries use one Scorer
// per goroutine.
type Index struct {
	dim  int
	n    int
	post [][]posting
}

// posting is one inverted-index entry: a vector id and its weight on the
// posting's topic.
type posting struct {
	id int32
	w  float64
}

// scanBudgetFactor scales the posting-scan budget of TopK: roughly
// scanBudgetFactor·k postings are read per query, split across the query's
// topics proportionally to their weight. Impact ordering (postings are
// weight-descending) makes the truncated tail contribute at most the last
// scanned weight per skipped posting, so a small multiple of k suffices; 16
// was chosen so the measured objective loss at paper scale stays within the
// test-asserted epsilon. A query then costs the scanned postings (about
// scanBudgetFactor·k plus one per query topic), two passes over the touched
// vectors (touched ≤ scanned, the distinct vectors the scan reached), the
// selectBuckets histogram buckets, a quickselect of the threshold bucket and
// one summary word per 4,096 pool ids to list the result — independent of the
// pool size apart from that last term.
const scanBudgetFactor = 16

// BuildIndex builds the inverted index over the given vectors. All vectors
// must share the dimension of the first; zero weights produce no postings.
// The input slices are only read during the build.
func BuildIndex(vecs [][]float64) *Index {
	ix := &Index{n: len(vecs)}
	if len(vecs) == 0 {
		return ix
	}
	ix.dim = len(vecs[0])
	ix.post = make([][]posting, ix.dim)
	counts := make([]int, ix.dim)
	for _, v := range vecs {
		for t, w := range v {
			if w > 0 {
				counts[t]++
			}
		}
	}
	for t, c := range counts {
		if c > 0 {
			ix.post[t] = make([]posting, 0, c)
		}
	}
	for id, v := range vecs {
		for t, w := range v {
			if w > 0 {
				ix.post[t] = append(ix.post[t], posting{id: int32(id), w: w})
			}
		}
	}
	for t := range ix.post {
		// Weight-descending, ties by id ascending: the scan order (and with
		// it every TopK result) is fully deterministic.
		slices.SortFunc(ix.post[t], func(a, b posting) int {
			switch {
			case a.w > b.w:
				return -1
			case a.w < b.w:
				return 1
			case a.id < b.id:
				return -1
			case a.id > b.id:
				return 1
			default:
				return 0
			}
		})
	}
	return ix
}

// Len returns the number of indexed vectors.
func (ix *Index) Len() int { return ix.n }

// Dim returns the topic dimension.
func (ix *Index) Dim() int { return ix.dim }

// selectBuckets is the number of linear score buckets over [0, sumQ] that
// TopK's selection histograms the touched scores into.
const selectBuckets = 256

// Scorer holds the reusable per-query scratch of TopK: dense score and mark
// arrays over the pool, the touched list, the score histogram, the threshold
// bucket's entries and the id set the result is listed from. A Scorer is
// bound to its Index and must not be used concurrently; create one per
// goroutine.
type Scorer struct {
	ix      *Index
	score   []float64
	mark    []uint32
	gen     uint32
	touched []int32
	hist    [selectBuckets]int32
	sel     []scored
	kept    *IDSet
}

// scored pairs a candidate id with its accumulated score for the top-k
// selection.
type scored struct {
	id int32
	s  float64
}

// worse reports whether a ranks after b in TopK's order: score descending,
// then id ascending. Ids are unique, so the order is total.
func worse(a, b scored) bool {
	return a.s < b.s || (a.s == b.s && a.id > b.id)
}

// compareScored is worse's order as a three-way comparison: negative when a
// ranks ahead of b.
func compareScored(a, b scored) int {
	switch {
	case worse(b, a):
		return -1
	case worse(a, b):
		return 1
	default:
		return 0
	}
}

// NewScorer returns a scorer with scratch sized for the index.
func (ix *Index) NewScorer() *Scorer {
	return &Scorer{
		ix:    ix,
		score: make([]float64, ix.n),
		mark:  make([]uint32, ix.n),
		kept:  NewIDSet(ix.n),
	}
}

// TopK returns the indices of (up to) k indexed vectors with the highest
// approximate weighted-coverage score against the query vector q, ascending
// by index. The score accumulated per candidate is Σ_t min(w_t, q_t) over
// the scanned postings — the numerator of the coverage objective — so the
// returned set is exactly the reviewers a dense scoring pass would rank
// highest, up to the posting-scan truncation described on scanBudgetFactor.
// Ties rank by id ascending, so the result is the first k of the touched
// vectors fully sorted by score descending, then id ascending.
//
// The selection is linear in the touched set: a histogram of the touched
// scores over selectBuckets linear buckets finds the bucket holding the k-th
// score, every vector above it is kept, and a quickselect resolves that one
// bucket exactly. The kept ids are listed in ascending order from a
// two-level bitmap (IDSet), so no sort runs.
//
// When fewer than k candidates score positive (a query orthogonal to most of
// the pool), the result is padded with the lowest unused indices so callers
// can rely on |result| = min(k, Len): downstream sparse solvers need the
// candidate sets to keep the instance feasible, not just high-scoring.
//
// out, when non-nil, is used as the backing for the result; it is resliced
// from out[:0]. With cap(out) ≥ k, TopK allocates nothing once the Scorer's
// scratch has grown to the largest query it has seen. TopK is deterministic:
// the same index and query always produce the same candidate list.
func (s *Scorer) TopK(q []float64, k int, out []int32) []int32 {
	ix := s.ix
	n := ix.n
	if k > n {
		k = n
	}
	res := out[:0]
	if k <= 0 {
		return res
	}
	if k == n {
		for id := 0; id < n; id++ {
			res = append(res, int32(id))
		}
		return res
	}
	sumQ := 0.0
	for t := 0; t < ix.dim && t < len(q); t++ {
		if q[t] > 0 {
			sumQ += q[t]
		}
	}
	s.touched = s.touched[:0]
	if sumQ > 0 {
		s.gen++
		if s.gen == 0 { // wrapped: invalidate every stale mark
			clear(s.mark)
			s.gen = 1
		}
		budget := float64(scanBudgetFactor * k)
		for t := 0; t < ix.dim && t < len(q); t++ {
			qt := q[t]
			if qt <= 0 || len(ix.post[t]) == 0 {
				continue
			}
			// The comparison guards the conversion: a quotient past the
			// postings (+Inf included, when budget·qt overflows) reads them
			// all, and int of it would be undefined.
			post := ix.post[t]
			limit := len(post)
			if x := budget * qt / sumQ; x < float64(len(post)) {
				limit = int(x) + 1
			}
			for _, pe := range post[:limit] {
				c := pe.w
				if qt < c {
					c = qt
				}
				if s.mark[pe.id] != s.gen {
					s.mark[pe.id] = s.gen
					s.score[pe.id] = c
					s.touched = append(s.touched, pe.id)
				} else {
					s.score[pe.id] += c
				}
			}
		}
	}
	if len(s.touched) > k {
		s.selectTouched(k, sumQ)
	} else {
		for _, id := range s.touched {
			s.kept.Add(id)
		}
		// Pad with the lowest ids the scan did not reach.
		for id, have := int32(0), len(s.touched); have < k; id++ {
			if !s.kept.Has(id) {
				s.kept.Add(id)
				have++
			}
		}
	}
	return s.kept.Drain(res)
}

// selectTouched adds to s.kept the first k touched ids in TopK's order,
// given more than k touched. The bucket of a score v is int(v·scale),
// clamped to the top bucket. The product is non-decreasing in v, so a higher
// bucket holds only strictly higher scores and exact ties share a bucket:
// every id above the threshold bucket b (the one holding the k-th score)
// ranks ahead of every id in b, and every id below b ranks behind it. So the
// ids above b plus the best k − (count above b) of b are the first k of the
// full sort. The comparison form of the clamp keeps the index defined for
// every value the scan can produce: scale is +Inf when sumQ is subnormal and
// 0 when it overflowed, and v is +Inf when scores overflow (v·scale is then
// +Inf or NaN, both of which land in the top bucket).
func (s *Scorer) selectTouched(k int, sumQ float64) {
	const top = selectBuckets - 1
	scale := selectBuckets / sumQ
	bucket := func(v float64) int {
		if f := v * scale; f < top {
			return int(f)
		}
		return top
	}
	hist := &s.hist
	clear(hist[:])
	for _, id := range s.touched {
		hist[bucket(s.score[id])]++
	}
	b, acc := top, 0
	for acc+int(hist[b]) < k {
		acc += int(hist[b])
		b--
	}
	sel := s.sel[:0]
	for _, id := range s.touched {
		v := s.score[id]
		switch x := bucket(v); {
		case x > b:
			s.kept.Add(id)
		case x == b:
			sel = append(sel, scored{id: id, s: v})
		}
	}
	s.sel = sel
	need := k - acc
	selectK(sel, need, 2*bits.Len(uint(len(sel))))
	for _, c := range sel[:need] {
		s.kept.Add(c.id)
	}
}

// selectK reorders c so that c[:need] holds the need first entries of c in
// worse's order, in no particular order among themselves. It is a
// quickselect with a median-of-three pivot. The input comes from topic
// vectors the caller does not control, so after the given number of
// partition rounds (TopK allows 2·log2(len(c))) it sorts what is left
// instead, bounding the worst case at O(n log n).
func selectK(c []scored, need, rounds int) {
	lo, hi := 0, len(c)
	// Invariant: every entry of c[:lo] ranks ahead of every entry of c[lo:],
	// and every entry of c[hi:] ranks behind every entry of c[:hi].
	for ; lo < need && need < hi; rounds-- {
		if rounds == 0 {
			slices.SortFunc(c[lo:hi], compareScored)
			return
		}
		m, last := lo+(hi-lo)/2, hi-1
		if worse(c[lo], c[m]) {
			c[lo], c[m] = c[m], c[lo]
		}
		if worse(c[m], c[last]) {
			c[m], c[last] = c[last], c[m]
			if worse(c[lo], c[m]) {
				c[lo], c[m] = c[m], c[lo]
			}
		}
		// c[m] is now the median of the three; partition around it.
		c[m], c[last] = c[last], c[m]
		pivot, i := c[last], lo
		for j := lo; j < last; j++ {
			if worse(pivot, c[j]) {
				c[i], c[j] = c[j], c[i]
				i++
			}
		}
		c[i], c[last] = c[last], c[i]
		if i < need {
			lo = i + 1
		} else {
			hi = i
		}
	}
}
