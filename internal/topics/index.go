package topics

import "slices"

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
// scanBudgetFactor·k plus one per query topic) plus touched·log k for the
// selection, where touched ≤ scanned is the number of distinct vectors the
// scan reached — independent of the pool size.
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

// Scorer holds the reusable per-query scratch of TopK. A Scorer is bound to
// its Index and must not be used concurrently; create one per goroutine.
type Scorer struct {
	ix      *Index
	score   []float64
	mark    []uint32
	gen     uint32
	touched []int32
	sel     []scored
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

// siftDown restores the heap property below i in h, a heap whose root is its
// worst entry under worse.
func siftDown(h []scored, i int) {
	for {
		w := i
		if l := 2*i + 1; l < len(h) && worse(h[l], h[w]) {
			w = l
		}
		if r := 2*i + 2; r < len(h) && worse(h[r], h[w]) {
			w = r
		}
		if w == i {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}

// NewScorer returns a scorer with scratch sized for the index.
func (ix *Index) NewScorer() *Scorer {
	return &Scorer{
		ix:    ix,
		score: make([]float64, ix.n),
		mark:  make([]uint32, ix.n),
	}
}

// TopK returns the indices of (up to) k indexed vectors with the highest
// approximate weighted-coverage score against the query vector q, ascending
// by index. The score accumulated per candidate is Σ_t min(w_t, q_t) over
// the scanned postings — the numerator of the coverage objective — so the
// returned set is exactly the reviewers a dense scoring pass would rank
// highest, up to the posting-scan truncation described on scanBudgetFactor.
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
			limit := int(budget*qt/sumQ) + 1
			post := ix.post[t]
			if limit > len(post) {
				limit = len(post)
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
	// Select the k best touched candidates (score descending, id ascending)
	// in a k-entry heap whose root is the worst kept entry: a further
	// candidate costs one comparison against the root and, when it ranks
	// ahead, one sift-down. The order is total, so the kept set is exactly
	// the first k of a full sort of the touched set.
	h := s.sel[:0]
	for _, id := range s.touched {
		c := scored{id: id, s: s.score[id]}
		switch {
		case len(h) < k:
			h = append(h, c)
			if len(h) == k {
				for i := k/2 - 1; i >= 0; i-- {
					siftDown(h, i)
				}
			}
		case worse(h[0], c):
			h[0] = c
			siftDown(h, 0)
		}
	}
	s.sel = h
	for _, c := range h {
		res = append(res, c.id)
	}
	slices.Sort(res)
	if len(res) < k {
		res = padCandidates(res, k, n)
	}
	return res
}

// padCandidates extends a sorted ascending candidate list to length k with
// the lowest indices not already present.
func padCandidates(res []int32, k, n int) []int32 {
	have := len(res)
	next := int32(0)
	pos := 0
	for len(res) < k && next < int32(n) {
		for pos < have && res[pos] < next {
			pos++
		}
		if pos < have && res[pos] == next {
			next++
			continue
		}
		res = append(res, next)
		next++
	}
	slices.Sort(res)
	return res
}
