package topics

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// randVecs draws n sparse-ish random topic vectors of the given dimension:
// a handful of positive weights each, normalized to sum 1 — the shape the
// reviewer pool has after topic inference.
func randVecs(rng *rand.Rand, n, dim, hot int) [][]float64 {
	vecs := make([][]float64, n)
	for i := range vecs {
		v := make([]float64, dim)
		total := 0.0
		for h := 0; h < hot; h++ {
			t := rng.Intn(dim)
			w := rng.Float64()
			v[t] += w
			total += w
		}
		for t := range v {
			v[t] /= total
		}
		vecs[i] = v
	}
	return vecs
}

// zipfVecs draws n topic vectors whose topics follow a Zipf(1) popularity:
// four draws per vector, the j-th weighted rand/(j+1), normalized to sum 1.
// Hot topics then carry most of the pool's expertise and their postings run
// long — the shape of the sparse benchmark instances.
func zipfVecs(rng *rand.Rand, n, dim int) [][]float64 {
	pop := make([]float64, dim)
	total := 0.0
	for t := range pop {
		pop[t] = 1 / float64(t+1)
		total += pop[t]
	}
	topic := func() int {
		u := rng.Float64() * total
		for t, w := range pop {
			if u -= w; u < 0 {
				return t
			}
		}
		return dim - 1
	}
	vecs := make([][]float64, n)
	for i := range vecs {
		v := make([]float64, dim)
		sum := 0.0
		for j := 0; j < 4; j++ {
			w := rng.Float64() / float64(j+1)
			v[topic()] += w
			sum += w
		}
		for t := range v {
			v[t] /= sum
		}
		vecs[i] = v
	}
	return vecs
}

// extremeVecs draws n topic vectors with four nonzero topics each, every
// weight picked from vals and none normalized, so scores can be subnormal or
// overflow to +Inf, and the query weights' sum can too.
func extremeVecs(rng *rand.Rand, n, dim int, vals []float64) [][]float64 {
	vecs := make([][]float64, n)
	for i := range vecs {
		v := make([]float64, dim)
		for j := 0; j < 4; j++ {
			v[rng.Intn(dim)] = vals[rng.Intn(len(vals))]
		}
		vecs[i] = v
	}
	return vecs
}

// Weight sets for extremeVecs: subnormal, near the top of the float64 range,
// and both mixed with ordinary weights.
var (
	subnormalWeights = []float64{5e-324, 1e-323, 1e-310, 2.5e-310}
	hugeWeights      = []float64{1e300, 1e307, 1e308, math.MaxFloat64}
	mixedWeights     = []float64{5e-324, 1e-310, 0.125, 0.5, 1, 1e300, 1e307, math.MaxFloat64}
)

// quantized rounds every weight to a multiple of 1/levels, so scores become
// short sums of a few distinct values and tie often — at the k-th place too.
func quantized(vecs [][]float64, levels float64) [][]float64 {
	out := make([][]float64, len(vecs))
	for i, v := range vecs {
		out[i] = make([]float64, len(v))
		for t, w := range v {
			out[i][t] = math.Round(w*levels) / levels
		}
	}
	return out
}

// fullSortTopK is the reference TopK. It runs the same budgeted posting scan
// into fresh dense scratch, fully sorts every touched vector by score
// descending then id ascending, keeps the first k, sorts their ids ascending
// and pads with the lowest unused ids. It also returns the full ranking so
// tests can check which cases they reached (ties at the k-th place, padding).
func fullSortTopK(ix *Index, q []float64, k int) (ids []int32, ranked []scored) {
	n := ix.Len()
	k = min(k, n)
	ids = []int32{}
	if k <= 0 {
		return ids, nil
	}
	if k == n {
		for id := range n {
			ids = append(ids, int32(id))
		}
		return ids, nil
	}
	sumQ := 0.0
	for t := 0; t < ix.dim && t < len(q); t++ {
		if q[t] > 0 {
			sumQ += q[t]
		}
	}
	score := make([]float64, n)
	seen := make([]bool, n)
	if sumQ > 0 {
		budget := float64(scanBudgetFactor * k)
		for t := 0; t < ix.dim && t < len(q); t++ {
			if q[t] <= 0 {
				continue
			}
			// The same guard as TopK's: a quotient past the postings (+Inf
			// included) reads them all.
			post := ix.post[t]
			if x := budget * q[t] / sumQ; x < float64(len(post)) {
				post = post[:int(x)+1]
			}
			for _, pe := range post {
				if !seen[pe.id] {
					seen[pe.id] = true
					ranked = append(ranked, scored{id: pe.id})
				}
				score[pe.id] += min(pe.w, q[t])
			}
		}
	}
	for i := range ranked {
		ranked[i].s = score[ranked[i].id]
	}
	slices.SortFunc(ranked, func(a, b scored) int {
		switch {
		case a.s > b.s:
			return -1
		case a.s < b.s:
			return 1
		default:
			return int(a.id - b.id)
		}
	})
	kept := make([]bool, n)
	for _, c := range ranked[:min(k, len(ranked))] {
		ids = append(ids, c.id)
		kept[c.id] = true
	}
	for id := int32(0); len(ids) < k; id++ {
		if !kept[id] {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids, ranked
}

// checkTopKContract fails unless got is ascending, unique, in range and of
// length min(k, n).
func checkTopKContract(t *testing.T, got []int32, k, n int) {
	t.Helper()
	if want := max(0, min(k, n)); len(got) != want {
		t.Fatalf("k=%d n=%d: TopK returned %d ids, want %d", k, n, len(got), want)
	}
	for i, id := range got {
		if id < 0 || int(id) >= n || (i > 0 && id <= got[i-1]) {
			t.Fatalf("k=%d n=%d: TopK result not ascending, unique and in range: %v", k, n, got)
		}
	}
}

// coverageScore is the exact numerator of the weighted-coverage objective.
func coverageScore(v, q []float64) float64 {
	s := 0.0
	for t := range q {
		if v[t] < q[t] {
			s += v[t]
		} else {
			s += q[t]
		}
	}
	return s
}

func TestTopKRecallsHighCoverageVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, dim, k = 500, 30, 32
	vecs := randVecs(rng, n, dim, 4)
	ix := BuildIndex(vecs)
	sc := ix.NewScorer()
	for trial := 0; trial < 20; trial++ {
		q := randVecs(rng, 1, dim, 4)[0]
		got := sc.TopK(q, k, nil)
		checkTopKContract(t, got, k, n)
		// The exact top-(k/4) by full coverage score must (nearly) all appear
		// within the k candidates; the budgeted posting scan may lose deep-tail
		// mass but not the strong matches.
		type rs struct {
			id int
			s  float64
		}
		ranked := make([]rs, n)
		for id, v := range vecs {
			ranked[id] = rs{id: id, s: coverageScore(v, q)}
		}
		slices.SortFunc(ranked, func(a, b rs) int {
			switch {
			case a.s > b.s:
				return -1
			case a.s < b.s:
				return 1
			default:
				return a.id - b.id
			}
		})
		missed := 0
		for _, top := range ranked[:k/4] {
			if !slices.Contains(got, int32(top.id)) {
				missed++
			}
		}
		if missed > 1 {
			t.Fatalf("trial %d: %d of the exact top-%d missing from the %d candidates", trial, missed, k/4, k)
		}
	}
}

func TestTopKDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vecs := randVecs(rng, 300, 25, 3)
	q := randVecs(rng, 1, 25, 3)[0]
	ix := BuildIndex(vecs)
	a := ix.NewScorer().TopK(q, 24, nil)
	sc := ix.NewScorer()
	sc.TopK(randVecs(rng, 1, 25, 3)[0], 24, nil) // interleave another query
	b := sc.TopK(q, 24, nil)
	if !slices.Equal(a, b) {
		t.Fatalf("TopK not deterministic:\n%v\n%v", a, b)
	}
}

func TestTopKEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vecs := randVecs(rng, 20, 10, 3)
	ix := BuildIndex(vecs)
	sc := ix.NewScorer()

	if got := sc.TopK(vecs[0], 0, nil); len(got) != 0 {
		t.Fatalf("k=0: got %v, want empty", got)
	}
	got := sc.TopK(vecs[0], 50, nil)
	if len(got) != 20 {
		t.Fatalf("k>=n: got %d candidates, want all 20", len(got))
	}
	for i, id := range got {
		if id != int32(i) {
			t.Fatalf("k>=n: candidate %d is %d, want %d", i, id, i)
		}
	}
	// A zero query has no topic signal: the result must still have k entries
	// (the padding keeps downstream instances feasible).
	zero := make([]float64, 10)
	got = sc.TopK(zero, 5, nil)
	want := []int32{0, 1, 2, 3, 4}
	if !slices.Equal(got, want) {
		t.Fatalf("zero query: got %v, want %v", got, want)
	}
	// Reusing the out buffer must not allocate new backing when it fits.
	buf := make([]int32, 0, 8)
	got = sc.TopK(vecs[1], 8, buf)
	if len(got) != 8 || &got[0] != &buf[:1][0] {
		t.Fatalf("out buffer not reused")
	}
}

func TestBuildIndexEmpty(t *testing.T) {
	ix := BuildIndex(nil)
	if ix.Len() != 0 || ix.Dim() != 0 {
		t.Fatalf("empty index: Len=%d Dim=%d", ix.Len(), ix.Dim())
	}
	if got := ix.NewScorer().TopK([]float64{0.5}, 3, nil); len(got) != 0 {
		t.Fatalf("empty index TopK: got %v", got)
	}
}

// closureSortIndex is the reference posting order: BuildIndex's lists,
// appended in id order and sorted by a comparator closure, weight
// descending, then id ascending.
func closureSortIndex(vecs [][]float64) [][]posting {
	post := make([][]posting, len(vecs[0]))
	for id, v := range vecs {
		for t, w := range v {
			if w > 0 {
				post[t] = append(post[t], posting{id: int32(id), w: w})
			}
		}
	}
	for t := range post {
		slices.SortFunc(post[t], func(a, b posting) int {
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
	return post
}

// TestBuildIndexMatchesClosureSort pins BuildIndex's posting order to the
// comparator sort it replaced, posting for posting, on random and Zipf
// pools, pools whose weights tie exactly (quantized, or drawn from a few
// values), subnormal, huge (+Inf included) and mixed weights, and vectors
// with zero, negative and NaN weights that make no posting. The sizes cross
// the insertion-sort cutoff, so both sorts run.
func TestBuildIndexMatchesClosureSort(t *testing.T) {
	const dim = 24
	rng := rand.New(rand.NewSource(23))
	withInf := append(slices.Clone(hugeWeights), math.Inf(1))
	pools := []struct {
		name string
		gen  func(n int) [][]float64
	}{
		{"uniform", func(n int) [][]float64 { return randVecs(rng, n, dim, 4) }},
		{"zipf", func(n int) [][]float64 { return zipfVecs(rng, n, dim) }},
		{"quantized", func(n int) [][]float64 { return quantized(zipfVecs(rng, n, dim), 4) }},
		{"ties", func(n int) [][]float64 { return extremeVecs(rng, n, dim, []float64{0.25, 0.5}) }},
		{"subnormal", func(n int) [][]float64 { return extremeVecs(rng, n, dim, subnormalWeights) }},
		{"huge", func(n int) [][]float64 { return extremeVecs(rng, n, dim, withInf) }},
		{"mixed", func(n int) [][]float64 { return extremeVecs(rng, n, dim, mixedWeights) }},
		{"no-posting weights", func(n int) [][]float64 {
			return extremeVecs(rng, n, dim, []float64{0, math.Copysign(0, -1), -1, math.NaN(), 0.5, 1e-310})
		}},
	}
	for _, pool := range pools {
		for _, n := range []int{1, 5, insertionPostings, 300, 3000} {
			vecs := pool.gen(n)
			got, want := BuildIndex(vecs).post, closureSortIndex(vecs)
			for tp := range want {
				if !slices.Equal(got[tp], want[tp]) {
					t.Fatalf("%s n=%d topic %d:\n got %v\nwant %v", pool.name, n, tp, got[tp], want[tp])
				}
			}
		}
	}
}

// TestTopKMatchesFullSort pins the histogram selection to the reference full
// sort, result for result, over uniform and Zipf pools up to R=4500 (two
// summary words in the id set), with weights quantized so scores tie at the
// k-th place, pools of subnormal, huge and mixed weights (scores that are
// subnormal or overflow, query sums that do, and a scan budget that
// overflows), k from 1 to past the touched count (the padding path), a zero
// query, a query whose topics have no postings, and a query whose touched
// scores all tie, so the threshold bucket holds the whole touched set.
func TestTopKMatchesFullSort(t *testing.T) {
	const dim = 40
	rng := rand.New(rand.NewSource(17))
	pools := []struct {
		name string
		gen  func(n int) [][]float64
	}{
		{"uniform", func(n int) [][]float64 { return randVecs(rng, n, dim, 4) }},
		{"zipf", func(n int) [][]float64 { return zipfVecs(rng, n, dim) }},
		{"uniform-quantized", func(n int) [][]float64 { return quantized(randVecs(rng, n, dim, 4), 8) }},
		{"zipf-quantized", func(n int) [][]float64 { return quantized(zipfVecs(rng, n, dim), 8) }},
		{"subnormal", func(n int) [][]float64 { return extremeVecs(rng, n, dim, subnormalWeights) }},
		{"huge", func(n int) [][]float64 { return extremeVecs(rng, n, dim, hugeWeights) }},
		{"mixed", func(n int) [][]float64 { return extremeVecs(rng, n, dim, mixedWeights) }},
	}
	var kthTies, padded int
	for _, pool := range pools {
		for _, n := range []int{1, 37, 500, 2000, 4500} {
			vecs := pool.gen(n)
			// The last topic has no postings: no pool vector uses it.
			for _, v := range vecs {
				v[dim-1] = 0
			}
			ix := BuildIndex(vecs)
			sc := ix.NewScorer()
			queries := pool.gen(6)
			queries = append(queries, make([]float64, dim)) // zero query
			noPostings := make([]float64, dim)
			noPostings[dim-1] = 1
			queries = append(queries, noPostings)
			for qi, q := range queries {
				for _, k := range []int{1, 2, 5, 48, 64, 300, n - 1, n, n + 3} {
					got := sc.TopK(q, k, nil)
					want, ranked := fullSortTopK(ix, q, k)
					if !slices.Equal(got, want) {
						t.Fatalf("%s n=%d query %d k=%d:\n got %v\nwant %v", pool.name, n, qi, k, got, want)
					}
					checkTopKContract(t, got, k, n)
					if k > 0 && k < len(ranked) && ranked[k-1].s == ranked[k].s {
						kthTies++
					}
					if k < n && len(ranked) < k {
						padded++
					}
				}
			}
		}
	}
	if kthTies == 0 || padded == 0 {
		t.Fatalf("cases not reached: %d ties at the k-th place, %d padded results", kthTies, padded)
	}

	// Every vector outweighs the query on its one topic, so every touched
	// score is the query's weight: one bucket holds the whole touched set,
	// and the result is the k lowest touched ids.
	vecs := make([][]float64, 2000)
	for i := range vecs {
		vecs[i] = make([]float64, dim)
		vecs[i][0] = 0.3 + 0.7*rng.Float64()
		vecs[i][1+rng.Intn(dim-1)] = rng.Float64()
	}
	ix := BuildIndex(vecs)
	sc := ix.NewScorer()
	q := make([]float64, dim)
	q[0] = 0.3
	for _, k := range []int{1, 5, 48, 64, 300} {
		got := sc.TopK(q, k, nil)
		want, ranked := fullSortTopK(ix, q, k)
		if !slices.Equal(got, want) {
			t.Fatalf("all-tie k=%d:\n got %v\nwant %v", k, got, want)
		}
		if len(ranked) <= k || ranked[0].s != ranked[len(ranked)-1].s {
			t.Fatalf("all-tie k=%d: %d touched, scores %v..%v, want more than k, all equal",
				k, len(ranked), ranked[0].s, ranked[len(ranked)-1].s)
		}
	}
}

// TestSelectK: selectK leaves the need first entries in worse's order in
// front, for every need, on random, ordered, reversed, organ-pipe and
// all-tied inputs, both through its partition rounds and through the sort
// it falls back to once they run out (rounds 0 and 1).
func TestSelectK(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n = 40
	inputs := map[string]func(i int) float64{
		"random":     func(int) float64 { return float64(rng.Intn(12)) },
		"ascending":  func(i int) float64 { return float64(i) },
		"descending": func(i int) float64 { return float64(n - i) },
		"organ-pipe": func(i int) float64 { return float64(min(i, n-i)) },
		"tied":       func(int) float64 { return 0.5 },
	}
	for name, score := range inputs {
		base := make([]scored, n)
		for i, id := range rng.Perm(n) {
			base[i] = scored{id: int32(id), s: score(i)}
		}
		want := slices.Clone(base)
		slices.SortFunc(want, compareScored)
		for need := 0; need <= n; need++ {
			for _, rounds := range []int{0, 1, 2 * bits.Len(n)} {
				c := slices.Clone(base)
				selectK(c, need, rounds)
				got := slices.Clone(c[:need])
				slices.SortFunc(got, compareScored)
				if !slices.Equal(got, want[:need]) {
					t.Fatalf("%s need=%d rounds=%d: front %v, want %v", name, need, rounds, got, want[:need])
				}
			}
		}
	}
}

// TestIDSet: Has sees exactly the added ids, and Drain appends them
// ascending and unique after what out holds and leaves the set empty, across
// leaf and summary word boundaries and over repeated fill-and-drain rounds.
func TestIDSet(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, n := range []int{1, 63, 64, 65, 4096, 4097, 200000} {
		s := NewIDSet(n)
		for round := 0; round < 3; round++ {
			var want []int32
			for _, id := range []int{0, 63, 64, 4095, 4096, n - 1} {
				if id < n {
					want = append(want, int32(id))
				}
			}
			for range round * 40 {
				want = append(want, int32(rng.Intn(n)))
			}
			// Add in reverse, then a prefix again: duplicates are no-ops.
			for i := len(want) - 1; i >= 0; i-- {
				s.Add(want[i])
			}
			for _, id := range want[:len(want)/2+1] {
				s.Add(id)
			}
			slices.Sort(want)
			want = slices.Compact(want)
			for id := int32(0); id < int32(n); id++ {
				if _, member := slices.BinarySearch(want, id); s.Has(id) != member {
					t.Fatalf("n=%d round %d: Has(%d) = %v, want %v", n, round, id, !member, member)
				}
			}
			got := s.Drain([]int32{-1})
			if got[0] != -1 || !slices.Equal(got[1:], want) {
				t.Fatalf("n=%d round %d: Drain = %v, want [-1] then %v", n, round, got, want)
			}
			if again := s.Drain(nil); len(again) != 0 {
				t.Fatalf("n=%d round %d: second Drain = %v, want nothing", n, round, again)
			}
			for id := int32(0); id < int32(n); id++ {
				if s.Has(id) {
					t.Fatalf("n=%d round %d: Has(%d) after Drain", n, round, id)
				}
			}
		}
	}
}

// TestTopKAllocs: a steady-state TopK with a caller buffer of capacity ≥ k
// allocates nothing, on the selection and the padding paths alike.
func TestTopKAllocs(t *testing.T) {
	const dim, k = 40, 48
	rng := rand.New(rand.NewSource(19))
	ix := BuildIndex(zipfVecs(rng, 2000, dim))
	sc := ix.NewScorer()
	queries := append(zipfVecs(rng, 16, dim), make([]float64, dim))
	buf := make([]int32, 0, k)
	for _, q := range queries { // grow the scorer's scratch once
		sc.TopK(q, k, buf)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		sc.TopK(queries[i%len(queries)], k, buf)
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state TopK allocates %.1f times per call, want 0", allocs)
	}
}

// TestTopKConcurrentScorers: goroutines with a Scorer each query one Index,
// as buildCandidates shards its work, and every result equals the serial one.
func TestTopKConcurrentScorers(t *testing.T) {
	const dim, k, workers = 40, 48, 4
	rng := rand.New(rand.NewSource(23))
	ix := BuildIndex(zipfVecs(rng, 2000, dim))
	queries := zipfVecs(rng, 200, dim)
	want := make([][]int32, len(queries))
	sc := ix.NewScorer()
	for i, q := range queries {
		want[i] = sc.TopK(q, k, nil)
	}
	got := make([][][]int32, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := ix.NewScorer()
			got[w] = make([][]int32, len(queries))
			// Each goroutine starts at its own offset, so the scorers see
			// the queries in different orders.
			for j := range queries {
				i := (j + w*len(queries)/workers) % len(queries)
				got[w][i] = sc.TopK(queries[i], k, nil)
			}
		}()
	}
	wg.Wait()
	for w := range got {
		for i := range queries {
			if !slices.Equal(got[w][i], want[i]) {
				t.Fatalf("goroutine %d, query %d: got %v, want %v", w, i, got[w][i], want[i])
			}
		}
	}
}

// fuzzExtremes are the weights that bytes 0xf8 to 0xff decode to in
// fuzzPool: subnormal weights, and weights whose scores or scan budget
// overflow.
var fuzzExtremes = [8]float64{5e-324, 1e-310, 1e-300, 1, 1e300, 1e307, 1e308, math.MaxFloat64}

// fuzzPool decodes a fuzz input into a pool and a query of dimension dim:
// the first dim bytes are the query, every further dim bytes one pool
// vector. A byte below 0x80 is a zero weight, a byte b from 0xf8 up the
// weight fuzzExtremes[b&7], and any other byte b the weight (b&0x0f)/16, so
// random bytes give sparse vectors whose scores tie often. The pool is
// capped at 2000 vectors.
func fuzzPool(data []byte, dim int) (vecs [][]float64, q []float64) {
	weights := func(b []byte) []float64 {
		v := make([]float64, dim)
		for t := range v {
			switch {
			case b[t] >= 0xf8:
				v[t] = fuzzExtremes[b[t]&7]
			case b[t] >= 0x80:
				v[t] = float64(b[t]&0x0f) / 16
			}
		}
		return v
	}
	if len(data) < dim {
		return nil, make([]float64, dim)
	}
	q = weights(data)
	for rest := data[dim:]; len(rest) >= dim && len(vecs) < 2000; rest = rest[dim:] {
		vecs = append(vecs, weights(rest))
	}
	return vecs, q
}

// fuzzSeed encodes a pool and a query in fuzzPool's byte format, rounding
// every weight to a sixteenth.
func fuzzSeed(vecs [][]float64, q []float64) []byte {
	var data []byte
	for _, v := range append([][]float64{q}, vecs...) {
		for _, w := range v {
			var b byte
			if w > 0 {
				b = 0x80 | byte(min(15, math.Round(w*16)))
			}
			data = append(data, b)
		}
	}
	return data
}

// FuzzTopK checks TopK against the reference full sort and its contract
// (ascending, unique, length min(k, Len)) on arbitrary pools. Each input also
// runs a pool vector through the same Scorer first, so stale per-query
// scratch would show. The seeds are small pools on purpose: the fuzzer
// minimizes every new interesting input in time quadratic in its length,
// and TestTopKMatchesFullSort already covers pools up to 2000 vectors.
func FuzzTopK(f *testing.F) {
	const dim = 6
	rng := rand.New(rand.NewSource(29))
	uniform := randVecs(rng, 32, dim, 3)
	zipf := zipfVecs(rng, 32, dim)
	for _, v := range zipf {
		v[dim-1] = 0
	}
	noPostings := make([]float64, dim)
	noPostings[dim-1] = 0.5
	f.Add(fuzzSeed(uniform, uniform[0]), uint8(dim), uint16(8))
	f.Add(fuzzSeed(zipf, zipf[1]), uint8(dim), uint16(8))
	f.Add(fuzzSeed(zipf, zipf[2]), uint8(dim), uint16(30))                     // k past the touched count
	f.Add(fuzzSeed(zipf, make([]float64, dim)), uint8(dim), uint16(7))         // zero query
	f.Add(fuzzSeed(zipf, noPostings), uint8(dim), uint16(9))                   // query on a topic with no postings
	f.Add(fuzzSeed(uniform, uniform[3]), uint8(dim), uint16(32))               // k = Len
	f.Add(fuzzSeed(uniform, uniform[4]), uint8(dim), uint16(1))                // k = 1
	f.Add(fuzzSeed(quantized(uniform, 2), uniform[5]), uint8(dim), uint16(12)) // ties at the k-th place
	f.Add([]byte{}, uint8(3), uint16(4))                                       // empty pool
	extreme := fuzzSeed(zipf[:12], zipf[3])
	for i := range extreme {
		if extreme[i] != 0 && i%3 != 0 {
			extreme[i] = 0xf8 | byte(i%8) // subnormal to huge weights
		}
	}
	f.Add(extreme, uint8(dim), uint16(5))
	f.Fuzz(func(t *testing.T, data []byte, dimb uint8, kb uint16) {
		d := 1 + int(dimb)%16
		vecs, q := fuzzPool(data, d)
		ix := BuildIndex(vecs)
		k := int(kb) % (len(vecs) + 8)
		sc := ix.NewScorer()
		if len(vecs) > 0 {
			sc.TopK(vecs[0], k, nil)
		}
		got := sc.TopK(q, k, make([]int32, 0, 4))
		want, _ := fullSortTopK(ix, q, k)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d dim=%d k=%d:\n got %v\nwant %v", len(vecs), d, k, got, want)
		}
		checkTopKContract(t, got, k, len(vecs))
	})
}

// BenchmarkScorerTopK times one op = 1000 TopK queries (k=48) against a
// Zipf pool of R=2000 vectors over T=40 topics — the candidate stage of a
// paper-scale capped solve, without the stride slots.
// BenchmarkBuildIndex times the index build, which the candidate stage runs
// once per cold solve, over Zipf pools at T=40: R=2000, a paper-scale capped
// solve's pool, where 36 of the 40 posting lists take the radix sort, and
// R=200, where most lists are short enough for the insertion sort.
func BenchmarkBuildIndex(b *testing.B) {
	for _, r := range []int{2000, 200} {
		vecs := zipfVecs(rand.New(rand.NewSource(9)), r, 40)
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				indexSink = BuildIndex(vecs)
			}
		})
	}
}

// indexSink keeps BenchmarkBuildIndex's result live.
var indexSink *Index

func BenchmarkScorerTopK(b *testing.B) {
	const dim, k = 40, 48
	rng := rand.New(rand.NewSource(31))
	ix := BuildIndex(zipfVecs(rng, 2000, dim))
	queries := zipfVecs(rng, 1000, dim)
	sc := ix.NewScorer()
	buf := make([]int32, 0, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			topKSink = sc.TopK(q, k, buf)
		}
	}
}

// topKSink keeps BenchmarkScorerTopK's result live.
var topKSink []int32
