package flow

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// solveState is what one solver step leaves behind: the plan, the objective,
// the error, and the duals the next warm step starts from; cert is the
// optimality certificate's verdict on a successful step's plan.
type solveState struct {
	rows  [][]int
	total float64
	err   error
	u, v  []float64
	potT  float64
	cert  error
}

// stateRecorder collects the solveState of every step run through record.
type stateRecorder struct {
	tr     *Transport
	states []solveState
}

func (r *stateRecorder) record(rows [][]int, total float64, err error) {
	st := solveState{
		total: total,
		err:   err,
		u:     append([]float64(nil), r.tr.u[:r.tr.n]...),
		v:     append([]float64(nil), r.tr.v[:r.tr.m]...),
		potT:  r.tr.potT,
	}
	if err == nil {
		st.cert = certify(r.tr)
	}
	for _, cols := range rows {
		st.rows = append(st.rows, append([]int(nil), cols...))
	}
	r.states = append(r.states, st)
}

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diffStates describes the first step of either sequence whose plan fails
// its optimality certificate, then the first difference between the two
// sequences, or returns "" when every plan is certified and the sequences
// are bit-identical: plans, objective bits, errors, u, v and potT.
func diffStates(got, want []solveState) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d steps, want %d", len(got), len(want))
	}
	for s := range want {
		g, w := got[s], want[s]
		switch {
		case g.cert != nil:
			return fmt.Sprintf("step %d: plan not certified optimal: %v", s, g.cert)
		case w.cert != nil:
			return fmt.Sprintf("step %d: reference plan not certified optimal: %v", s, w.cert)
		case fmt.Sprint(g.err) != fmt.Sprint(w.err):
			return fmt.Sprintf("step %d: err %v, want %v", s, g.err, w.err)
		case !sameBits(g.total, w.total):
			return fmt.Sprintf("step %d: total %v, want %v", s, g.total, w.total)
		case !sameBits(g.potT, w.potT):
			return fmt.Sprintf("step %d: potT %v, want %v", s, g.potT, w.potT)
		case len(g.rows) != len(w.rows):
			return fmt.Sprintf("step %d: %d plan rows, want %d", s, len(g.rows), len(w.rows))
		}
		for i := range w.rows {
			if fmt.Sprint(g.rows[i]) != fmt.Sprint(w.rows[i]) {
				return fmt.Sprintf("step %d row %d: plan %v, want %v", s, i, g.rows[i], w.rows[i])
			}
		}
		for i := range w.u {
			if !sameBits(g.u[i], w.u[i]) {
				return fmt.Sprintf("step %d: u[%d] %v, want %v", s, i, g.u[i], w.u[i])
			}
		}
		for j := range w.v {
			if !sameBits(g.v[j], w.v[j]) {
				return fmt.Sprintf("step %d: v[%d] %v, want %v", s, j, g.v[j], w.v[j])
			}
		}
	}
	return ""
}

// unbounded runs script with every shortest-path search left at an infinite
// bound: the reference the bounded search must reproduce bit for bit.
func unbounded(script func() []solveState) []solveState {
	unboundedSearch = true
	defer func() { unboundedSearch = false }()
	return script()
}

// boundProfit draws an n×m profit matrix with ~10% Forbidden cells; with
// quantised set the profits are multiples of 1/4 in [0, 1], so the optimum
// has ties and the searches meet equal distances.
func boundProfit(rng *rand.Rand, n, m int, quantised bool) [][]float64 {
	profit := make([][]float64, n)
	for i := range profit {
		profit[i] = make([]float64, m)
		for j := range profit[i] {
			switch {
			case rng.Float64() < 0.1:
				profit[i][j] = Forbidden
			case quantised:
				profit[i][j] = float64(rng.Intn(5)) / 4
			default:
				profit[i][j] = rng.Float64()
			}
		}
	}
	return profit
}

// randInts draws n values in [lo, hi].
func randInts(rng *rand.Rand, n, lo, hi int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = lo + rng.Intn(hi-lo+1)
	}
	return s
}

// denseBoundScript is one dense edit script: SolveDense, then ResolveRows
// with one new Forbidden cell and one demand change, then Resolve with one
// column shrunk to 0 and one grown.
func denseBoundScript(seed int64) []solveState {
	rng := rand.New(rand.NewSource(seed))
	n := 5 + rng.Intn(41)
	m := n + rng.Intn(2*n+1)
	profit := boundProfit(rng, n, m, seed%2 == 0)
	need, caps := randInts(rng, n, 1, 2), randInts(rng, m, 1, 2)
	tr := &Transport{}
	r := stateRecorder{tr: tr}
	r.record(tr.SolveDense(profit, need, caps))
	coi, bump := rng.Intn(n), rng.Intn(n)
	profit[coi][rng.Intn(m)] = Forbidden
	need[bump] = 3 - need[bump]
	r.record(tr.ResolveRows(profit, []int{coi, bump}, need, caps))
	perm := rng.Perm(m)
	caps[perm[0]] = 0
	caps[perm[1%m]] += 1 + rng.Intn(2)
	r.record(tr.Resolve(caps))
	return r.states
}

// sparseBoundScript is one sparse edit script: SolveSparse over 2–4
// candidates per row with a DenseRow callback, then Resolve with one column
// shrunk to 0 and one grown.
func sparseBoundScript(seed int64) []solveState {
	rng := rand.New(rand.NewSource(seed))
	n := 5 + rng.Intn(26)
	m := n + rng.Intn(2*n+1)
	profit := boundProfit(rng, n, m, seed%2 == 0)
	need, caps := randInts(rng, n, 1, 2), randInts(rng, m, 1, 2)
	vals, cols := sparseFromDense(rng, profit, 2+rng.Intn(3))
	tr := &Transport{DenseRow: func(i int, buf []float64) []float64 {
		copy(buf, profit[i])
		return buf
	}}
	r := stateRecorder{tr: tr}
	r.record(tr.SolveSparse(vals, cols, m, need, caps))
	perm := rng.Perm(m)
	caps[perm[0]] = 0
	caps[perm[1%m]] += 1 + rng.Intn(2)
	r.record(tr.Resolve(caps))
	return r.states
}

// shardedBoundScript solves a 60×1100 instance (every row wide enough for
// the relax pool) on workers workers, then runs a withdrawal wave and its
// restore with re-drawn rows through ResolveRows.
func shardedBoundScript(seed int64, workers int) []solveState {
	const n, m, wave = 60, 1100, 20
	rng := rand.New(rand.NewSource(seed))
	profit := boundProfit(rng, n, m, seed%2 == 0)
	need, caps := fillInts(n, 1), fillInts(m, 1)
	tr := &Transport{Workers: workers}
	r := stateRecorder{tr: tr}
	r.record(tr.SolveDense(profit, need, caps))
	dirty := rng.Perm(n)[:wave]
	for _, i := range dirty {
		need[i] = 0
	}
	r.record(tr.ResolveRows(profit, dirty, need, caps))
	for _, i := range dirty {
		need[i] = 1
		copy(profit[i], boundProfit(rng, 1, m, seed%2 == 0)[0])
	}
	r.record(tr.ResolveRows(profit, dirty, need, caps))
	return r.states
}

// TestBoundedSearchMatchesUnbounded: bounding each shortest-path search at
// the cheapest sink arrival labelled so far must change nothing but the work
// done. Every script runs twice, with the bound and with unboundedSearch
// set, and the plans, objectives, errors and duals of every step must be
// bit-identical. Half the instances have quantised profits, so equal
// distances are common and the heap's (distance, node) order is what keeps
// the two pop sequences equal; the warm steps run cancelImprovingCycle,
// which must stay unbounded.
func TestBoundedSearchMatchesUnbounded(t *testing.T) {
	t.Run("dense", func(t *testing.T) {
		for seed := int64(0); seed < 300; seed++ {
			script := func() []solveState { return denseBoundScript(seed) }
			if d := diffStates(script(), unbounded(script)); d != "" {
				t.Fatalf("seed %d: bounded differs from unbounded: %s", seed, d)
			}
		}
	})
	t.Run("sparse", func(t *testing.T) {
		widened := 0
		densifyHook = func(int) { widened++ }
		defer func() { densifyHook = nil }()
		for seed := int64(0); seed < 150; seed++ {
			script := func() []solveState { return sparseBoundScript(seed) }
			if d := diffStates(script(), unbounded(script)); d != "" {
				t.Fatalf("seed %d: bounded differs from unbounded: %s", seed, d)
			}
		}
		if widened == 0 {
			t.Fatal("no script densified a row; the sparse escape hatch went untested")
		}
	})
	t.Run("sharded", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		for seed := int64(0); seed < 4; seed++ {
			want := unbounded(func() []solveState { return shardedBoundScript(seed, 1) })
			for _, workers := range []int{1, 4} {
				got := shardedBoundScript(seed, workers)
				if d := diffStates(got, want); d != "" {
					t.Fatalf("seed %d workers %d: bounded differs from unbounded serial: %s", seed, workers, d)
				}
			}
			got := unbounded(func() []solveState { return shardedBoundScript(seed, 4) })
			if d := diffStates(got, want); d != "" {
				t.Fatalf("seed %d: unbounded on 4 workers differs from serial: %s", seed, d)
			}
		}
	})
}

// TestShortestPathFrontierBounded: with the bound, a search keeps only the
// labels that can still pop before it reaches the sink, so a cold SDGA-stage
// solve (unit demands and capacities) never grows its heap past a few dozen
// entries: capacity 32, 32 and 64 at the three sizes below, against 1,280,
// 2,560 and 6,656 unbounded. It is a count, not a timing: it catches a bound
// that silently stops tightening.
func TestShortestPathFrontierBounded(t *testing.T) {
	for _, size := range []struct{ n, m int }{{200, 400}, {350, 700}, {1000, 2000}} {
		profit := benchProfit(rand.New(rand.NewSource(3)), size.n, size.m)
		var tr Transport
		if _, _, err := tr.SolveDense(profit, fillInts(size.n, 1), fillInts(size.m, 1)); err != nil {
			t.Fatalf("%dx%d: %v", size.n, size.m, err)
		}
		if c := cap(tr.heap); c > 256 {
			t.Errorf("%dx%d: heap grew to capacity %d, want <= 256", size.n, size.m, c)
		}
	}
}

// boundFuzzScript decodes data into a small dense instance and one edit of
// each kind: n ≤ 8 rows, m ≤ 12 columns, profits in quarters from −1 to
// 1.25 with ~10% Forbidden cells, demands and capacities 0–2; then one row
// edit (a re-drawn cell and a new demand, through ResolveRows) and one
// column edit (a new capacity, through Resolve). Missing bytes read as 0.
func boundFuzzScript(data []byte) func() []solveState {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	cell := func() float64 {
		if b := next() % 10; b < 9 {
			return float64(b-4) / 4
		}
		return Forbidden
	}
	n, m := 1+next()%8, 1+next()%12
	profit := make([][]float64, n)
	for i := range profit {
		profit[i] = make([]float64, m)
		for j := range profit[i] {
			profit[i][j] = cell()
		}
	}
	need, caps := make([]int, n), make([]int, m)
	for i := range need {
		need[i] = next() % 3
	}
	for j := range caps {
		caps[j] = next() % 3
	}
	row, col := next()%n, next()%m
	edited, newNeed := cell(), next()%3
	capCol, newCap := next()%m, next()%3
	return func() []solveState {
		p := make([][]float64, n)
		for i := range p {
			p[i] = append([]float64(nil), profit[i]...)
		}
		rn, cc := append([]int(nil), need...), append([]int(nil), caps...)
		tr := &Transport{}
		r := stateRecorder{tr: tr}
		r.record(tr.SolveDense(p, rn, cc))
		p[row][col], rn[row] = edited, newNeed
		r.record(tr.ResolveRows(p, []int{row}, rn, cc))
		cc[capCol] = newCap
		r.record(tr.Resolve(cc))
		return r.states
	}
}

// FuzzBoundedSearch runs boundFuzzScript's solve and two warm edits with
// the bound and without it, and requires bit-identical results, errors
// included. The two non-empty seeds are the first inputs the fuzzer found
// against a heap ordered by distance alone (a different plan of equal
// profit on the cold solve) and against a cancelImprovingCycle that
// tightened the bound too (different duals after the Resolve).
func FuzzBoundedSearch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("CA770002000000000000000000100011"))
	f.Add([]byte("CA0772210000000772y100011021221112117"))
	f.Fuzz(func(t *testing.T, data []byte) {
		script := boundFuzzScript(data)
		if d := diffStates(script(), unbounded(script)); d != "" {
			t.Fatalf("bounded differs from unbounded: %s", d)
		}
	})
}
