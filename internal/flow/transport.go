// Package flow solves the transportation problems of the reviewer-assignment
// pipeline:
//
//   - the Stage-WGRAP sub-problem of the Stage Deepening Greedy Algorithm
//     when the per-stage reviewer workload ⌈δr/δp⌉ exceeds one (Section 4.2),
//     where the Hungarian algorithm no longer applies directly; and
//   - the ARAP/ILP baseline of the experiments (Section 5.2), whose
//     pair-additive objective makes the relaxation integral, so min-cost flow
//     yields the exact optimum.
//
// The solver is Transport. SolveSparse loads an instance into one CSR, one
// cell per candidate column of each row, or every column when the candidate
// lists are nil (SolveDense is that case). Costs are reduced to
// non-negative with Johnson-style node potentials. A greedy seed and one
// tight-edge blocking pass place most of the flow; each remaining unit then
// runs one single-source Dijkstra over the CSR-stored bipartite residual
// graph, on a 4-ary heap ordered by distance and then node index, bounded
// at the cheapest sink arrival it has labelled so far, so its frontier stays
// a few dozen entries wide and its result is bit-identical to the unbounded
// search's. ResolveRows warm-starts from the potentials and residual flow
// of the previous solve after per-row and capacity edits (the session's
// warm re-solves); Resolve is ResolveRows with no dirty row (SDGA's
// stage-capacity fallback). The original generic min-cost max-flow solver
// (successive shortest paths with SPFA, one search per unit of flow) lives
// on in the package tests as the parity reference.
package flow

import (
	"errors"
	"math"
	"sort"
	"sync"
)

// ErrInfeasible is returned when a transportation instance cannot satisfy the
// demand of every row.
var ErrInfeasible = errors.New("flow: demand cannot be satisfied")

// Forbidden marks an impossible row/column pairing in MaxProfitTransport.
var Forbidden = math.Inf(-1)

// validateTransport checks the preconditions of an instance of len(vals)
// rows and m columns: with nil cols every row has width m; otherwise
// vals[i] is position-aligned with cols[i], whose columns are strictly
// ascending and in range. Demands and capacities must be non-negative.
func validateTransport(vals [][]float64, cols [][]int32, m int, rowNeed, colCap []int) error {
	n := len(vals)
	if cols != nil && len(cols) != n || len(rowNeed) != n || len(colCap) != m {
		return errors.New("flow: dimension mismatch")
	}
	if m < 0 {
		return errors.New("flow: negative column count")
	}
	for i, row := range vals {
		var ids []int32
		width := m
		if cols != nil {
			ids = cols[i]
			width = len(ids)
		}
		if len(row) != width {
			return errors.New("flow: ragged profit matrix")
		}
		if rowNeed[i] < 0 {
			return errors.New("flow: negative row demand")
		}
		prev := int32(-1)
		for _, j := range ids {
			if j <= prev || int(j) >= m {
				return errors.New("flow: candidate columns must be strictly ascending and in range")
			}
			prev = j
		}
	}
	for _, c := range colCap {
		if c < 0 {
			return errors.New("flow: negative column capacity")
		}
	}
	return nil
}

// MaxProfitTransport solves the transportation problem used by Stage-WGRAP
// and the ARAP baseline: every row i (a paper) must be matched to exactly
// rowNeed[i] distinct columns (reviewers), every column j may serve at most
// colCap[j] rows, and the sum of profit[i][j] over matched pairs is
// maximised. Cells equal to Forbidden are never matched (conflicts of
// interest or reviewers already in the paper's group).
//
// It returns, for every row, the sorted list of matched column indices;
// callers that need to re-solve the same instance under changing capacities,
// or to warm-start a sequence of related instances, should hold a Transport
// instead.
func MaxProfitTransport(profit [][]float64, rowNeed, colCap []int) ([][]int, float64, error) {
	var t Transport
	return t.SolveDense(profit, rowNeed, colCap)
}

// tightEps is the tolerance under which a residual reduced cost counts as
// zero (a "tight" edge usable by the augmenting DFS). Potentials are sums of
// a handful of O(1)-magnitude profits, so float noise sits around 1e-15;
// 1e-12 leaves three orders of magnitude of slack without admitting paths
// that are measurably non-shortest.
const tightEps = 1e-12

// seedCands is how many tight candidate edges per row the instance-load pass
// records for the greedy seed placement (see seed). With continuous profits a
// row almost always has exactly one tight edge under cold duals, so a small
// fixed fan-out covers practically every row; rows that exhaust their
// candidates simply fall through to the augmenting DFS.
const seedCands = 4

// colArc is one unit of flow through a column: the row it serves and the CSR
// edge that carries it.
type colArc struct{ row, edge int32 }

// pathStep is one edge of an augmenting path: at even positions the CSR edge
// row→column being assigned (row is the tail), at odd positions the assigned
// edge being released (row is its owner).
type pathStep struct {
	edge int32
	row  int32
}

// Transport is a reusable solver for the Stage-WGRAP / ARAP transportation
// problem (see MaxProfitTransport for the model). It exists for two reasons
// beyond raw speed:
//
//   - all state — the CSR instance, flow, potentials and search scratch —
//     lives in flat buffers that are reused across calls, so the re-solves
//     of an SDGA stage through its Transport run allocation-free apart from
//     their result slices; and
//   - it is incremental: ResolveRows re-solves the current instance after
//     per-row profit or demand edits and column-capacity changes, and
//     Resolve, which is ResolveRows with no dirty row, after a capacity
//     change alone, warm-starting from the residual flow and potentials of
//     the previous solve so only the changed parts are re-worked (the
//     session warm re-solves and SDGA's stage-capacity fallback).
//
// The zero value is ready to use. A Transport must not be used concurrently;
// setting Workers > 1 runs some internal passes on more goroutines (see
// Workers), and the external contract is unchanged.
type Transport struct {
	// Workers bounds the goroutines of three sharded passes: the instance
	// load of SolveSparse (CSR build, cold duals, seed candidates), sharded
	// across rows; the row relaxations of every search once the instance has
	// relaxShardMin columns, sharded across one row's edges by a worker pool
	// (see relaxRowSharded); and the read phase of ResolveRows, sharded
	// across the dirty rows. 0 or 1 means serial. The plan, objective and
	// duals are identical for every value: each pass writes disjoint per-row
	// or per-worker state computed from inputs that nothing writes during
	// the pass, and the steps that consume it run serially in a fixed order.
	Workers int

	// DenseRow, when set, supplies the full-width profit row of row i on
	// demand (into buf, len m; the returned slice, which must have length m,
	// is read immediately). It is the escape hatch of the candidate-row load:
	// when a row's candidate columns all saturate (conflicted or at
	// capacity), the solver widens that one row to full width instead of
	// failing, so candidate pruning can never make a feasible instance
	// infeasible. The callback must stay consistent with the last loaded
	// instance until the next SolveSparse. It is called only from the
	// goroutine that calls the Transport, and never after a load without
	// candidate lists (every row is already full width).
	DenseRow func(row int, buf []float64) []float64

	n, m int

	// CSR of the loaded cells: row i's cells are
	// colIdx[rowStart[i]:rowStart[i+1]], cost holds the negated profit, so a
	// Forbidden (−Inf) cell carries +Inf cost. A row keeps one cell per
	// candidate column, or every column without candidate lists; the pattern
	// is edit-stable, so ResolveRows can re-cost any row in place.
	rowStart []int32
	colIdx   []int32
	cost     []float64
	assigned []bool
	sparse   bool
	// rowFull marks sparse rows widened to full width by the densification
	// escape hatch; their CSR segment covers every column (position == column
	// index, like a dense row).
	rowFull []bool
	// stuck collects the deficit rows whose shortest-path search failed in
	// the current attempt — the densification candidates.
	stuck []int32
	// reached collects, once each (reachedMark), the candidate-limited rows
	// that the failed searches of already-full stuck rows labeled: the
	// densification candidates once no stuck row is left to widen.
	reached     []int32
	reachedMark []bool
	denseBuf    []float64
	// Spare CSR buffers for rebuildSparseCSR (swapped with the live arrays on
	// every densification so repeated rebuilds do not allocate).
	rowStartTmp []int32
	colIdxTmp   []int32
	costTmp     []float64

	rowNeed []int
	colCap  []int
	rowFlow []int
	deficit int // Σ_i (rowNeed[i] − rowFlow[i])

	// colPairs[j] lists the units currently flowing through column j; its
	// length is the column's used capacity.
	colPairs [][]colArc

	// Node potentials (u rows, v columns, potT the implicit sink): every
	// residual edge keeps reduced cost c + pot(tail) − pot(head) ≥ 0, which
	// is what lets Dijkstra replace SPFA on a graph whose raw costs are
	// negative. potT − v[j] is the dual price of column j's capacity: zero
	// for columns with spare slots, positive for binding ones. Only dual
	// differences are meaningful: the per-phase Johnson update is applied
	// shifted by −distT so that untouched nodes keep their value (see
	// dijkstra), which keeps the update O(touched) instead of O(V).
	u, v   []float64
	potT   float64
	solved bool

	// Search scratch, generation-marked so a phase only initialises what it
	// touches: dist/settled/parentEdge/parentNode[x] are valid iff
	// mark[x] == gen, and arcRow/arcCol[x] iff arcMark[x] == gen. touched
	// lists the nodes labeled by the current phase — the only ones whose
	// potentials the Johnson update must move.
	dist       []float64
	settled    []bool
	parentEdge []int32
	parentNode []int32
	mark       []uint32
	arcMark    []uint32
	gen        uint32
	touched    []int32
	heap       []heapNode

	// bound prunes the current search: relaxNode drops every label above it.
	// shortestPathFrom starts each search at +Inf with tighten set, and every
	// spare column it labels lowers the bound to that column's sink arrival
	// (see tightenBound); cancelImprovingCycle keeps +Inf and never tightens.
	bound   float64
	tighten bool

	arcRow []int32
	arcCol []int32
	onPath []bool
	path   []pathStep

	// cycleCands collects every improving-cycle candidate settled by one
	// repair search (cancelImprovingCycle applies a node-disjoint batch of
	// them per search instead of the single best).
	cycleCands []cycleCand

	// relax, when non-nil, is the persistent worker pool that shards wide row
	// relaxations during a search (started around run and repairSinkDual when
	// Workers > 1 and the instance is wide enough); relaxBufs holds one
	// label-candidate buffer per worker (see relaxRowSharded).
	relax     *relaxPool
	relaxBufs [][]relaxCand

	// Scratch of the ResolveRows dirty-row pass: rrVals holds each dirty
	// row's new profits (a widened row's in rrBuf, re-read by the serial
	// validation pass); rrKeep and rrBest hold the keep decision and the
	// released-dual value computed by the (possibly sharded) read phase,
	// consumed by the serial claim phase.
	rrVals [][]float64
	rrBuf  []float64
	rrKeep []bool
	rrBest []float64

	// deficitRows lists the rows still short of their demand, rebuilt once
	// per run and compacted lazily, so phases iterate deficits instead of
	// scanning all n rows.
	deficitRows []int32

	// cand holds seedCands tight candidate edges per row (-1 padded),
	// produced by the instance-load pass and consumed once by seed.
	cand      []int32
	seedReady bool
}

// heapNode is one frontier entry: a node index and the distance it was pushed
// with. Stale entries (their node already settled, or re-pushed with a
// smaller distance) are skipped on pop.
type heapNode struct {
	d float64
	x int32
}

// before orders frontier entries by distance, then by descending node index.
// Keys are unique within a search (label re-pushes a node only at a strictly
// smaller distance), so the order is total: the pop sequence depends only on
// which entries were pushed, never on the heap's shape, and a search that
// drops entries above its bound pops the rest in the same order as one that
// keeps them. Descending puts columns (nodes n and up) before rows at equal
// distance: a column relaxes a few backward arcs and may end the search (a
// spare slot, an improving cycle), while a row scans its whole width, so the
// warm repair searches scan fewer rows than under ascending order (see the
// README's transport section).
func (a heapNode) before(b heapNode) bool {
	return a.d < b.d || a.d == b.d && a.x > b.x
}

// cycleCand is one improving-cycle candidate of a repair search: an
// underpriced spare column settled through the flow, with its cycle value
// (settled distance + sink gap, < 0 for an improvement).
type cycleCand struct {
	cand float64
	j    int32
}

// relaxCand is one improving label found by a sharded row-relaxation worker:
// the edge and the tentative distance of its column.
type relaxCand struct {
	d float64
	e int32
}

// SolveDense is SolveSparse over every column: profit[i][j] is the profit of
// pairing row i with column j.
func (t *Transport) SolveDense(profit [][]float64, rowNeed, colCap []int) ([][]int, float64, error) {
	m := 0
	if len(profit) > 0 {
		m = len(profit[0])
	}
	return t.SolveSparse(profit, nil, m, rowNeed, colCap)
}

// SolveSparse loads the instance into the solver's flat buffers and computes
// an optimal transportation plan, returning the per-row matched columns
// (sorted) and the total profit. vals[i][x] is the profit of pairing row i
// with column cols[i][x] (columns strictly ascending per row); pairs outside
// the candidate lists do not exist, so every pass — CSR build, cold duals,
// greedy seeding, Dijkstra phases, ResolveRows — scales with the candidate
// count instead of m. With nil cols every row lists every column: vals is
// the dense n×m profit matrix.
//
// Forbidden cells are kept at +Inf cost (a +Inf-cost edge is never used), so
// the loaded pattern survives any later per-row profit edit and ResolveRows
// can re-cost rows in place for warm re-solves after conflict additions,
// withdrawals or score changes. When a candidate row's columns saturate and
// its demand cannot be met, the solver widens that row to full width through
// the DenseRow callback and retries (see Transport.DenseRow) — with the
// callback set, SolveSparse is infeasible only when the underlying dense
// instance is. On ErrInfeasible the partial maximum flow is retained, so a
// following Resolve with enlarged capacities continues from it instead of
// starting over.
func (t *Transport) SolveSparse(vals [][]float64, cols [][]int32, m int, rowNeed, colCap []int) ([][]int, float64, error) {
	if err := validateTransport(vals, cols, m, rowNeed, colCap); err != nil {
		return nil, 0, err
	}
	n := len(vals)
	if n == 0 {
		t.n, t.m = 0, 0
		t.solved = true
		return nil, 0, nil
	}
	t.n, t.m = n, m
	t.sparse = cols != nil
	t.rowFull = growBool(t.rowFull, n)
	clear(t.rowFull)
	t.rowStart = growInt32(t.rowStart, n+1)
	t.rowStart[0] = 0
	for i, row := range vals {
		t.rowStart[i+1] = t.rowStart[i] + int32(len(row))
	}
	total := int(t.rowStart[n])
	t.colIdx = growInt32(t.colIdx, total)
	t.cost = growFloat(t.cost, total)
	shardRows(t.loadWorkers(), n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			base := int(t.rowStart[i])
			idx := t.colIdx[base : base+len(vals[i])]
			if cols != nil {
				copy(idx, cols[i])
			} else {
				for j := range idx {
					idx[j] = int32(j)
				}
			}
			for x, p := range vals[i] {
				t.cost[base+x] = -p
			}
		}
	})
	t.load(rowNeed, colCap)
	if err := t.run(); err != nil {
		return nil, 0, err
	}
	return t.extract()
}

// load resets the solver state of a freshly built CSR: demands, capacities,
// zero flow and cold duals.
func (t *Transport) load(rowNeed, colCap []int) {
	n, m := t.n, t.m
	t.assigned = growBool(t.assigned, len(t.colIdx))
	clear(t.assigned)
	t.rowNeed = growInt(t.rowNeed, n)
	copy(t.rowNeed, rowNeed)
	t.colCap = growInt(t.colCap, m)
	copy(t.colCap, colCap)
	t.rowFlow = growInt(t.rowFlow, n)
	clear(t.rowFlow)
	t.deficit = 0
	for _, need := range rowNeed {
		t.deficit += need
	}
	if cap(t.colPairs) < m {
		t.colPairs = make([][]colArc, m)
	}
	t.colPairs = t.colPairs[:m]
	for j := range t.colPairs {
		t.colPairs[j] = t.colPairs[j][:0]
	}

	// Potentials: with zero flow the residual graph has no backward arcs,
	// so a row's true shortest path is simply its best cell — which is what
	// cold duals (v = 0, u[i] = max_j profit[i][j], potT = 0) encode. They
	// make every column sink-tight, letting the greedy seed and tight pass
	// place most units before the first Dijkstra. (Retaining the previous
	// instance's spread-out column duals was measured to serialise the
	// augmentation to one unit per phase, an order of magnitude slower —
	// after a cost change, cold duals are the correct warm start.)
	t.v = growFloat(t.v, m)
	clear(t.v)
	t.u = growFloat(t.u, n)
	t.resetDualsForEmptyFlow()
	t.solved = true
}

// loadWorkers returns the effective worker count for the instance-load
// passes: Workers capped to something useful for the instance size.
func (t *Transport) loadWorkers() int {
	w := t.Workers
	if w <= 1 || t.n < 2 {
		return 1
	}
	// Below ~64k cells the goroutine handoff costs more than it saves.
	if t.n*t.m < 1<<16 {
		return 1
	}
	if w > t.n {
		w = t.n
	}
	return w
}

// resolveRowsWorkers bounds the goroutines of the ResolveRows read phase:
// the per-row work is O(m), so small batches (a single withdrawal, one late
// conflict) stay serial — the handoff would cost more than it saves.
func (t *Transport) resolveRowsWorkers(nr int) int {
	w := t.Workers
	if w <= 1 || nr < 2 {
		return 1
	}
	if nr*t.m < 1<<15 {
		return 1
	}
	if w > nr {
		w = nr
	}
	return w
}

// duplicateRows reports whether rows lists the same index twice.
func duplicateRows(rows []int) bool {
	seen := make(map[int]struct{}, len(rows))
	for _, i := range rows {
		if _, ok := seen[i]; ok {
			return true
		}
		seen[i] = struct{}{}
	}
	return false
}

// shardRows runs fn over [0, n) split into one contiguous block per worker.
// Blocks are disjoint, so fn may write per-row state without synchronisation.
func shardRows(workers, n int, fn func(lo, hi int)) {
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Resolve re-solves the instance of the preceding SolveSparse after a column
// capacity change: it is ResolveRows with no dirty row, so profits and row
// demands are those of the last solve. Columns whose capacity grew simply
// regain spare slots, columns now over capacity have the surplus units
// cancelled (the affected rows are fully released and their dual repaired),
// and only the resulting deficits are re-augmented.
func (t *Transport) Resolve(colCap []int) ([][]int, float64, error) {
	return t.ResolveRows(nil, nil, t.rowNeed[:t.n], colCap)
}

// ResolveRows re-solves the instance of the preceding SolveSparse after
// in-place edits to the profit rows listed in rows: each dirty row's costs
// are re-read from profit (the CSR pattern is unchanged, so Forbidden cells
// simply become +Inf), its flow is released and its dual repaired, its
// demand is updated from rowNeed, and column capacities are updated as in
// Resolve. Only the released units are re-augmented unless the sink-side
// dual turns infeasible, in which case the flow restarts from cold duals on
// the kept CSR (still far cheaper than a cold solve, which would also
// rescan every clean row).
//
// profit rows are position-aligned with the loaded CSR: the full row after a
// load without candidate lists, the candidate cells (in candidate order)
// otherwise. A candidate row the escape hatch widened to full width is
// re-read through the DenseRow callback instead of profit[i], so callers
// keep handing the same P×k rows regardless of densification. rowNeed and
// colCap are the full new vectors; rowNeed may differ from the previous
// solve only at the dirty rows. Rows not listed in rows must have unchanged
// profits; listing the same row twice is allowed but defeats the sharded
// read phase below. With no dirty row, profit is not read and may be nil:
// that is Resolve. Every input, the rows DenseRow re-reads included, is
// checked before any state changes, so a rejected call leaves the costs,
// demands, capacities and flow as they were.
//
// With Workers > 1 and enough dirty rows to pay for the goroutine handoff,
// the per-row read phase — keep/release decision, CSR re-cost, released-dual
// value — runs sharded across the dirty rows: it only reads shared state the
// claim phase never writes (column duals and each row's own CSR segment), so
// per-row results land in disjoint scratch slots. The order-sensitive claim
// phase (flow releases mutate the shared per-column pair lists) then replays
// them serially in rows order — the same deterministic split as the sharded
// instance load, so the plan is bit-identical for every worker count.
func (t *Transport) ResolveRows(profit [][]float64, rows []int, rowNeed, colCap []int) ([][]int, float64, error) {
	if !t.solved {
		return nil, 0, errors.New("flow: re-solve called before a solve")
	}
	if len(rowNeed) != t.n || len(colCap) != t.m || len(rows) > 0 && len(profit) != t.n {
		return nil, 0, errors.New("flow: dimension mismatch")
	}
	if t.n == 0 {
		return nil, 0, nil
	}
	// Validation pass (serial, cheap): everything the sharded read phase and
	// the column loop rely on is checked up front, so neither can fail after
	// the state started to change.
	for _, c := range colCap {
		if c < 0 {
			return nil, 0, errors.New("flow: negative column capacity")
		}
	}
	widened := 0
	for _, i := range rows {
		if i < 0 || i >= t.n {
			return nil, 0, errors.New("flow: dirty row out of range")
		}
		if rowNeed[i] < 0 {
			return nil, 0, errors.New("flow: negative row demand")
		}
		if t.sparse && t.rowFull[i] {
			if t.DenseRow == nil {
				return nil, 0, errors.New("flow: densified row edited without a DenseRow callback")
			}
			widened++
		} else if len(profit[i]) != int(t.rowStart[i+1]-t.rowStart[i]) {
			return nil, 0, errors.New("flow: dirty row not position-aligned with the loaded pattern")
		}
	}
	// Each dirty row's new profits: its profit row, or for a widened row the
	// full row DenseRow re-reads into its own slice of rrBuf, refused here if
	// it has the wrong width.
	t.rrBuf = growFloat(t.rrBuf, widened*t.m)
	t.rrVals = t.rrVals[:0]
	off := 0
	for _, i := range rows {
		row := profit[i]
		if t.sparse && t.rowFull[i] {
			buf := t.rrBuf[off : off+t.m : off+t.m]
			off += t.m
			if row = t.DenseRow(i, buf); len(row) != t.m {
				return nil, 0, errors.New("flow: DenseRow returned a row of the wrong width")
			}
			copy(buf, row)
			row = buf
		}
		t.rrVals = append(t.rrVals, row)
	}
	workers := t.resolveRowsWorkers(len(rows))
	if workers > 1 && duplicateRows(rows) {
		// A repeated row would make the sharded segment writes race; the
		// serial order handles it (the second pass is a no-op).
		workers = 1
	}
	t.rrKeep = growBool(t.rrKeep, len(rows))
	t.rrBest = growFloat(t.rrBest, len(rows))
	shardRows(workers, len(rows), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			i := rows[k]
			base := int(t.rowStart[i])
			rowVals := t.rrVals[k]
			// Fast path: when the row's demand is unchanged, no assigned cell
			// changed cost, and every unassigned cell keeps a non-negative
			// reduced cost under the current duals (always true for pure cost
			// increases — a new conflict turns an unassigned cell +Inf), the
			// retained flow stays optimal as-is: patch the costs in place and
			// keep the row's flow, duals and everything downstream untouched.
			// This is the dominant session case — a late COI on a pair the
			// stage never assigned — and it avoids the release → re-augment →
			// possible flow-reset cascade entirely.
			keep := false
			if rowNeed[i] == t.rowNeed[i] {
				keep = true
				ui := t.u[i]
				for x, p := range rowVals {
					e := base + x
					nc := -p
					if t.assigned[e] {
						if nc != t.cost[e] {
							keep = false
							break
						}
						continue
					}
					if nc+ui-t.v[t.colIdx[e]] < -tightEps {
						keep = false
						break
					}
				}
			}
			// Re-cost the row's CSR segment in place; the pattern (one edge
			// per column / per candidate) is unchanged by construction.
			for x, p := range rowVals {
				t.cost[base+x] = -p
			}
			t.rrKeep[k] = keep
			if !keep {
				// Released dual for the new costs: with no assigned pairs,
				// u[i] = max_j (v[j] − cost) keeps every residual edge of the
				// row at non-negative reduced cost.
				best := 0.0
				for e := t.rowStart[i]; e < t.rowStart[i+1]; e++ {
					if rd := t.v[t.colIdx[e]] - t.cost[e]; e == t.rowStart[i] || rd > best {
						best = rd
					}
				}
				t.rrBest[k] = best
			}
		}
	})
	// Drop the references to the caller's rows: a matrix the caller has
	// since reallocated must not stay reachable through the scratch.
	clear(t.rrVals)
	// Claim phase (serial, in rows order): flow releases mutate the shared
	// per-column pair lists, and their swap-remove order must match the
	// serial replay for bit-identical plans.
	for k, i := range rows {
		if t.rrKeep[k] {
			continue
		}
		t.releaseRowFlow(i)
		t.u[i] = t.rrBest[k]
		t.deficit += rowNeed[i] - t.rowNeed[i]
		t.rowNeed[i] = rowNeed[i]
	}
	// Column-capacity changes: cancel surplus units on shrunk columns, then
	// check the sink-side dual stays feasible (a column with spare capacity
	// must carry no capacity price).
	for j, c := range colCap {
		for len(t.colPairs[j]) > c {
			a := t.colPairs[j][len(t.colPairs[j])-1]
			t.releaseRow(int(a.row))
		}
		t.colCap[j] = c
	}
	t.repairSinkDual()
	if err := t.run(); err != nil {
		return nil, 0, err
	}
	return t.extract()
}

// repairSinkDual re-establishes the sink-side dual invariant after flow
// releases or capacity changes. The invariant has two halves: columns with
// spare capacity need v[j] ≥ potT (their sink arc is residual) and columns
// carrying flow need v[j] ≤ potT (their reverse sink arc is residual). A
// release or a capacity bump can free a slot on a priced column, leaving
// v[j] below the stale potT — but as long as every flowed column prices at
// or below every spare one, the dual is repairable by re-pinning potT into
// the valid band, keeping the whole residual graph at non-negative reduced
// cost (hence the retained flow optimal for its value) without discarding
// anything. Only when a flowed column genuinely out-prices a spare one —
// flow placed elsewhere would profitably reroute into the freed slots —
// does the flow restart from cold duals (the CSR instance is kept, so no
// matrix pass is repeated — still far cheaper than a cold solve).
func (t *Transport) repairSinkDual() {
	// Edit-sized repairs (a withdrawal, one shrunk column) need zero to a
	// couple of cycles; a repair that is still not pinnable after several is
	// a bulk change (e.g. SDGA's stage-capacity relaxation frees slots on
	// hundreds of priced columns), where restarting the flow from cold duals
	// on the kept CSR — with the greedy seed re-placing most units — is far
	// cheaper than cancelling the backlog one full-graph search at a time.
	const bound = 8
	if t.startRelaxPool() {
		defer t.stopRelaxPool()
	}
	for iter := 0; iter < bound; iter++ {
		if t.trySinkDualPin() {
			return
		}
		if !t.cancelImprovingCycle() {
			break
		}
	}
	if t.trySinkDualPin() {
		return
	}
	t.resetFlow()
}

// trySinkDualPin re-pins the sink potential into the feasible band when one
// exists (every flowed column prices at or below every spare one) and
// reports success.
func (t *Transport) trySinkDualPin() bool {
	maxFlowed := math.Inf(-1)
	minSpare := math.Inf(1)
	for j := 0; j < t.m; j++ {
		if v := t.v[j]; len(t.colPairs[j]) > 0 && v > maxFlowed {
			maxFlowed = v
		}
		if v := t.v[j]; len(t.colPairs[j]) < t.colCap[j] && v < minSpare {
			minSpare = v
		}
	}
	if maxFlowed > minSpare+tightEps {
		return false
	}
	pot := t.potT
	if pot > minSpare {
		pot = minSpare
	}
	if pot < maxFlowed {
		pot = maxFlowed
	}
	t.potT = pot
	return true
}

// ensureScratch sizes the generation-marked search scratch for the current
// instance. Freshly grown mark arrays are zero-valued; beginPhase keeps gen
// strictly positive, so stale entries can never alias a live generation.
func (t *Transport) ensureScratch() {
	total := t.n + t.m
	t.dist = growFloat(t.dist, total)
	t.settled = growBool(t.settled, total)
	t.parentEdge = growInt32(t.parentEdge, total)
	t.parentNode = growInt32(t.parentNode, total)
	if cap(t.mark) < total {
		t.mark = make([]uint32, total)
	} else {
		t.mark = t.mark[:total]
	}
	if cap(t.arcMark) < total {
		t.arcMark = make([]uint32, total)
	} else {
		t.arcMark = t.arcMark[:total]
	}
	t.arcRow = growInt32(t.arcRow, t.n)
	t.arcCol = growInt32(t.arcCol, t.m)
	// onPath relies on an all-false invariant maintained by dfs/apply, so it
	// is zeroed only when the buffer actually grows.
	if cap(t.onPath) < total {
		t.onPath = make([]bool, total)
	} else {
		t.onPath = t.onPath[:total]
	}
}

// beginPhase opens a fresh search generation: previously written dist,
// settled, parent and current-arc entries all become invalid at once, without
// touching the arrays. The search bound resets to +Inf with tightening off,
// which is how cancelImprovingCycle runs; shortestPathFrom turns tightening
// on.
func (t *Transport) beginPhase() {
	if t.gen == math.MaxUint32 {
		// Clear the full capacity, not just the current length: a smaller
		// instance may have resliced the arrays, and a later regrow would
		// otherwise re-expose pre-wrap marks that alias the restarted
		// generation counter.
		clear(t.mark[:cap(t.mark)])
		clear(t.arcMark[:cap(t.arcMark)])
		t.gen = 0
	}
	t.gen++
	t.heap = t.heap[:0]
	t.touched = t.touched[:0]
	t.bound, t.tighten = math.Inf(1), false
}

// label relaxes node x to distance d with the given parent, pushing a
// frontier entry. Unmarked nodes are initialised lazily.
func (t *Transport) label(x int32, d float64, pe, pn int32) {
	if t.mark[x] != t.gen {
		t.mark[x] = t.gen
		t.settled[x] = false
		t.touched = append(t.touched, x)
	} else if d >= t.dist[x] {
		return
	}
	t.dist[x] = d
	t.parentEdge[x] = pe
	t.parentNode[x] = pn
	t.heapPush(heapNode{d: d, x: x})
}

// isSettled reports whether x was settled in the current generation.
func (t *Transport) isSettled(x int32) bool {
	return t.mark[x] == t.gen && t.settled[x]
}

// distOf returns x's current-generation distance, +Inf when unlabeled.
func (t *Transport) distOf(x int32) float64 {
	if t.mark[x] == t.gen {
		return t.dist[x]
	}
	return math.Inf(1)
}

// heapPush / heapPop implement a 4-ary min-heap under heapNode.before with
// lazy deletion: nodes are re-pushed on every improvement and stale entries
// skipped on pop.
func (t *Transport) heapPush(hn heapNode) {
	t.heap = append(t.heap, hn)
	i := len(t.heap) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if t.heap[p].before(hn) {
			break
		}
		t.heap[i] = t.heap[p]
		i = p
	}
	t.heap[i] = hn
}

func (t *Transport) heapPop() heapNode {
	h := t.heap
	top := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	t.heap = h
	if len(h) > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= len(h) {
				break
			}
			end := c + 4
			if end > len(h) {
				end = len(h)
			}
			min := c
			for k := c + 1; k < end; k++ {
				if h[k].before(h[min]) {
					min = k
				}
			}
			if last.before(h[min]) {
				break
			}
			h[i] = h[min]
			i = min
		}
		h[i] = last
	}
	return top
}

// resetDualsForEmptyFlow derives valid potentials for a zero-flow state from
// the current column duals — u rows cover the pair edges, potT the
// column→sink edges — and records each row's tight candidate edges for the
// greedy seed pass. When Workers > 1 the per-row pass is sharded (each row's
// dual and candidate slots are disjoint, so the result is identical).
func (t *Transport) resetDualsForEmptyFlow() {
	t.cand = growInt32(t.cand, t.n*seedCands)
	shardRows(t.loadWorkers(), t.n, t.rowDualsAndCands)
	t.seedReady = true
	t.potT = 0
	seeded := false
	for j := 0; j < t.m; j++ {
		if t.colCap[j] > 0 && (!seeded || t.v[j] < t.potT) {
			t.potT, seeded = t.v[j], true
		}
	}
}

// rowDualsAndCands computes u[i] = max_e (v[col(e)] − cost[e]) for rows
// [lo, hi) and collects up to seedCands edges within tightEps of the running
// maximum. Candidates are re-verified against the final dual at claim time,
// so the running-max approximation can only lose candidates, never admit a
// non-tight one.
func (t *Transport) rowDualsAndCands(lo, hi int) {
	for i := lo; i < hi; i++ {
		base := i * seedCands
		nc := 0
		best := 0.0
		for e := t.rowStart[i]; e < t.rowStart[i+1]; e++ {
			rd := t.v[t.colIdx[e]] - t.cost[e]
			if e == t.rowStart[i] || rd > best {
				if rd > best+tightEps {
					nc = 0
				}
				best = rd
			}
			if nc < seedCands && rd >= best-tightEps {
				t.cand[base+nc] = e
				nc++
			}
		}
		for k := nc; k < seedCands; k++ {
			t.cand[base+k] = -1
		}
		t.u[i] = best
	}
}

// resetFlow discards the placed flow and restarts from cold duals (see load:
// spread column duals serialise zero-flow augmentation), keeping the
// CSR instance so no matrix pass is repeated.
func (t *Transport) resetFlow() {
	if resetFlowHook != nil {
		resetFlowHook()
	}
	clear(t.assigned[:len(t.colIdx)])
	clear(t.rowFlow[:t.n])
	for j := range t.colPairs {
		t.colPairs[j] = t.colPairs[j][:0]
	}
	t.deficit = 0
	for i := 0; i < t.n; i++ {
		t.deficit += t.rowNeed[i]
	}
	clear(t.v[:t.m])
	t.resetDualsForEmptyFlow()
}

// releaseRow cancels every unit of flow through row r and repairs its dual.
// Releasing the whole row (rather than a single pair) keeps the reduced-cost
// invariant local: with no assigned pairs left, setting u[r] to the row
// maximum of v[j] + profit makes all of its — now residual — edges
// non-negative again without touching any other node's potential.
func (t *Transport) releaseRow(r int) {
	best := 0.0
	for e := t.rowStart[r]; e < t.rowStart[r+1]; e++ {
		if t.assigned[e] {
			t.assigned[e] = false
			t.removeArc(int(t.colIdx[e]), e)
		}
		if rd := t.v[t.colIdx[e]] - t.cost[e]; e == t.rowStart[r] || rd > best {
			best = rd
		}
	}
	t.deficit += t.rowFlow[r]
	t.rowFlow[r] = 0
	t.u[r] = best
}

// releaseRowFlow is the flow half of releaseRow: it cancels row r's units
// without recomputing the dual. ResolveRows uses it when the released dual
// was already computed (against the row's new costs) by the sharded read
// phase.
func (t *Transport) releaseRowFlow(r int) {
	for e := t.rowStart[r]; e < t.rowStart[r+1]; e++ {
		if t.assigned[e] {
			t.assigned[e] = false
			t.removeArc(int(t.colIdx[e]), e)
		}
	}
	t.deficit += t.rowFlow[r]
	t.rowFlow[r] = 0
}

// removeArc deletes the unit carried by edge from column j's list.
func (t *Transport) removeArc(j int, edge int32) {
	arcs := t.colPairs[j]
	for k := range arcs {
		if arcs[k].edge == edge {
			arcs[k] = arcs[len(arcs)-1]
			t.colPairs[j] = arcs[:len(arcs)-1]
			return
		}
	}
}

// run drives the solve until every row demand is met: a greedy seed over
// the recorded tight candidates and a tight-edge blocking pass first (with
// cold duals they already place most units), then one single-source
// shortest-path phase per remaining unit of deficit. Single-source phases
// keep the settled set small: with continuous profits each Dijkstra can only
// ever expose one new augmenting path, so searching from every deficit row
// at once (the previous multi-source formulation) settled and relaxed the
// whole near-tight neighbourhood of all deficit rows for every single unit
// placed — two orders of magnitude more edge relaxations at paper scale. The
// search bound keeps the heap small too: a phase still scans every settled
// row's full width, but it pushes only the labels that can pop before the
// sink (see shortestPathFrom).
//
// In sparse mode with a DenseRow callback, an attempt that leaves stuck rows
// (sink unreachable within their candidate columns) widens those rows to
// full width and retries from a flow reset; each row widens at most once, so
// the loop terminates, and a final failure means the full-width instance is
// genuinely infeasible.
func (t *Transport) run() error {
	if t.startRelaxPool() {
		defer t.stopRelaxPool()
	}
	for {
		if t.deficit == 0 {
			return nil
		}
		t.ensureScratch()
		t.collectDeficitRows()
		t.beginPhase()
		t.seed()
		t.augmentTight(t.deficitRows)
		// Every augmentation fills exactly one spare column slot, so once none
		// are left the remaining deficit rows cannot possibly be served — skip
		// their (individually failing) searches wholesale. At most deficit
		// augmentations remain, so no column counts for more slots than that,
		// which keeps the sum from overflowing at capacities near the int
		// range.
		spare := 0
		for j := 0; j < t.m; j++ {
			spare += min(t.colCap[j]-len(t.colPairs[j]), t.deficit)
		}
		t.stuck = t.stuck[:0]
		for _, x := range t.reached {
			t.reachedMark[x] = false
		}
		t.reached = t.reached[:0]
		for _, i32 := range t.deficitRows {
			i := int(i32)
			for t.rowFlow[i] < t.rowNeed[i] && spare > 0 {
				jStar, ok := t.shortestPathFrom(i)
				if !ok {
					// This row cannot reach the sink (residual reachability
					// accounts for every rerouting of the placed flow), but
					// later deficit rows may still be satisfiable: keep
					// augmenting them so the retained partial flow is maximal —
					// the contract a follow-up Resolve with enlarged capacities
					// continues from. In sparse mode the row is also the
					// densification candidate of the retry below.
					t.stuck = append(t.stuck, i32)
					if t.sparse && t.rowFull[i] {
						t.noteReached()
					}
					break
				}
				t.augmentParentChain(jStar)
				spare--
			}
		}
		if t.deficit == 0 {
			return nil
		}
		if !t.densifyStuck() {
			return ErrInfeasible
		}
	}
}

// noteReached records the candidate-limited rows labeled by the failed
// search that just ended (the rows of t.touched), each once per attempt.
func (t *Transport) noteReached() {
	if len(t.reachedMark) < t.n {
		t.reachedMark = make([]bool, t.n)
	}
	for _, x := range t.touched {
		if int(x) < t.n && !t.rowFull[x] && !t.reachedMark[x] {
			t.reachedMark[x] = true
			t.reached = append(t.reached, x)
		}
	}
}

// densifyStuck is the sparse escape hatch: it widens every not-yet-full
// stuck row to the full column width (costs via the DenseRow callback),
// rebuilds the CSR and restarts the flow from cold duals. When every stuck
// row is already full, it widens the candidate-limited rows their failed
// searches reached instead: an augmenting path of the dense instance may
// leave through a column outside such a row's candidates. It reports whether
// anything was widened — false means densification cannot help (a dense load,
// no callback, or a stuck row whose whole reachable set is full width, which
// proves the dense instance infeasible) and the caller fails with
// ErrInfeasible. The flow reset it forces is acceptable because saturated
// candidate sets are the rare tail case the escape hatch exists for, not the
// steady state.
func (t *Transport) densifyStuck() bool {
	if !t.sparse || t.DenseRow == nil || len(t.stuck) == 0 {
		return false
	}
	newly := 0
	for _, i32 := range t.stuck {
		if !t.rowFull[i32] {
			t.rowFull[i32] = true
			newly++
		}
	}
	if newly == 0 {
		for _, i32 := range t.reached {
			t.rowFull[i32] = true
		}
		newly = len(t.reached)
	}
	if newly == 0 {
		return false
	}
	if densifyHook != nil {
		densifyHook(newly)
	}
	t.rebuildSparseCSR()
	t.resetFlow()
	return true
}

// rebuildSparseCSR rebuilds the CSR with every rowFull row widened to the
// full column width (position == column index, like a dense row); other
// rows' segments are copied unchanged. The live and spare CSR buffers are
// swapped, so repeated densifications reuse the same two generations of
// arrays.
func (t *Transport) rebuildSparseCSR() {
	n, m := t.n, t.m
	newStart := growInt32(t.rowStartTmp, n+1)
	newStart[0] = 0
	for i := 0; i < n; i++ {
		seg := t.rowStart[i+1] - t.rowStart[i]
		if t.rowFull[i] {
			seg = int32(m)
		}
		newStart[i+1] = newStart[i] + seg
	}
	total := int(newStart[n])
	newIdx := growInt32(t.colIdxTmp, total)
	newCost := growFloat(t.costTmp, total)
	t.denseBuf = growFloat(t.denseBuf, m)
	for i := 0; i < n; i++ {
		base := int(newStart[i])
		oldBase := int(t.rowStart[i])
		oldSeg := int(t.rowStart[i+1]) - oldBase
		if t.rowFull[i] && oldSeg < m {
			row := t.DenseRow(i, t.denseBuf[:m])
			for j := 0; j < m; j++ {
				newIdx[base+j] = int32(j)
				newCost[base+j] = -row[j]
			}
			continue
		}
		copy(newIdx[base:base+oldSeg], t.colIdx[oldBase:oldBase+oldSeg])
		copy(newCost[base:base+oldSeg], t.cost[oldBase:oldBase+oldSeg])
	}
	t.rowStartTmp, t.rowStart = t.rowStart, newStart
	t.colIdxTmp, t.colIdx = t.colIdx, newIdx
	t.costTmp, t.cost = t.cost, newCost
	t.assigned = growBool(t.assigned, total)
	// resetFlow (the caller's next step) clears assigned and re-derives duals
	// and seeds from the new CSR; the old edge indices die with the old flow.
}

// collectDeficitRows rebuilds the deficit-row list (ascending) — the one
// O(n) scan of a run; later phases work off the compacted list.
func (t *Transport) collectDeficitRows() {
	t.deficitRows = t.deficitRows[:0]
	for i := 0; i < t.n; i++ {
		if t.rowFlow[i] < t.rowNeed[i] {
			t.deficitRows = append(t.deficitRows, int32(i))
		}
	}
}

// seed places one unit per recorded tight candidate edge, in ascending row
// order. The candidates were computed (possibly in parallel) by the
// instance-load pass from immutable state; the serial claim order makes the
// placement deterministic and independent of the worker count. Each claim is
// re-verified against the current duals and capacities, so a stale or
// non-tight candidate is simply skipped and the row falls through to the
// augmenting DFS.
func (t *Transport) seed() {
	if !t.seedReady {
		return
	}
	t.seedReady = false
	for _, i32 := range t.deficitRows {
		i := int(i32)
		ui := t.u[i]
		if math.IsInf(ui, -1) {
			continue
		}
		base := i * seedCands
		for k := 0; k < seedCands && t.rowFlow[i] < t.rowNeed[i]; k++ {
			e := t.cand[base+k]
			if e < 0 {
				break
			}
			j := int(t.colIdx[e])
			if t.assigned[e] || len(t.colPairs[j]) >= t.colCap[j] {
				continue
			}
			if t.cost[e]+ui-t.v[j] > tightEps || t.v[j]-t.potT > tightEps {
				continue
			}
			t.assigned[e] = true
			t.colPairs[j] = append(t.colPairs[j], colArc{row: i32, edge: e})
			t.rowFlow[i]++
			t.deficit--
		}
	}
}

// relaxNode relaxes every residual arc out of node x, just settled at
// distance bd: for a column, the backward arcs to the rows it currently
// serves; for a row, its unassigned (non-Forbidden) forward cells. Labels
// above the search bound are dropped (see shortestPathFrom). Shared by the
// shortest-path phases and the improving-cycle repair so the two search
// paths can never diverge in how they price arcs; the repair search keeps
// the bound at +Inf, because its capped Johnson update reads every label.
func (t *Transport) relaxNode(x int32, bd float64) {
	n := t.n
	if int(x) >= n {
		j := int(x) - n
		vj := t.v[j]
		for _, a := range t.colPairs[j] {
			if t.isSettled(a.row) {
				continue
			}
			rd := vj - t.cost[a.edge] - t.u[a.row]
			if rd < 0 {
				rd = 0
			}
			nd := bd + rd
			if nd > t.bound {
				continue // could only pop after the search stops
			}
			t.label(a.row, nd, a.edge, x)
		}
		return
	}
	r := int(x)
	ur := t.u[r]
	lo, hi := t.rowStart[r], t.rowStart[r+1]
	if t.relax != nil && int(hi-lo) >= relaxShardMin {
		t.relaxRowSharded(x, bd, ur, lo, hi)
		return
	}
	for e := lo; e < hi; e++ {
		if t.assigned[e] {
			continue
		}
		c := t.cost[e]
		if math.IsInf(c, 1) {
			continue // Forbidden cell, kept at +Inf cost
		}
		j := t.colIdx[e]
		y := int32(n) + j
		if t.isSettled(y) {
			continue
		}
		rd := c + ur - t.v[j]
		if rd < 0 {
			rd = 0
		}
		nd := bd + rd
		if nd > t.bound {
			continue // could only pop after the search stops
		}
		t.label(y, nd, e, x)
		if t.tighten {
			t.tightenBound(j, nd)
		}
	}
}

// tightenBound lowers the search bound to the sink arrival through column j,
// just labelled at distance d; a column without a spare slot leaves it
// alone. Labels above the bound are dropped, and a label equal to it is
// kept: the search may still settle that one before it stops (see
// shortestPathFrom). Callers check t.tighten first, which the repair
// search leaves off.
func (t *Transport) tightenBound(j int32, d float64) {
	if b := t.sinkArrival(int(j), d); b < t.bound {
		t.bound = b
	}
}

// sinkArrival is the distance at which a search reaches the sink through
// column j at distance d: d plus the reduced cost max(0, v[j] − potT) of the
// column's sink arc, or +Inf when the column has no spare slot.
func (t *Transport) sinkArrival(j int, d float64) float64 {
	if len(t.colPairs[j]) >= t.colCap[j] {
		return math.Inf(1)
	}
	rd := t.v[j] - t.potT
	if rd < 0 {
		rd = 0
	}
	return d + rd
}

// relaxShardMin is the row width below which the sharded relaxation is not
// worth the goroutine handoff.
const relaxShardMin = 1024

// relaxRowSharded relaxes a settled row's outgoing arcs with the reduced-cost
// scan sharded across the relax pool's workers. A CSR row holds each column
// at most once, so the per-edge computations are independent: workers only
// read shared search state (cost, duals, dist, settled, the bound — nothing
// writes them while a scan is dispatched) and collect their improving labels
// into per-worker buffers; the label/heap mutation, with the bound check and
// tightening, then replays serially in ascending edge order, the exact order
// the serial scan issues, so the heap sequence — and with it every
// downstream settle, parent and potential — is bit-identical for any worker
// count. This is the lever that parallelises the warm repair searches: each
// one is a near-full-graph Dijkstra whose time is almost entirely this scan.
func (t *Transport) relaxRowSharded(x int32, bd, ur float64, lo, hi int32) {
	p := t.relax
	p.dispatch(x, bd, ur, lo, hi)
	n := t.n
	for _, buf := range t.relaxBufs[:p.workers] {
		for _, rc := range buf {
			if rc.d > t.bound {
				continue
			}
			j := t.colIdx[rc.e]
			t.label(int32(n)+j, rc.d, rc.e, x)
			if t.tighten {
				t.tightenBound(j, rc.d)
			}
		}
	}
}

// relaxScan is one worker's shard of a dispatched row relaxation: the
// contiguous edge range [lo + wi·seg/w, lo + (wi+1)·seg/w) of the row,
// filtered and priced exactly like the serial loop in relaxNode, with the
// improving labels appended to the worker's relaxBufs entry instead of
// applied. Concatenating the buffers in worker order restores ascending edge
// order.
func (t *Transport) relaxScan(wi, w int, x int32, bd, ur float64, lo, hi int32) {
	buf := t.relaxBufs[wi][:0]
	n, seg, bound := t.n, int(hi-lo), t.bound
	for e := lo + int32(wi*seg/w); e < lo+int32((wi+1)*seg/w); e++ {
		if t.assigned[e] {
			continue
		}
		c := t.cost[e]
		if math.IsInf(c, 1) {
			continue // Forbidden cell, kept at +Inf cost
		}
		j := t.colIdx[e]
		y := int32(n) + j
		if t.isSettled(y) {
			continue
		}
		nd := bd + (c + ur - t.v[j])
		if nd < bd {
			nd = bd // same clamp as the serial rd < 0 branch
		}
		// Cheap pre-filters against the bound and distances as they stood at
		// dispatch; the serial replay re-applies both checks against their
		// current values, so a label another shard outprices, or whose bound
		// an earlier edge's label tightened, is still dropped.
		if nd > bound || t.mark[y] == t.gen && nd >= t.dist[y] {
			continue
		}
		buf = append(buf, relaxCand{d: nd, e: e})
	}
	t.relaxBufs[wi] = buf
}

// searchWorkers resolves the sharded-relaxation worker count: Workers, off
// for narrow instances where no row can clear relaxShardMin.
func (t *Transport) searchWorkers() int {
	w := t.Workers
	if w <= 1 || t.m < relaxShardMin {
		return 1
	}
	return w
}

// shortestPathFrom runs one heap-frontier Dijkstra from deficit row root
// over the residual graph under reduced costs — including the column→sink
// edges, whose reduced cost v[j] − potT prices each column's remaining
// capacity — stopping once every node closer than the sink is settled. It
// then shifts the touched potentials by min(dist, D) − D with D the sink
// distance: the Johnson update with a global −D offset folded in, which
// leaves untouched nodes exactly as they were (only dual differences matter —
// see the potential invariant on Transport) so the update costs O(touched)
// instead of O(V). Returns the column through which the sink was reached, or
// ok=false when the sink is unreachable from root (the instance is infeasible
// at the current capacities: residual reachability accounts for every
// possible rerouting of the placed flow).
//
// The search is bounded: every spare column it labels lowers t.bound to that
// column's sink arrival (tightenBound), and relaxNode drops every label above
// the bound. Without the bound, almost every push of a wide search is a
// label that never pops. The result is bit-identical to the unbounded
// search's:
//   - the bound is the length of a real path to the sink, so it never falls
//     below D, and a dropped label could only have popped after the stop;
//   - a node whose labels were all dropped ends at a distance ≥ D either
//     way, so the update min(d, D) − D leaves its potential alone;
//   - the heap's (distance, node) order is total, so the entries at or below
//     D pop in the same order with or without the dropped ones (with a
//     distance-only order, the heap's shape decided among equal distances,
//     and dropping entries changed the shape);
//   - a failed search labels no spare column, so its bound stays +Inf and
//     touched, which noteReached reads for densification, is unchanged.
func (t *Transport) shortestPathFrom(root int) (jStar int, ok bool) {
	t.beginPhase()
	t.tighten = !unboundedSearch
	if math.IsInf(t.u[root], -1) {
		// Every cell of the row is Forbidden (the CSR keeps them at +Inf
		// cost), so the sink is unreachable.
		return -1, false
	}
	n := t.n
	t.label(int32(root), 0, -1, -1)
	distT := math.Inf(1)
	jStar = -1
	for len(t.heap) > 0 {
		hn := t.heapPop()
		x, bd := hn.x, hn.d
		if t.settled[x] || bd > t.dist[x] {
			continue // stale frontier entry
		}
		if bd > distT {
			break
		}
		t.settled[x] = true
		if int(x) >= n {
			if nd := t.sinkArrival(int(x)-n, bd); nd < distT {
				distT, jStar = nd, int(x)-n
			}
		}
		t.relaxNode(x, bd)
	}
	if jStar < 0 {
		return -1, false
	}
	for _, x := range t.touched {
		d := t.dist[x]
		if d >= distT {
			continue // min(d, D) − D = 0: potential unchanged
		}
		if int(x) < n {
			t.u[x] += d - distT
		} else {
			t.v[int(x)-n] += d - distT
		}
	}
	return jStar, true
}

// augmentTight pushes as many units as possible along tight
// (zero-reduced-cost) residual paths from the given deficit rows to spare
// columns — a blocking-flow pass over the admissible subgraph with
// Dinic-style current arcs. Pushing along tight edges keeps the flow optimal
// for its value under the unchanged potentials, so any deficit row may
// augment in any order. It runs once per solve, over the deficit rows the
// greedy seed left unplaced, under cold duals (where ties are plentiful);
// the single-source phases that follow place exactly one unit each, so they
// augment the parent chain directly instead.
func (t *Transport) augmentTight(roots []int32) int {
	pushed := 0
	for _, i32 := range roots {
		i := int(i32)
		for t.rowFlow[i] < t.rowNeed[i] {
			if !t.dfs(i) {
				break
			}
			pushed++
		}
	}
	return pushed
}

// dfs searches one tight augmenting path from deficit row start and applies
// it. Current-arc pointers (generation-marked, initialised on first touch)
// only advance past permanently unusable prefixes (assigned or non-tight
// edges); on-path nodes are skipped without advancing so a temporarily
// blocked edge can be reused by a later search.
func (t *Transport) dfs(start int) bool {
	t.path = t.path[:0]
	t.onPath[start] = true
	cur := start
	for {
		if cur < t.n { // at a row: take a tight unassigned edge forward
			r := cur
			if t.arcMark[r] != t.gen {
				t.arcMark[r] = t.gen
				t.arcRow[r] = t.rowStart[r]
			}
			next := -1
			var took int32
			for k := t.arcRow[r]; k < t.rowStart[r+1]; k++ {
				e := k
				j := int(t.colIdx[e])
				usable := !t.assigned[e] && t.cost[e]+t.u[r]-t.v[j] <= tightEps
				if !usable {
					if k == t.arcRow[r] {
						t.arcRow[r]++
					}
					continue
				}
				if t.onPath[t.n+j] {
					continue
				}
				next, took = t.n+j, e
				break
			}
			if next >= 0 {
				t.path = append(t.path, pathStep{edge: took, row: int32(r)})
				t.onPath[next] = true
				cur = next
				continue
			}
			t.onPath[r] = false
			if len(t.path) == 0 {
				return false
			}
			last := t.path[len(t.path)-1] // arc that led here from a column
			t.path = t.path[:len(t.path)-1]
			cur = t.n + int(t.colIdx[last.edge])
			t.arcCol[cur-t.n]++
		} else { // at a column: tight spare slot, or a tight residual arc back
			j := cur - t.n
			if t.arcMark[t.n+j] != t.gen {
				t.arcMark[t.n+j] = t.gen
				t.arcCol[j] = 0
			}
			if len(t.colPairs[j]) < t.colCap[j] && t.v[j]-t.potT <= tightEps {
				t.apply(start)
				return true
			}
			next := -1
			var took colArc
			for k := t.arcCol[j]; int(k) < len(t.colPairs[j]); k++ {
				a := t.colPairs[j][k]
				usable := t.v[j]-t.cost[a.edge]-t.u[a.row] <= tightEps
				if !usable {
					if k == t.arcCol[j] {
						t.arcCol[j]++
					}
					continue
				}
				if t.onPath[a.row] {
					continue
				}
				next, took = int(a.row), a
				break
			}
			if next >= 0 {
				t.path = append(t.path, pathStep{edge: took.edge, row: took.row})
				t.onPath[next] = true
				cur = next
				continue
			}
			t.onPath[t.n+j] = false
			if len(t.path) == 0 {
				return false
			}
			last := t.path[len(t.path)-1] // edge that led here from a row
			t.path = t.path[:len(t.path)-1]
			cur = int(last.row)
			t.arcRow[cur]++
		}
	}
}

// apply commits the path accumulated by dfs (or augmentParentChain): even
// steps assign their edge, odd steps release theirs, and the starting row
// gains one unit of flow. It also clears the path's on-path marks.
func (t *Transport) apply(start int) {
	for k, st := range t.path {
		j := int(t.colIdx[st.edge])
		if k%2 == 0 {
			t.assigned[st.edge] = true
			t.colPairs[j] = append(t.colPairs[j], colArc{row: st.row, edge: st.edge})
			t.onPath[t.n+j] = false
		} else {
			t.assigned[st.edge] = false
			t.removeArc(j, st.edge)
			t.onPath[int(st.row)] = false
		}
	}
	t.onPath[start] = false
	t.rowFlow[start]++
	t.deficit--
}

// augmentParentChain pushes one unit along the Dijkstra shortest-path tree
// into spare column jStar — the fallback that guarantees phase progress when
// rounding keeps the tight DFS from reproducing the path.
func (t *Transport) augmentParentChain(jStar int) {
	t.path = t.path[:0]
	x := t.n + jStar
	for t.parentEdge[x] >= 0 {
		e, from := t.parentEdge[x], t.parentNode[x]
		if x >= t.n {
			t.path = append(t.path, pathStep{edge: e, row: from})
		} else {
			t.path = append(t.path, pathStep{edge: e, row: int32(x)})
		}
		x = int(from)
	}
	for l, r := 0, len(t.path)-1; l < r; l, r = l+1, r-1 {
		t.path[l], t.path[r] = t.path[r], t.path[l]
	}
	t.apply(x)
}

// cancelImprovingCycle removes a batch of negative residual cycles through
// freed spare slots, the targeted alternative to a full flow reset: a
// withdrawal (or capacity shrink) that frees a slot on a priced column
// creates exactly one family of negative residual arcs — column→sink on the
// underpriced spare columns — while every other residual arc keeps a
// non-negative reduced cost. Each improving reroute is therefore a shortest
// path from the sink (entering through some flowed column, alternating
// backward and forward pair arcs) into an underpriced spare column,
// computable with one Dijkstra. The search stops early once no unsettled
// node can close a better cycle (popped distance + the most negative
// spare-column sink gap can no longer beat the best candidate); it records
// every improving candidate it settles along the way, and applies a maximal
// node-disjoint set of them — best first — under a single Johnson update
// capped at B, the largest selected target distance. The cap is exact: every
// unsettled label is ≥ the exit distance ≥ B, so min(dist, cap) matches what
// the full search would have computed for every arc that matters; and every
// node of a selected path carries dist ≤ its target's distance ≤ B, so each
// selected path comes out tight. Disjointness makes the applications
// independent — the paths of the parent tree either share a suffix toward
// the sink or nothing, so a batch of node-disjoint tree paths flips disjoint
// arc sets — and the selection order (ascending cycle value, column index as
// tie-break) is deterministic, so the repair is Workers-independent.
// Batching matters because one edit wave frees many slots at once: a
// coalesced withdrawal batch used to cost one full-graph search per freed
// slot, and now costs one search per cascade depth. Returns false when no
// improving cycle remains, after a capped potential update that certifies
// the repaired dual for the reachable columns (the caller then re-checks the
// band and only resets in the residual pathological cases). Unlike the phase
// update of shortestPathFrom, potT stays fixed here, so the update is the
// plain (unshifted) Johnson shift over all nodes — acceptable on this repair
// path.
func (t *Transport) cancelImprovingCycle() bool {
	t.ensureScratch()
	t.beginPhase()
	n, m := t.n, t.m
	// Seed with the sink's outgoing residual arcs: sink→j for every flowed
	// column (reduced cost potT − v[j] ≥ 0), and record the most negative
	// sink gap of a spare column — the early-exit bound below.
	minSpareGap := math.Inf(1)
	for j := 0; j < m; j++ {
		if len(t.colPairs[j]) > 0 {
			rd := t.potT - t.v[j]
			if rd < 0 {
				rd = 0
			}
			t.label(int32(n+j), rd, -1, -2)
		}
		if len(t.colPairs[j]) < t.colCap[j] {
			if g := t.v[j] - t.potT; g < minSpareGap {
				minSpareGap = g
			}
		}
	}
	t.cycleCands = t.cycleCands[:0]
	candBest := -tightEps
	exitB := math.Inf(1)
	for len(t.heap) > 0 {
		hn := t.heapPop()
		x, bd := hn.x, hn.d
		if t.settled[x] || bd > t.dist[x] {
			continue
		}
		if bd+minSpareGap >= candBest {
			// No reachable spare column can close a cycle below candBest any
			// more: every unsettled label is ≥ bd, so its candidate value is
			// ≥ bd + minSpareGap.
			exitB = bd
			break
		}
		t.settled[x] = true
		if int(x) >= n {
			j := int(x) - n
			// An underpriced spare column settled through the flow (not
			// straight from the sink, which would close a zero cycle) is an
			// improving-cycle candidate.
			if len(t.colPairs[j]) < t.colCap[j] && t.parentNode[x] != -2 {
				if cand := bd + t.v[j] - t.potT; cand < -tightEps {
					t.cycleCands = append(t.cycleCands, cycleCand{cand: cand, j: int32(j)})
					if cand < candBest {
						candBest = cand
					}
				}
			}
		}
		t.relaxNode(x, bd)
	}
	maxD := 0.0
	for _, x := range t.touched {
		if d := t.dist[x]; d > maxD {
			maxD = d
		}
	}
	if len(t.cycleCands) == 0 {
		// No improving cycle: raise the reachable potentials so every
		// non-improving spare column becomes sink-feasible, then report
		// exhaustion. The cap is maxD on natural exhaustion (every label
		// settled and exact) and the exit distance on an early exit (every
		// unsettled label is ≥ exitB, so capping there is exact).
		bound := math.Min(maxD, exitB)
		for i := 0; i < n; i++ {
			t.u[i] += math.Min(t.distOf(int32(i)), bound)
		}
		for j := 0; j < m; j++ {
			t.v[j] += math.Min(t.distOf(int32(n+j)), bound)
		}
		return false
	}
	// Select a maximal node-disjoint candidate set, best cycle first. Used
	// nodes are marked in arcMark (free under the fresh generation: the tight
	// DFS that shares it never runs inside this search). Paths of the parent
	// tree that touch any marked node would share their whole tail toward the
	// sink, so a single mark check per node is a complete overlap test.
	sort.Slice(t.cycleCands, func(a, b int) bool {
		ca, cb := t.cycleCands[a], t.cycleCands[b]
		if ca.cand != cb.cand {
			return ca.cand < cb.cand
		}
		return ca.j < cb.j
	})
	sel := t.cycleCands[:0]
	B := 0.0
	for _, c := range t.cycleCands {
		x, free := n+int(c.j), true
		for {
			if t.arcMark[x] == t.gen {
				free = false
				break
			}
			if t.parentNode[x] == -2 {
				break
			}
			if x >= n {
				x = int(t.parentNode[x])
			} else {
				x = n + int(t.colIdx[t.parentEdge[x]])
			}
		}
		if !free {
			continue
		}
		x = n + int(c.j)
		for {
			t.arcMark[x] = t.gen
			if t.parentNode[x] == -2 {
				break
			}
			if x >= n {
				x = int(t.parentNode[x])
			} else {
				x = n + int(t.colIdx[t.parentEdge[x]])
			}
		}
		sel = append(sel, c)
		if d := t.dist[n+int(c.j)]; d > B {
			B = d
		}
	}
	// One capped Johnson update covers the whole batch: B ≤ the exit
	// distance, so the cap argument above holds, and every selected path's
	// nodes sit at dist ≤ B, so all selected paths turn tight at once.
	for i := 0; i < n; i++ {
		t.u[i] += math.Min(t.distOf(int32(i)), B)
	}
	for j := 0; j < m; j++ {
		t.v[j] += math.Min(t.distOf(int32(n+j)), B)
	}
	for _, c := range sel {
		// Extract the path sink→j2→r1→…→jStar from the parent pointers; after
		// reversal the first step is the released pair (r1, j2) and the rest
		// is a standard alternating augmenting path from r1 into jStar.
		t.path = t.path[:0]
		x := n + int(c.j)
		for t.parentNode[x] != -2 {
			if x >= n {
				t.path = append(t.path, pathStep{edge: t.parentEdge[x], row: t.parentNode[x]})
				x = int(t.parentNode[x])
			} else {
				t.path = append(t.path, pathStep{edge: t.parentEdge[x], row: int32(x)})
				x = n + int(t.colIdx[t.parentEdge[x]])
			}
		}
		for l, r := 0, len(t.path)-1; l < r; l, r = l+1, r-1 {
			t.path[l], t.path[r] = t.path[r], t.path[l]
		}
		first := t.path[0]
		j2 := int(t.colIdx[first.edge])
		t.assigned[first.edge] = false
		t.removeArc(j2, first.edge)
		t.rowFlow[first.row]--
		t.deficit++
		t.path = t.path[1:]
		t.apply(int(first.row))
	}
	return true
}

// extract materialises the per-row column lists and the total profit.
func (t *Transport) extract() ([][]int, float64, error) {
	out := make([][]int, t.n)
	total := 0.0
	for j, arcs := range t.colPairs[:t.m] {
		for _, a := range arcs {
			out[a.row] = append(out[a.row], j)
			total -= t.cost[a.edge]
		}
	}
	for _, cols := range out {
		sort.Ints(cols)
	}
	return out, total, nil
}

// growInt32 and friends return s resized to n, reallocating only when the
// capacity is insufficient; contents are unspecified (callers overwrite).
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growFloat(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// resetFlowHook, when non-nil, is invoked whenever an incremental re-solve
// falls back to restarting the flow from cold duals; tests and benchmarks
// use it to count resets.
var resetFlowHook func()

// densifyHook, when non-nil, is invoked with the number of rows newly widened
// whenever the sparse escape hatch densifies stuck rows; tests use it to
// assert the hatch fires (or stays quiet) where expected.
var densifyHook func(rows int)

// unboundedSearch, when set, keeps every shortestPathFrom search at an
// infinite bound: the unpruned reference that tests compare the bounded
// search against, bit for bit. Only tests write it; a search reads it once,
// when it opens.
var unboundedSearch bool
