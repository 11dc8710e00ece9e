package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Matrix is a flat, row-major profit matrix with cached per-row views. The
// zero value is ready to use; every fill reuses the backing buffer across
// solver invocations (SDGA rebuilds the matrix every stage, SRA every round),
// so a steady-state fill performs no allocation.
//
// A fill without candidate lists leaves the dense layout: row p holds one
// cell per column. A fill with candidate lists leaves the sparse-row layout:
// row p holds one cell per entry of its candidate list, in candidate order,
// so Row(p)[x] is the profit of pairing p with candidate cand[p][x]. The
// sparse layout is what the candidate-pruned solve path hands to
// flow.Transport.SolveSparse, keeping every downstream pass O(P·k) instead of
// O(P·R).
type Matrix struct {
	rows, cols int
	data       []float64
	views      [][]float64
	// cand, when non-nil, holds the per-row candidate column lists of the
	// sparse-row layout (ascending; owned by the caller and only read here).
	cand [][]int32
}

// reset resizes the matrix to rows×cols, reusing the backing storage when
// it is large enough: dense views of width cols when cand is nil, otherwise
// the sparse-row layout, whose row p holds len(cand[p]) cells. cand is
// retained (not copied) and must stay immutable while the matrix is in use.
// Cell contents are unspecified after reset; fills overwrite every cell.
func (m *Matrix) reset(rows, cols int, cand [][]int32) {
	total := rows * cols
	if cand != nil {
		total = 0
		for _, c := range cand {
			total += len(c)
		}
	}
	if cap(m.data) < total {
		m.data = make([]float64, total)
	} else {
		m.data = m.data[:total]
	}
	if cap(m.views) < rows {
		m.views = make([][]float64, rows)
	} else {
		m.views = m.views[:rows]
	}
	off := 0
	for p := 0; p < rows; p++ {
		end := off + cols
		if cand != nil {
			end = off + len(cand[p])
		}
		m.views[p] = m.data[off:end:end]
		off = end
	}
	m.rows, m.cols = rows, cols
	m.cand = cand
}

// Row returns row p as a slice view into the flat buffer: one cell per
// column in the dense layout, one per candidate in the sparse-row layout.
func (m *Matrix) Row(p int) []float64 { return m.views[p] }

// Rows returns all row views; the result aliases the flat buffer and can be
// handed directly to the [][]float64-based solvers (flow, lap) without
// copying.
func (m *Matrix) Rows() [][]float64 { return m.views }

// ProfitSpec describes one profit-matrix build. Cell (p, r) receives the
// marginal gain of adding reviewer r to paper p's current group (or the
// plain pair score when GroupVecs is nil), unless the pair is forbidden.
//
// Forbidden and Bonus are invoked concurrently from the worker pool and must
// be safe for concurrent use; in practice they only read solver state that
// is frozen during the build.
type ProfitSpec struct {
	// GroupVecs[p] is paper p's current group expertise vector. A nil slice
	// means the empty group for every paper, i.e. cells hold pair scores.
	GroupVecs []core.Vector
	// Forbidden reports pairs that must never be assigned (conflicts of
	// interest, exhausted capacity, already-assigned pairs); their cells are
	// set to ForbiddenValue instead of a gain.
	Forbidden func(p, r int) bool
	// ForbiddenValue is the sentinel stored in forbidden cells (callers pass
	// the marker their downstream solver expects, e.g. flow.Forbidden).
	ForbiddenValue float64
	// Bonus optionally adds a modular per-pair term to the gain (the
	// session's stage tie-break). When set, the cell is gain + Bonus(p, r).
	Bonus func(p, r int) float64
}

// fillRowBlock is the number of rows one fill unit covers: the worker pool
// hands out blocks of rows, each filled row by row through fillRow.
const fillRowBlock = 64

// profitCell computes the value of cell (p, r) per spec, one cell at a time.
// It is the fill path of the reviewer-coverage, paper-coverage, dot-product
// and custom scores, and the reference the weighted-coverage row kernel
// (weightedRow) is tested against bit for bit. gv is the paper's group
// vector (nil for pair scores).
func (o *Oracle) profitCell(p, r int, gv core.Vector, spec *ProfitSpec) float64 {
	if spec.Forbidden != nil && spec.Forbidden(p, r) {
		return spec.ForbiddenValue
	}
	var gain float64
	if gv == nil {
		gain = o.PairScore(r, p)
	} else {
		gain = o.Gain(p, gv, r)
	}
	if spec.Bonus != nil {
		gain += spec.Bonus(p, r)
	}
	return gain
}

// fillJob is the shared state of one fill: what to fill, and the unit
// counter its workers claim row blocks (or dirty rows) from. Jobs are pooled
// on the Oracle, so a steady-state fill allocates nothing.
type fillJob struct {
	o    *Oracle
	ctx  context.Context
	m    *Matrix
	spec ProfitSpec
	pn   *topicPanel // nil unless the score is weighted coverage
	// rows lists the rows of a FillProfitRows refill; nil for full fills,
	// whose units are blocks of fillRowBlock rows.
	rows  []int
	units int
	next  atomic.Int64
	wg    sync.WaitGroup
}

// newJob draws a job from the pool and resolves the reviewer panel for it.
func (o *Oracle) newJob(ctx context.Context, m *Matrix, spec *ProfitSpec, rows []int, units int) *fillJob {
	j := o.jobPool.Get().(*fillJob)
	j.o, j.ctx, j.m, j.spec, j.rows, j.units = o, ctx, m, *spec, rows, units
	j.pn = nil
	if o.kind == kindWeighted {
		j.pn = o.panelFor()
	}
	return j
}

// release drops the job's references and returns it to the pool.
func (j *fillJob) release() {
	o := j.o
	j.o, j.ctx, j.m, j.spec, j.pn, j.rows = nil, nil, nil, ProfitSpec{}, nil, nil
	o.jobPool.Put(j)
}

// fillRow fills row p: every column in the dense layout, or the candidate
// columns cand of the sparse-row layout. Weighted coverage goes through the
// residual-topic row kernel; every other score fills cell by cell.
func (j *fillJob) fillRow(sc *rowScratch, row []float64, p int, cand []int32) {
	if j.pn != nil {
		j.weightedRow(sc, row, p, cand)
		return
	}
	var gv core.Vector
	if j.spec.GroupVecs != nil {
		gv = j.spec.GroupVecs[p]
	}
	if cand != nil {
		for x, r := range cand {
			row[x] = j.o.profitCell(p, int(r), gv, &j.spec)
		}
		return
	}
	for i := range row {
		row[i] = j.o.profitCell(p, i, gv, &j.spec)
	}
}

// unit fills work unit u: one dirty row of a refill, or one block of rows
// of a full fill.
func (j *fillJob) unit(sc *rowScratch, u int) {
	p0 := u * fillRowBlock
	p1 := min(p0+fillRowBlock, j.m.rows)
	if j.rows != nil {
		p0 = j.rows[u]
		p1 = p0 + 1
	}
	for p := p0; p < p1; p++ {
		var cand []int32
		if j.m.cand != nil {
			cand = j.m.cand[p]
		}
		j.fillRow(sc, j.m.views[p], p, cand)
	}
}

// drain claims and fills units until none are left or the context is done.
func (j *fillJob) drain() {
	sc := j.o.getScratch()
	for {
		u := int(j.next.Add(1)) - 1
		if u >= j.units || j.ctx.Err() != nil {
			break
		}
		j.unit(sc, u)
	}
	j.o.rowPool.Put(sc)
}

// fillHandoff passes jobs to freshly started fill workers. Each job is sent
// once per worker started for it, and each worker takes exactly one job, so
// workers started by concurrent fills may take each other's jobs and every
// job still gets its count.
var fillHandoff = make(chan *fillJob)

// fillWorker is one helper goroutine of a fill. It is a plain function so
// starting it allocates nothing.
func fillWorker() {
	j := <-fillHandoff
	j.drain()
	j.wg.Done()
}

// run fills the job's units across a GOMAXPROCS-sized worker pool — the
// calling goroutine plus helpers — and returns the job to the pool. Units
// are claimed from an atomic counter so uneven unit costs still balance.
func (j *fillJob) run() error {
	workers := min(runtime.GOMAXPROCS(0), j.units)
	j.next.Store(0)
	j.wg.Add(max(workers-1, 0))
	for i := 1; i < workers; i++ {
		go fillWorker()
		fillHandoff <- j
	}
	j.drain()
	j.wg.Wait()
	err := j.ctx.Err()
	j.release()
	return err
}

// FillRowInto fills one full-width profit row for paper p into row (len R),
// per spec. It is the densification callback of the sparse solve path:
// flow.Transport widens a row to full width when its candidate set saturates,
// and needs the row's dense profits on demand without a Matrix rebuild. It
// is safe to call from several goroutines at once for distinct rows.
func (o *Oracle) FillRowInto(row []float64, p int, spec ProfitSpec) {
	j := o.newJob(context.Background(), nil, &spec, nil, 0)
	sc := o.getScratch()
	j.fillRow(sc, row, p, nil)
	o.rowPool.Put(sc)
	j.release()
}

// FillProfit builds the dense P×R profit matrix described by spec into m
// (FillProfitSparse without candidate lists).
func (o *Oracle) FillProfit(ctx context.Context, m *Matrix, spec ProfitSpec) error {
	return o.FillProfitSparse(ctx, m, spec, nil)
}

// FillProfitSparse builds the profit matrix described by spec into m: row p
// receives one cell per entry of cand[p] (its candidate reviewers,
// ascending), so the build costs O(P·k) cells instead of O(P·R), or, with
// nil cand, one cell per reviewer. Blocks of rows are filled in parallel
// with a GOMAXPROCS-sized worker pool. cand is retained by the matrix and
// must stay immutable while the matrix is in use. It returns ctx.Err() if
// the context is cancelled mid-build (the matrix contents are then
// unspecified).
func (o *Oracle) FillProfitSparse(ctx context.Context, m *Matrix, spec ProfitSpec, cand [][]int32) error {
	P, R := o.in.NumPapers(), o.in.NumReviewers()
	if cand != nil && len(cand) != P {
		return errors.New("engine: FillProfitSparse candidate lists do not cover the papers")
	}
	m.reset(P, R, cand)
	return o.newJob(ctx, m, &spec, nil, (P+fillRowBlock-1)/fillRowBlock).run()
}

// FillProfitRows rebuilds only the given rows of a previously filled profit
// matrix (the dirty-row refill of session warm re-solves: after a small
// instance edit most papers' gains are unchanged, so refilling the handful
// of dirty rows replaces a full P×R build with an |rows|×R one).
// m must already hold a P×R fill — dense or sparse-row; a sparse matrix
// refills only the dirty rows' candidate cells. The untouched rows keep
// their contents.
func (o *Oracle) FillProfitRows(ctx context.Context, m *Matrix, spec ProfitSpec, rows []int) error {
	P, R := o.in.NumPapers(), o.in.NumReviewers()
	if m.rows != P || m.cols != R {
		return errors.New("engine: FillProfitRows on a matrix with stale dimensions")
	}
	return o.newJob(ctx, m, &spec, rows, len(rows)).run()
}
