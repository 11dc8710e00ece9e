package engine

// rowAVX runs the dense row step on the first len(row) &^ 7 columns:
// row[i] += max(min(x[i], p) - c, lo), eight columns per iteration
// (kernel_amd64.s). It needs AVX and len(x) >= len(row).
//
//go:noescape
func rowAVX(row, x []float64, p, c, lo float64)

// cpuHasAVX reports whether the CPU has AVX and the OS saves YMM state.
func cpuHasAVX() bool

// useAVX selects the vector step. It is set once from the CPU; only tests
// write to it, to run the Go loop alone.
var useAVX = cpuHasAVX()

// vectorStep adds one open topic's term to the leading columns of a dense
// row with rowAVX and returns how many columns it covered; the caller's Go
// loop finishes the rest, and is the whole row without AVX. Gain rows pass
// c = c_t and lo = 0, pair-score rows c = 0 and lo = −Inf, so a covered
// cell gets max(0, min(x, p_t) − c_t) or exactly min(x, p_t), with the
// same bits as the Go loop (the package doc gives the argument).
//
// The race detector does not instrument assembly. The Go finishing loop of
// weightedRow still writes every cell after this step, and the panel is
// immutable once published, so -race runs of the fill tests keep their
// coverage.
func vectorStep(row, x []float64, p, c, lo float64) int {
	n := len(row) &^ 7
	if !useAVX || n == 0 {
		return 0
	}
	rowAVX(row[:n], x[:n], p, c, lo)
	return n
}
