//go:build !amd64

package engine

// useAVX is always false off amd64, where the Go loop is the only path.
var useAVX = false

// vectorStep covers no columns off amd64: weightedRow's Go loop fills the
// whole row.
func vectorStep(row, x []float64, p, c, lo float64) int { return 0 }
