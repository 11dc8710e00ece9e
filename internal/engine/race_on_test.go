//go:build race

package engine

// raceEnabled reports a -race build, where sync.Pool deliberately drops a
// share of the items put back and allocation counts are meaningless.
const raceEnabled = true
