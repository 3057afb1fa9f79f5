//go:build race

package spill

// raceEnabled reports a -race build, in which sync.Pool drops a share of
// what it is given on purpose, so allocation counts say nothing.
const raceEnabled = true
