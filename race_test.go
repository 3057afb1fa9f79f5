//go:build race

package parajoin

// raceEnabled reports a -race build, which slows every path a timing
// bound covers.
const raceEnabled = true
