//go:build !race

package parajoin

const raceEnabled = false
