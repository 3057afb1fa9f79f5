//go:build !race

package spill

const raceEnabled = false
