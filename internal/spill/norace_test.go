//go:build !race

package spill

// raceEnabled reports a -race build (race_test.go).
const raceEnabled = false
