//go:build !race

package tsdb

// raceEnabled reports a race-detector build (race_test.go).
const raceEnabled = false
