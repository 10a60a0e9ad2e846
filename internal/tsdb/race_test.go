//go:build race

package tsdb

// raceEnabled reports a race-detector build, whose sync.Pool drops items at
// random: a test of what a pool saves has nothing to measure there.
const raceEnabled = true
