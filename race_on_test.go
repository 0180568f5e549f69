//go:build race

package seep_test

// raceEnabled reports that the race detector is on: everything runs
// several times slower, so wall-clock assertions loosen.
const raceEnabled = true
