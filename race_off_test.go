//go:build !race

package seep_test

const raceEnabled = false
