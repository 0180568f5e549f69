//go:build race

package dist

// raceEnabled reports that the race detector is on: it makes sync.Pool
// drop entries at random, so allocation counts that rely on a warm pool
// do not hold.
const raceEnabled = true
