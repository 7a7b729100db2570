//go:build !race

package serve

// raceEnabled reports that the race detector is compiled in.
const raceEnabled = false
