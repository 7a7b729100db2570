//go:build race

package wiretest

// raceEnabled reports that the race detector is compiled in.
const raceEnabled = true
