//go:build race

package conduit

// raceEnabled reports that the race detector is compiled in.
const raceEnabled = true
