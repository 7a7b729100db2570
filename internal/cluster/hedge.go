package cluster

import "conduit/internal/sim"

// HedgePick selects the shard worth hedging after a scatter completes:
// the slowest shard, but only when it is a genuine straggler — its
// elapsed time exceeds threshold times the fastest shard's. In a
// homogeneous cluster the un-degraded shards finish in near-identical
// simulated time, so a straggler test against the minimum separates a
// degraded (injected-slow, contended) shard from ordinary plan skew.
// Ties break to the lowest index; the decision is a pure function of
// the inputs, keeping hedged runs deterministic. It returns -1 when no
// shard qualifies (including clusters of fewer than two shards, where a
// duplicate dispatch could only duplicate the whole request).
func HedgePick(elapsed []sim.Time, threshold float64) int {
	if len(elapsed) < 2 {
		return -1
	}
	slowest, fastest := 0, 0
	for i, e := range elapsed {
		if e > elapsed[slowest] {
			slowest = i
		}
		if e < elapsed[fastest] {
			fastest = i
		}
	}
	if float64(elapsed[slowest]) > threshold*float64(elapsed[fastest]) {
		return slowest
	}
	return -1
}
