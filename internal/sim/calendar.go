package sim

import "fmt"

// Calendar models a serial resource — a flash channel bus, a DRAM bank, a
// controller core, an execution queue — as a "busy until" horizon. Work
// reserved on the calendar executes strictly in FIFO order, which matches
// the per-resource execution queues in the simulated SSD (§4.3.2 of the
// paper: one dedicated execution queue per computation resource).
//
// Reserving d units of work at time now yields start = max(now, horizon)
// and pushes the horizon to start+d. The difference horizon-now is exactly
// the paper's resource queueing delay (delay_queue, Table 1), so offloading
// policies read it directly.
//
// The zero value is an idle calendar. A calendar holds no pointer — no
// name either — so the calendars a fork restores (93 on a default device:
// 64 dies, 8 channels, 16 DRAM units, the DRAM bus and 4 cores) copy as
// plain memory, with no GC write barrier.
type Calendar struct {
	horizon Time
	busy    Time // total busy time ever reserved, for utilization accounting
}

// QueueDelay reports how long work arriving at time now would wait before
// starting: max(0, horizon-now).
func (c *Calendar) QueueDelay(now Time) Time {
	if c.horizon > now {
		return c.horizon - now
	}
	return 0
}

// Reserve books d units of serial work arriving at time now and returns the
// interval [start, end) it executes in. The earliest permitted start may be
// constrained further with notBefore (e.g. operand availability); pass now
// when there is no extra constraint.
//
// The resource is work-conserving: a reservation consumes d units of the
// resource's capacity from its arrival, but waiting for notBefore (operand
// availability) happens in a reservation buffer and does not block the
// resource — later independent work proceeds. This matches the paper's
// per-resource execution queues, whose dependence delays are tracked
// separately from queueing delays precisely because they overlap (Eqn. 1).
func (c *Calendar) Reserve(now, notBefore, d Time) (start, end Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: calendar: negative duration %v", d))
	}
	slot := now
	if c.horizon > slot {
		slot = c.horizon
	}
	c.horizon = slot + d
	start = slot
	if notBefore > start {
		start = notBefore
	}
	end = start + d
	c.busy += d
	return start, end
}

// Utilization reports busy time divided by elapsed time (0 when now is 0).
// Bandwidth-based offloading policies use this as their load signal.
func (c *Calendar) Utilization(now Time) float64 {
	if now <= 0 {
		return 0
	}
	u := float64(c.busy) / float64(now)
	if u > 1 {
		u = 1
	}
	return u
}

// Reset clears the calendar back to idle at time zero.
func (c *Calendar) Reset() {
	c.horizon = 0
	c.busy = 0
}

// Group is a pool of identical parallel resources (e.g. the dies behind one
// channel, the banks of a DRAM rank) with FIFO selection of the earliest
// available member: the smallest horizon, lowest index among equal minima.
// Groups are small (at most 16 members here), so selection is a
// branch-free scan of the member slab: indexing the horizons (a winner
// tree) measured no faster, and a scan cannot go stale when a caller
// reserves on Member(i) directly. The scan over the 16 PuD units runs once
// per dispatched instruction: branching, it was 12 % of
// BenchmarkServeHeavyMix's CPU profile (0.51 ms of 4.30 per op on a 2-vCPU
// Xeon VM); branch-free, 9 % (0.29 ms of 3.18).
type Group struct {
	members []Calendar // one slab: copying a group is one copy, not one allocation per member
}

// NewGroup creates a pool of n identical calendars.
func NewGroup(name string, n int) *Group {
	if n <= 0 {
		panic(fmt.Sprintf("sim: group %s must have at least one member, got %d", name, n))
	}
	return &Group{members: make([]Calendar, n)}
}

// Member returns the i'th member calendar.
func (g *Group) Member(i int) *Calendar { return &g.members[i] }

// Earliest returns the member with the smallest horizon (FIFO tie-break:
// the lowest index among equal minima). Which member wins is
// unpredictable, so a compare-and-jump scan mispredicts often; here the
// strict-less bit, widened to a mask, picks the index, and min the
// horizon, in straight-line code that holds for any horizon values.
func (g *Group) Earliest() *Calendar {
	best, bestH := 0, g.members[0].horizon
	for i := 1; i < len(g.members); i++ {
		h := g.members[i].horizon
		m := -b2i(h < bestH) // all ones when member i is strictly earlier
		best ^= (best ^ i) & m
		bestH = min(bestH, h)
	}
	return &g.members[best]
}

// b2i is 1 for true and 0 for false; the compiler emits it as a flag
// set, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Reserve books d units of work on the least-loaded member.
func (g *Group) Reserve(now, notBefore, d Time) (start, end Time) {
	return g.Earliest().Reserve(now, notBefore, d)
}

// Utilization reports the mean utilization across members.
func (g *Group) Utilization(now Time) float64 {
	var sum float64
	for i := range g.members {
		sum += g.members[i].Utilization(now)
	}
	return sum / float64(len(g.members))
}

// Reset clears every member.
func (g *Group) Reset() {
	for i := range g.members {
		g.members[i].Reset()
	}
}

// Restore makes g an independent copy of src and all its members in
// place, reusing g's member slab (pointers from Member stay valid when the
// sizes match). Restoring into a zero Group is how a group is cloned.
func (g *Group) Restore(src *Group) {
	g.members = append(g.members[:0], src.members...)
}
