package simtest_test

import (
	"testing"

	conduit "conduit"
	"conduit/internal/sim"
	"conduit/internal/sim/simtest"
	"conduit/internal/workloads"
)

// TestEnginesAgreeOnRandomSchedules drives both engines through
// randomized-but-seeded operation scripts: schedule/step/run-until mixes
// with nested scheduling from inside callbacks, deltas kept small so
// timestamps collide constantly.
func TestEnginesAgreeOnRandomSchedules(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		raw := make([]byte, 4*500)
		sim.NewRNG(seed).Bytes(raw)
		if err := simtest.Diff(simtest.DecodeOps(raw), 4096); err != nil {
			t.Fatalf("seed %d: engines diverged: %v", seed, err)
		}
	}
}

// TestEnginesAgreeOnSameTimestampStorms is the adversarial coalescing
// case: hundreds of events at one instant, callbacks that append more
// events to the very instant being drained, and RunUntil cuts landing
// exactly on the storm's timestamp.
func TestEnginesAgreeOnSameTimestampStorms(t *testing.T) {
	var ops []simtest.Op
	// A storm at t=10: plain events plus spawners that extend the live
	// batch (SpawnDelta 0) while it is draining.
	for i := 0; i < 100; i++ {
		ops = append(ops, simtest.Op{Kind: simtest.KindSchedule, Delta: 10, Spawn: i % 3, SpawnDelta: 0})
	}
	// Partial drains interleaved with more same-instant arrivals.
	ops = append(ops, simtest.Op{Kind: simtest.KindRunUntil, Delta: 10})
	for i := 0; i < 50; i++ {
		ops = append(ops,
			simtest.Op{Kind: simtest.KindSchedule, Delta: 0, Spawn: 1, SpawnDelta: 0},
			simtest.Op{Kind: simtest.KindStep})
	}
	// A second storm behind a sparse stretch, drained step by step across
	// the batch boundary.
	for i := 0; i < 100; i++ {
		ops = append(ops, simtest.Op{Kind: simtest.KindSchedule, Delta: 1000, Spawn: 2, SpawnDelta: 1})
	}
	for i := 0; i < 40; i++ {
		ops = append(ops, simtest.Op{Kind: simtest.KindStep})
	}
	ops = append(ops, simtest.Op{Kind: simtest.KindRun})
	if err := simtest.Diff(ops, 8192); err != nil {
		t.Fatalf("engines diverged: %v", err)
	}
}

// reservation is one recorded calendar reservation: work of duration D
// arriving at Now, with operands ready at NotBefore.
type reservation struct {
	Now       sim.Time
	NotBefore sim.Time
	D         sim.Time
}

// workloadReservations records a real run — every per-instruction
// offloading decision of a Conduit-policy execution — and converts it to
// the reservation pattern the timing substrate actually produced:
// work of duration Done-Issue arriving at Issue.
func workloadReservations(t *testing.T, name string) []reservation {
	t.Helper()
	w, ok := workloads.Find(name, 1)
	if !ok {
		t.Fatalf("workload %s not found", name)
	}
	cfg := conduit.DefaultConfig()
	res, err := conduit.NewSystem(cfg).Run(w.Source, "Conduit")
	if err != nil {
		t.Fatalf("running %s: %v", name, err)
	}
	if len(res.Decisions) == 0 {
		t.Fatalf("workload %s produced no decisions", name)
	}
	rs := make([]reservation, 0, len(res.Decisions))
	for _, d := range res.Decisions {
		if d.Done < d.Issue {
			t.Fatalf("decision %d completes before it issues", d.InstID)
		}
		rs = append(rs, reservation{Now: d.Issue, NotBefore: d.Issue, D: d.Done - d.Issue})
	}
	return rs
}

// TestEnginesAgreeOnWorkloadTrace replays a recorded real-workload
// reservation pattern through both engines: each instruction schedules
// at its issue time and spawns its completion event Done-Issue later —
// the exact timestamp distribution (including the heavy same-instant
// completion clusters of parallel plane operations) a real run creates.
func TestEnginesAgreeOnWorkloadTrace(t *testing.T) {
	for _, name := range []string{"aes", "jacobi-1d"} {
		rs := workloadReservations(t, name)
		var ops []simtest.Op
		var prev sim.Time
		for _, r := range rs {
			// Issue times are nondecreasing in dispatch order; the clock
			// stays pinned between ops, so deltas are against prev.
			delta := r.Now - prev
			if delta < 0 {
				delta = 0
			}
			ops = append(ops, simtest.Op{Kind: simtest.KindSchedule, Delta: delta, Spawn: 1, SpawnDelta: r.D})
			// Drain incrementally so batches open and close mid-script.
			if len(ops)%7 == 0 {
				ops = append(ops, simtest.Op{Kind: simtest.KindStep})
			}
		}
		ops = append(ops, simtest.Op{Kind: simtest.KindRun})
		if err := simtest.Diff(ops, 3*len(rs)+16); err != nil {
			t.Fatalf("%s trace: engines diverged: %v", name, err)
		}
	}
}

// Clock note: KindSchedule deltas are applied against the engine's
// current clock, which only moves on Step/Run ops; interleaved drains
// make the effective absolute timestamps differ from the raw trace, but
// identically so for both engines — which is the property under test.

// restoredGroup copies g the way a device fork does: Restore into a zero
// group.
func restoredGroup(g *sim.Group) *sim.Group {
	c := new(sim.Group)
	c.Restore(g)
	return c
}

// scanEarliest is the original full-scan member selection the indexed
// Group must reproduce exactly, FIFO ties included.
func scanEarliest(g *sim.Group) int {
	best := 0
	for i := 1; i < g.Size(); i++ {
		if g.Member(i).Horizon() < g.Member(best).Horizon() {
			best = i
		}
	}
	return best
}

// TestGroupSelectionMatchesScanOnTrace drives Group's own selection and
// a scan-reference twin with recorded real-workload durations plus
// tie-heavy zero-duration storms, direct member reservations, resets,
// and clones, and demands identical selection and timing throughout.
func TestGroupSelectionMatchesScanOnTrace(t *testing.T) {
	rs := workloadReservations(t, "aes")
	for _, size := range []int{2, 3, 8, 16} {
		g := sim.NewGroup("fast", size)
		ref := sim.NewGroup("ref", size)
		rng := sim.NewRNG(uint64(size))
		for i, r := range rs {
			d := r.D
			if i%11 == 0 {
				d = 0 // force FIFO ties
			}
			switch i % 5 {
			case 0, 1, 2:
				want := scanEarliest(ref)
				if got := g.Earliest(); got != g.Member(want) {
					t.Fatalf("size %d step %d: Earliest picked horizon %v, scan wants member %d", size, i, got.Horizon(), want)
				}
				s1, e1 := g.Reserve(r.Now, r.NotBefore, d)
				s2, e2 := ref.Member(want).Reserve(r.Now, r.NotBefore, d)
				if s1 != s2 || e1 != e2 {
					t.Fatalf("size %d step %d: group reserve [%v,%v) != reference [%v,%v)", size, i, s1, e1, s2, e2)
				}
			case 3: // direct member reservation behind the tree's back
				idx := rng.Intn(size)
				g.Member(idx).Reserve(r.Now, r.NotBefore, d)
				ref.Member(idx).Reserve(r.Now, r.NotBefore, d)
			case 4:
				if g.QueueDelay(r.Now) != ref.Member(scanEarliest(ref)).QueueDelay(r.Now) {
					t.Fatalf("size %d step %d: queue delay diverged", size, i)
				}
				if g.Utilization(r.Now) != ref.Utilization(r.Now) {
					t.Fatalf("size %d step %d: utilization diverged", size, i)
				}
			}
			if i == len(rs)/2 {
				g, ref = restoredGroup(g), restoredGroup(ref)
			}
		}
		g.Reset()
		ref.Reset()
		if got, want := g.Earliest(), scanEarliest(ref); got != g.Member(want) {
			t.Fatalf("size %d: post-reset Earliest != scan", size)
		}
	}
}
