package sim_test

import (
	"fmt"
	"testing"
	"testing/quick"

	conduit "conduit"
	"conduit/internal/sim"
	"conduit/internal/workloads"
)

// scanEarliest is the reference selection Earliest must reproduce
// exactly, FIFO ties (lowest index among minima) included.
func scanEarliest(g *sim.Group, size int) int {
	best := 0
	for i := 1; i < size; i++ {
		if g.Member(i).QueueDelay(0) < g.Member(best).QueueDelay(0) { // the horizon
			best = i
		}
	}
	return best
}

// TestGroupEarliestMatchesScan drives a group and a twin selected by
// scanEarliest through identical operation sequences — reservations (with
// zero-duration ties), queue-delay reads, resets, and direct member
// reservations — and demands identical member selection and timing.
func TestGroupEarliestMatchesScan(t *testing.T) {
	const size = 7
	f := func(ops []uint16) bool {
		g := sim.NewGroup("group", size)
		ref := sim.NewGroup("ref", size)
		now := sim.Time(0)
		for _, o := range ops {
			kind := o % 5
			d := sim.Time(o>>3) % 97 // durations include 0 for FIFO ties
			switch kind {
			case 0, 1: // group reserve
				wantIdx := scanEarliest(ref, size)
				gotCal := g.Earliest()
				if gotCal != g.Member(wantIdx) {
					t.Logf("Earliest picked member with horizon %v, scan wants idx %d", gotCal.QueueDelay(0), wantIdx)
					return false
				}
				s1, e1 := g.Reserve(now, now, d)
				s2, e2 := ref.Member(wantIdx).Reserve(now, now, d)
				if s1 != s2 || e1 != e2 {
					return false
				}
			case 2: // queue-delay read
				if g.Earliest().QueueDelay(now) != ref.Member(scanEarliest(ref, size)).QueueDelay(now) {
					return false
				}
			case 3: // direct member reservation bypassing the group
				idx := int(o>>8) % size
				g.Member(idx).Reserve(now, now, d)
				ref.Member(idx).Reserve(now, now, d)
			case 4:
				if o%11 == 0 {
					g.Reset()
					ref.Reset()
					now = 0
				} else {
					now += d
				}
			}
			// Invariant: every member horizon matches the reference twin.
			for i := 0; i < size; i++ {
				if g.Member(i).QueueDelay(0) != ref.Member(i).QueueDelay(0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestGroupRestoreSelectsLikeOriginal checks a group restored over a used
// group of another size selects the same members as its original from
// the same state.
func TestGroupRestoreSelectsLikeOriginal(t *testing.T) {
	g := sim.NewGroup("orig", 4)
	g.Reserve(0, 0, 10)
	g.Reserve(0, 0, 20)
	c := sim.NewGroup("used", 7)
	c.Reserve(0, 0, 99)
	c.Restore(g)
	for i := 0; i < 6; i++ {
		s1, e1 := g.Reserve(5, 5, 7)
		s2, e2 := c.Reserve(5, 5, 7)
		if s1 != s2 || e1 != e2 {
			t.Fatalf("reserve %d: original (%v,%v) != restored (%v,%v)", i, s1, e1, s2, e2)
		}
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
func workloadReservations(t testing.TB, name string) []reservation {
	t.Helper()
	w, ok := workloads.Find(name, 1)
	if !ok {
		t.Fatalf("workload %s not found", name)
	}
	cfg := conduit.DefaultConfig()
	c, err := conduit.Compile(w.Source, &cfg)
	if err != nil {
		t.Fatalf("compiling %s: %v", name, err)
	}
	res, err := conduit.NewSystem(cfg).RunCompiled(c, "Conduit")
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

// TestGroupSelectionMatchesScanOnTrace drives Group's own selection and
// a scan-reference twin with recorded real-workload durations plus
// tie-heavy zero-duration storms, direct member reservations, resets,
// and restores into a zero group, and demands identical selection and
// timing throughout.
func TestGroupSelectionMatchesScanOnTrace(t *testing.T) {
	rs := workloadReservations(t, "aes")
	for _, size := range []int{2, 3, 8, 16} {
		g := sim.NewGroup("group", size)
		ref := sim.NewGroup("ref", size)
		rng := sim.NewRNG(uint64(size))
		for i, r := range rs {
			d := r.D
			if i%11 == 0 {
				d = 0 // force FIFO ties
			}
			switch i % 5 {
			case 0, 1, 2:
				want := scanEarliest(ref, size)
				if got := g.Earliest(); got != g.Member(want) {
					t.Fatalf("size %d step %d: Earliest picked horizon %v, scan wants member %d", size, i, got.QueueDelay(0), want)
				}
				s1, e1 := g.Reserve(r.Now, r.NotBefore, d)
				s2, e2 := ref.Member(want).Reserve(r.Now, r.NotBefore, d)
				if s1 != s2 || e1 != e2 {
					t.Fatalf("size %d step %d: group reserve [%v,%v) != reference [%v,%v)", size, i, s1, e1, s2, e2)
				}
			case 3: // direct member reservation bypassing the group
				idx := rng.Intn(size)
				g.Member(idx).Reserve(r.Now, r.NotBefore, d)
				ref.Member(idx).Reserve(r.Now, r.NotBefore, d)
			case 4:
				if g.Earliest().QueueDelay(r.Now) != ref.Member(scanEarliest(ref, size)).QueueDelay(r.Now) {
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
		if got, want := g.Earliest(), scanEarliest(ref, size); got != g.Member(want) {
			t.Fatalf("size %d: post-reset Earliest != scan", size)
		}
	}
}

// restoredGroup copies g the way a device fork does: Restore into a zero
// group.
func restoredGroup(g *sim.Group) *sim.Group {
	c := new(sim.Group)
	c.Restore(g)
	return c
}

// BenchmarkGroupEarliest replays the reservations workloadReservations
// records through Group.Reserve, whose cost is Earliest's scan, at the
// two sizes a device builds: its 3 offload cores and its 16 PuD units.
func BenchmarkGroupEarliest(b *testing.B) {
	rs := workloadReservations(b, "aes")
	for _, size := range []int{3, 16} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			g := sim.NewGroup("group", size)
			for b.Loop() {
				g.Reset()
				for _, r := range rs {
					g.Reserve(r.Now, r.NotBefore, r.D)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rs)), "ns/pick")
		})
	}
}
