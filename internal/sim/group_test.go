package sim

import (
	"testing"
	"testing/quick"
)

// naiveEarliest is the reference selection Earliest must reproduce
// exactly, FIFO ties (lowest index among minima) included.
func naiveEarliest(g *Group) int {
	best := 0
	for i := 1; i < g.Size(); i++ {
		if g.Member(i).Horizon() < g.Member(best).Horizon() {
			best = i
		}
	}
	return best
}

// TestGroupEarliestCacheMatchesScan drives a group and a twin selected by
// naiveEarliest through identical operation sequences — reservations (with
// zero-duration ties), queue-delay reads, resets, and direct member
// reservations — and demands identical member selection and timing.
func TestGroupEarliestCacheMatchesScan(t *testing.T) {
	f := func(ops []uint16) bool {
		g := NewGroup("cached", 7)
		ref := NewGroup("ref", 7)
		now := Time(0)
		for _, o := range ops {
			kind := o % 5
			d := Time(o>>3) % 97 // durations include 0 for FIFO ties
			switch kind {
			case 0, 1: // group reserve
				wantIdx := naiveEarliest(ref)
				gotCal := g.Earliest()
				if gotCal != g.Member(wantIdx) {
					t.Logf("Earliest picked member with horizon %v, scan wants idx %d", gotCal.Horizon(), wantIdx)
					return false
				}
				s1, e1 := g.Reserve(now, now, d)
				s2, e2 := ref.Member(wantIdx).Reserve(now, now, d)
				if s1 != s2 || e1 != e2 {
					return false
				}
			case 2: // queue-delay read
				if g.QueueDelay(now) != ref.Member(naiveEarliest(ref)).QueueDelay(now) {
					return false
				}
			case 3: // direct member reservation bypassing the group
				idx := int(o>>8) % g.Size()
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
			for i := 0; i < g.Size(); i++ {
				if g.Member(i).Horizon() != ref.Member(i).Horizon() {
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

// TestGroupCloneCarriesCache checks a cloned group selects the same
// members as its original from the same state.
func TestGroupCloneCarriesCache(t *testing.T) {
	g := NewGroup("orig", 4)
	g.Reserve(0, 0, 10)
	g.Reserve(0, 0, 20)
	g.Earliest()
	c := NewGroup("used", 7) // restoring over a used group of another size
	c.Reserve(0, 0, 99)
	c.Restore(g)
	for i := 0; i < 6; i++ {
		s1, e1 := g.Reserve(5, 5, 7)
		s2, e2 := c.Reserve(5, 5, 7)
		if s1 != s2 || e1 != e2 {
			t.Fatalf("reserve %d: original (%v,%v) != clone (%v,%v)", i, s1, e1, s2, e2)
		}
	}
}
