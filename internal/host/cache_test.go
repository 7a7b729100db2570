package host

import (
	"testing"

	"conduit/internal/compiler"
	"conduit/internal/config"
	"conduit/internal/isa"
	"conduit/internal/workloads"
)

// scanLRU is the page cache pageLRU replaced: each resident page maps to
// the tick of its last use, and a miss on a full cache scans the map for
// the oldest tick.
type scanLRU struct {
	cached map[isa.PageID]int64
	tick   int64
	cap    int
}

func (c *scanLRU) touch(p isa.PageID) (hit bool, victim isa.PageID) {
	victim = isa.NoPage
	c.tick++
	if _, ok := c.cached[p]; ok {
		c.cached[p] = c.tick
		return true, victim
	}
	if len(c.cached) >= c.cap {
		oldest := int64(1<<62 - 1)
		for q, at := range c.cached {
			if at < oldest {
				victim, oldest = q, at
			}
		}
		delete(c.cached, victim)
	}
	c.cached[p] = c.tick
	return false, victim
}

// TestPageLRUEvictsLikeScan drives pageLRU and the map scan it replaced
// over the touch sequence Run makes — every source, then the destination,
// of each vector instruction — of the six scale-1 programs, at each
// program's own cache capacity and at the minimum of 4 pages. Every touch
// must agree on hit or miss and on the page it evicts.
func TestPageLRUEvictsLikeScan(t *testing.T) {
	cfg := config.Default()
	var evictions [2]int // at the program's own capacity, at 4 pages
	for _, w := range workloads.All(1) {
		c, err := compiler.Compile(w.Source, cfg.SSD.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		prog := c.Prog
		for k, capacity := range []int{cacheCapacity(prog.Pages), 4} {
			fast := newPageLRU(prog.Span(), capacity)
			ref := &scanLRU{cached: make(map[isa.PageID]int64), cap: capacity}
			touches := 0
			touch := func(p isa.PageID) {
				hit, victim := fast.touch(p)
				wantHit, wantVictim := ref.touch(p)
				if hit != wantHit || victim != wantVictim {
					t.Fatalf("%s, capacity %d, touch %d (page %d): hit %v victim %d, the scan says hit %v victim %d",
						w.Name, capacity, touches, p, hit, victim, wantHit, wantVictim)
				}
				touches++
				if victim != isa.NoPage {
					evictions[k]++
				}
			}
			for i := range prog.Insts {
				inst := &prog.Insts[i]
				if inst.Op == isa.OpScalar {
					continue
				}
				for _, s := range inst.Srcs() {
					touch(s)
				}
				if inst.Dst != isa.NoPage {
					touch(inst.Dst)
				}
			}
		}
	}
	if evictions[0] == 0 || evictions[1] == 0 {
		t.Fatalf("evictions at the programs' own capacities %d, at 4 pages %d: the comparison exercises no victim", evictions[0], evictions[1])
	}
	t.Logf("evictions compared: %d at the programs' own capacities, %d at 4 pages", evictions[0], evictions[1])
}
