package dram

import (
	"bytes"
	"testing"

	"conduit/internal/isa"
	"conduit/internal/sim"
)

// TestExecSteadyStateAllocs pins the allocation behavior of the PuD data
// plane: once the destination slot has been populated once, an Exec that
// replaces it reuses the dead payload through the module's free list —
// zero heap allocations per operation. A regression here silently
// reintroduces one garbage page per simulated operation.
func TestExecSteadyStateAllocs(t *testing.T) {
	m, cfg, _ := newTestModule()
	page := make([]byte, cfg.PageSize)
	for i := range page {
		page[i] = byte(i)
	}
	m.SetSlotForTest(0, page)
	m.SetSlotForTest(1, page)

	var now sim.Time
	exec := func() {
		done, err := m.Exec(now, now, m.Units().Earliest(), isa.OpAdd, 2, []int{0, 1}, 4, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	exec() // populate dst; its payload becomes the recycled buffer
	if got := testing.AllocsPerRun(50, exec); got > 0 {
		t.Fatalf("steady-state Exec allocates %.1f objects/op, want 0", got)
	}
}

// TestExecImmediateSteadyStateAllocs covers the broadcast-immediate path,
// which used to materialize a fresh broadcast page per operation.
func TestExecImmediateSteadyStateAllocs(t *testing.T) {
	m, cfg, _ := newTestModule()
	page := make([]byte, cfg.PageSize)
	m.SetSlotForTest(0, page)

	var now sim.Time
	exec := func() {
		done, err := m.Exec(now, now, m.Units().Earliest(), isa.OpMul, 3, []int{0}, 2, true, 0x5A5A)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	exec()
	if got := testing.AllocsPerRun(50, exec); got > 0 {
		t.Fatalf("steady-state immediate Exec allocates %.1f objects/op, want 0", got)
	}
}

// TestCloneStopsPayloadRecycling proves the privacy tracking: after a
// Clone, the original must not recycle payloads the clone references, and
// the clone must see stable data while the original keeps executing.
func TestCloneStopsPayloadRecycling(t *testing.T) {
	m, cfg, en := newTestModule()
	page := make([]byte, cfg.PageSize)
	for i := range page {
		page[i] = 0x11
	}
	m.SetSlotForTest(0, page)
	m.SetSlotForTest(1, page)
	if _, err := m.Exec(0, 0, m.Units().Earliest(), isa.OpAdd, 2, []int{0, 1}, 1, false, 0); err != nil {
		t.Fatal(err)
	}
	c := new(Module) // a clone is a restore into a zero module
	c.Restore(m, en)
	want := c.Data(2)
	// A second copy is restored over a module that has executed: it shares
	// m's payloads from then on and may recycle only what it allocates.
	used, _, _ := newTestModule()
	used.SetSlotForTest(2, page)
	used.SetSlotForTest(3, page)
	used.Restore(m, en)
	if used.Populated(3) {
		t.Fatal("restore kept a slot the source does not have")
	}

	// Keep replacing slot 2 in the original and in the restored copy; the
	// clone's view must not move.
	for i := 0; i < 8; i++ {
		for _, mod := range []*Module{m, used} {
			if _, err := mod.Exec(0, 0, mod.Units().Earliest(), isa.OpXor, 2, []int{0, 2}, 1, false, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := used.Data(2); !bytes.Equal(got, m.Data(2)) {
		t.Fatal("the restored copy and the original diverged over the same operations")
	}
	got := c.Data(2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("clone slot 2 byte %d changed from %#x to %#x after original kept executing", i, want[i], got[i])
		}
	}
}
