package cores

import (
	"testing"

	"conduit/internal/isa"
	"conduit/internal/sim"
)

// TestExecSteadyStateAllocs pins the allocation behavior of the ISP data
// plane: with the caller returning consumed result buffers via Recycle
// (as the ssd runtime does after copying them into DRAM), a vector
// operation allocates nothing in steady state.
func TestExecSteadyStateAllocs(t *testing.T) {
	c, cfg, _ := newTestCore()
	a := make([]byte, cfg.PageSize)
	b := make([]byte, cfg.PageSize)
	for i := range a {
		a[i] = byte(i)
		b[i] = byte(i * 7)
	}
	srcs := [][]byte{a, b}

	inst := &isa.Inst{Op: isa.OpAdd, Elem: 4}
	var now sim.Time
	exec := func() {
		out, done, err := c.Exec(now, now, inst, srcs, 0)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		c.Recycle(out)
	}
	exec() // warm the free list
	if got := testing.AllocsPerRun(50, exec); got > 0 {
		t.Fatalf("steady-state Exec allocates %.1f objects/op, want 0", got)
	}
}

// TestExecStreamingSteadyStateAllocs covers the stream occupancy the ssd
// runtime adds for vectorized instructions.
func TestExecStreamingSteadyStateAllocs(t *testing.T) {
	c, cfg, _ := newTestCore()
	a := make([]byte, cfg.PageSize)
	srcs := [][]byte{a}

	inst := &isa.Inst{Op: isa.OpNot, Elem: 1}
	var now sim.Time
	exec := func() {
		out, done, err := c.Exec(now, now, inst, srcs, 10)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		c.Recycle(out)
	}
	exec()
	if got := testing.AllocsPerRun(50, exec); got > 0 {
		t.Fatalf("steady-state streaming Exec allocates %.1f objects/op, want 0", got)
	}
}
