package dram

import (
	"testing"

	"conduit/internal/config"
	"conduit/internal/energy"
	"conduit/internal/isa"
)

// Tests for the in-array data-movement operations (RowClone/LISA shuffle,
// bit-serial shifts) added on top of the 16 published compute operations.

func moveFixture(t *testing.T) (*Module, *config.SSD) {
	t.Helper()
	cfg := config.TestScale()
	m := NewModule(&cfg.SSD, energy.NewAccount())
	a := make([]byte, cfg.SSD.PageSize)
	for i := range a {
		a[i] = byte(i)
	}
	m.SetSlotForTest(0, a)
	return m, &cfg.SSD
}

func TestShuffleRotatesLanes(t *testing.T) {
	m, cfg := moveFixture(t)
	if _, err := m.Exec(0, 0, m.Units().Earliest(), isa.OpShuffle, 1, []int{0}, 1, false, 5); err != nil {
		t.Fatal(err)
	}
	in := m.Data(0)
	out := m.Data(1)
	n := cfg.PageSize
	for i := 0; i < 16; i++ {
		if out[i] != in[(i+5)%n] {
			t.Fatalf("shuffle lane %d = %d, want %d", i, out[i], in[(i+5)%n])
		}
	}
	// Rotation cost is constant and small (LISA copies).
	if Rounds(isa.OpShuffle, 1) >= Rounds(isa.OpAdd, 1) {
		t.Error("shuffle must be cheaper than bit-serial addition")
	}
}

func TestShiftOps(t *testing.T) {
	m, _ := moveFixture(t)
	if _, err := m.Exec(0, 0, m.Units().Earliest(), isa.OpShl, 1, []int{0}, 1, false, 3); err != nil {
		t.Fatal(err)
	}
	in := m.Data(0)
	out := m.Data(1)
	for i := 0; i < 32; i++ {
		if out[i] != in[i]<<3 {
			t.Fatalf("shl lane %d = %d, want %d", i, out[i], in[i]<<3)
		}
	}
	if _, err := m.Exec(0, 0, m.Units().Earliest(), isa.OpShr, 2, []int{0}, 1, false, 2); err != nil {
		t.Fatal(err)
	}
	out = m.Data(2)
	for i := 0; i < 32; i++ {
		if out[i] != in[i]>>2 {
			t.Fatalf("shr lane %d = %d, want %d", i, out[i], in[i]>>2)
		}
	}
	// Bit-serial shifts are row renames: constant rounds.
	if Rounds(isa.OpShl, 4) != Rounds(isa.OpShl, 1) {
		t.Error("shift rounds must not depend on element width")
	}
}

func TestShiftOfWideLanes(t *testing.T) {
	m, cfg := moveFixture(t)
	if _, err := m.Exec(0, 0, m.Units().Earliest(), isa.OpShl, 1, []int{0}, 4, false, 8); err != nil {
		t.Fatal(err)
	}
	in := m.Data(0)
	out := m.Data(1)
	for i := 0; i < cfg.PageSize/4; i += 97 {
		var x, y uint32
		for b := 0; b < 4; b++ {
			x |= uint32(in[i*4+b]) << (8 * b)
			y |= uint32(out[i*4+b]) << (8 * b)
		}
		if y != x<<8 {
			t.Fatalf("shl32 lane %d = %#x, want %#x", i, y, x<<8)
		}
	}
}

func TestMoveOpsAreSingleSource(t *testing.T) {
	m, _ := moveFixture(t)
	if _, err := m.Exec(0, 0, m.Units().Earliest(), isa.OpShuffle, 1, []int{0, 0}, 1, false, 1); err == nil {
		t.Error("shuffle with two sources must fail")
	}
	if isa.OpShuffle.Arity() != 1 || isa.OpShl.Arity() != 1 || isa.OpShr.Arity() != 1 {
		t.Error("movement ops take one source")
	}
}
