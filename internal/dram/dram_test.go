package dram

import (
	"bytes"
	"testing"
	"testing/quick"

	"conduit/internal/config"
	"conduit/internal/energy"
	"conduit/internal/isa"
	"conduit/internal/sim"
	"conduit/internal/vecmath"
)

func newTestModule() (*Module, *config.SSD, *energy.Account) {
	cfg := config.TestScale()
	en := energy.NewAccount()
	return NewModule(&cfg.SSD, en), &cfg.SSD, en
}

func TestCapacity(t *testing.T) {
	m, cfg, _ := newTestModule()
	want := int(cfg.DRAMSize / int64(cfg.PageSize))
	if m.Capacity() != want {
		t.Fatalf("capacity = %d, want %d", m.Capacity(), want)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	m, cfg, en := newTestModule()
	data := make([]byte, cfg.PageSize)
	for i := range data {
		data[i] = byte(i * 3)
	}
	done := m.Write(0, 0, 7, data)
	if want := cfg.DRAMTransferTime(cfg.PageSize); done != want {
		t.Fatalf("write done at %v, want %v", done, want)
	}
	got, rdone := m.Read(done, done, 7)
	if !bytes.Equal(got, data) {
		t.Fatal("read returned different data")
	}
	if rdone <= done {
		t.Fatal("read should take bus time")
	}
	if en.MovementTotal() <= 0 { // all of it the DRAM bus's
		t.Fatal("transfers must record bus energy")
	}
}

func TestUnwrittenSlotReadsZero(t *testing.T) {
	m, cfg, _ := newTestModule()
	if !bytes.Equal(m.Data(3), make([]byte, cfg.PageSize)) {
		t.Fatal("unwritten slot should read zero")
	}
	if m.Populated(3) {
		t.Fatal("unwritten slot reported populated")
	}
}

func TestRoundsStructure(t *testing.T) {
	// Bitwise ops are constant; add is linear in bits; mul is quadratic.
	if Rounds(isa.OpAnd, 1) != Rounds(isa.OpAnd, 4) {
		t.Error("bitwise rounds should not depend on element size")
	}
	add8, add32 := Rounds(isa.OpAdd, 1), Rounds(isa.OpAdd, 4)
	if add32 <= add8 || add32 > 5*add8 {
		t.Errorf("add rounds 8b=%d 32b=%d: want ~4x linear growth", add8, add32)
	}
	mul8, mul32 := Rounds(isa.OpMul, 1), Rounds(isa.OpMul, 4)
	if mul32 < 10*mul8 {
		t.Errorf("mul rounds 8b=%d 32b=%d: want quadratic growth", mul8, mul32)
	}
	if mul8 <= add8 {
		t.Error("mul must cost more than add")
	}
}

func TestExecLatencyMatchesExec(t *testing.T) {
	m, cfg, _ := newTestModule()
	p := make([]byte, cfg.PageSize)
	m.SetSlotForTest(0, p)
	m.SetSlotForTest(1, p)
	done, err := m.Exec(0, 0, m.Units().Earliest(), isa.OpMul, 2, []int{0, 1}, 1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(Rounds(isa.OpMul, 1)) * cfg.TBbop; done != want {
		t.Fatalf("uncontended exec = %v, want estimator value %v", done, want)
	}
}

func TestExecFunctionalOps(t *testing.T) {
	m, cfg, _ := newTestModule()
	a := make([]byte, cfg.PageSize)
	b := make([]byte, cfg.PageSize)
	for i := range a {
		a[i] = byte(i)
		b[i] = byte(3*i + 1)
	}
	m.SetSlotForTest(0, a)
	m.SetSlotForTest(1, b)

	cases := []struct {
		op   isa.Op
		want func(x, y uint64) uint64
	}{
		{isa.OpAnd, func(x, y uint64) uint64 { return x & y }},
		{isa.OpOr, func(x, y uint64) uint64 { return x | y }},
		{isa.OpXor, func(x, y uint64) uint64 { return x ^ y }},
		{isa.OpNand, func(x, y uint64) uint64 { return ^(x & y) & 0xFF }},
		{isa.OpAdd, func(x, y uint64) uint64 { return (x + y) & 0xFF }},
		{isa.OpSub, func(x, y uint64) uint64 { return (x - y) & 0xFF }},
		{isa.OpMul, func(x, y uint64) uint64 { return (x * y) & 0xFF }},
	}
	for _, c := range cases {
		if _, err := m.Exec(0, 0, m.Units().Earliest(), c.op, 2, []int{0, 1}, 1, false, 0); err != nil {
			t.Fatalf("%v: %v", c.op, err)
		}
		got := m.Data(2)
		for i := 0; i < cfg.PageSize; i++ {
			want := byte(c.want(uint64(a[i]), uint64(b[i])))
			if got[i] != want {
				t.Fatalf("%v lane %d = %d, want %d", c.op, i, got[i], want)
			}
		}
	}
}

func TestExecSignedRelationalAndMinMax(t *testing.T) {
	m, cfg, _ := newTestModule()
	a := make([]byte, cfg.PageSize)
	b := make([]byte, cfg.PageSize)
	a[0], b[0] = 0xFF, 0x01 // -1 < 1 signed
	a[1], b[1] = 0x05, 0x05
	m.SetSlotForTest(0, a)
	m.SetSlotForTest(1, b)
	if _, err := m.Exec(0, 0, m.Units().Earliest(), isa.OpLT, 2, []int{0, 1}, 1, false, 0); err != nil {
		t.Fatal(err)
	}
	lt := m.Data(2)
	if lt[0] != 0xFF {
		t.Error("-1 < 1 should be true under signed compare")
	}
	if lt[1] != 0x00 {
		t.Error("5 < 5 should be false")
	}
	if _, err := m.Exec(0, 0, m.Units().Earliest(), isa.OpMin, 3, []int{0, 1}, 1, false, 0); err != nil {
		t.Fatal(err)
	}
	if m.Data(3)[0] != 0xFF { // signed min(-1, 1) = -1
		t.Error("signed min wrong")
	}
	if _, err := m.Exec(0, 0, m.Units().Earliest(), isa.OpEQ, 4, []int{0, 1}, 1, false, 0); err != nil {
		t.Fatal(err)
	}
	if m.Data(4)[1] != 0xFF || m.Data(4)[0] != 0 {
		t.Error("EQ lanes wrong")
	}
}

func TestExecSelect(t *testing.T) {
	m, cfg, _ := newTestModule()
	mask := make([]byte, cfg.PageSize)
	a := make([]byte, cfg.PageSize)
	b := make([]byte, cfg.PageSize)
	for i := range mask {
		if i%2 == 0 {
			mask[i] = 0xFF
		}
		a[i] = 0xAA
		b[i] = 0x55
	}
	m.SetSlotForTest(0, mask)
	m.SetSlotForTest(1, a)
	m.SetSlotForTest(2, b)
	if _, err := m.Exec(0, 0, m.Units().Earliest(), isa.OpSelect, 3, []int{0, 1, 2}, 1, false, 0); err != nil {
		t.Fatal(err)
	}
	out := m.Data(3)
	for i := range out {
		want := byte(0x55)
		if i%2 == 0 {
			want = 0xAA
		}
		if out[i] != want {
			t.Fatalf("select lane %d = %#x, want %#x", i, out[i], want)
		}
	}
}

func TestExecImmediateBroadcast(t *testing.T) {
	m, cfg, _ := newTestModule()
	a := make([]byte, cfg.PageSize)
	for i := range a {
		a[i] = byte(i)
	}
	m.SetSlotForTest(0, a)
	if _, err := m.Exec(0, 0, m.Units().Earliest(), isa.OpAdd, 1, []int{0}, 1, true, 7); err != nil {
		t.Fatal(err)
	}
	got := m.Data(1)
	for i := range got {
		if got[i] != byte(i)+7 {
			t.Fatalf("imm add lane %d = %d", i, got[i])
		}
	}
}

func TestExecValidation(t *testing.T) {
	m, _, _ := newTestModule()
	if _, err := m.Exec(0, 0, m.Units().Earliest(), isa.OpAdd, 1, []int{0}, 1, false, 0); err == nil {
		t.Error("wrong arity should fail")
	}
	if _, err := m.Exec(0, 0, m.Units().Earliest(), isa.OpAdd, 1, []int{0, 2}, 1, false, 0); err == nil {
		t.Error("unpopulated source should fail")
	}
}

func TestComputeDoesNotOccupyBus(t *testing.T) {
	m, cfg, _ := newTestModule()
	p := make([]byte, cfg.PageSize)
	m.SetSlotForTest(0, p)
	m.SetSlotForTest(1, p)
	if _, err := m.Exec(0, 0, m.Units().Earliest(), isa.OpMul, 2, []int{0, 1}, 4, false, 0); err != nil {
		t.Fatal(err)
	}
	if m.Bus().QueueDelay(0) != 0 {
		t.Fatal("in-array compute must not occupy the data bus")
	}
	if m.Units().Earliest().QueueDelay(0) != 0 {
		// 4 units, one op: at least one other unit... Earliest returns the
		// least-loaded, which must still be idle.
		t.Fatal("only one compute unit should be busy")
	}
}

func TestConcurrentUnitsThenQueueing(t *testing.T) {
	m, cfg, _ := newTestModule()
	p := make([]byte, cfg.PageSize)
	for s := 0; s < 2; s++ {
		m.SetSlotForTest(s, p)
	}
	lat := sim.Time(Rounds(isa.OpAdd, 1)) * cfg.TBbop
	var last sim.Time
	// First ComputeUnits ops run concurrently; the next one queues.
	for i := 0; i < ComputeUnits+1; i++ {
		done, err := m.Exec(0, 0, m.Units().Earliest(), isa.OpAdd, 3, []int{0, 1}, 1, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		last = done
	}
	if last != 2*lat {
		t.Fatalf("op %d finished at %v, want queued 2x latency %v", ComputeUnits+1, last, 2*lat)
	}
}

// refLane is an independent scalar oracle for the binary PuD operations.
func refLane(op isa.Op, x, y uint64, elem int) uint64 {
	mask := vecmath.Mask(elem)
	sx, sy := vecmath.ToSigned(x, elem), vecmath.ToSigned(y, elem)
	switch op {
	case isa.OpAnd:
		return x & y
	case isa.OpOr:
		return x | y
	case isa.OpXor:
		return x ^ y
	case isa.OpNand:
		return ^(x & y) & mask
	case isa.OpNor:
		return ^(x | y) & mask
	case isa.OpAdd:
		return (x + y) & mask
	case isa.OpSub:
		return (x - y) & mask
	case isa.OpMul:
		return (x * y) & mask
	case isa.OpLT:
		return vecmath.Bool(sx < sy, elem)
	case isa.OpGT:
		return vecmath.Bool(sx > sy, elem)
	case isa.OpEQ:
		return vecmath.Bool(x == y, elem)
	case isa.OpMin:
		if sx < sy {
			return x
		}
		return y
	case isa.OpMax:
		if sx > sy {
			return x
		}
		return y
	}
	panic("unreachable")
}

// Property: every binary PuD op agrees lane-by-lane with an independent
// scalar oracle for random slot contents and element sizes.
func TestExecMatchesOracleProperty(t *testing.T) {
	cfg := config.TestScale()
	binOps := []isa.Op{isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpNand, isa.OpNor, isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpLT, isa.OpGT, isa.OpEQ, isa.OpMin, isa.OpMax}
	f := func(seed uint64, opSel, elemSel uint8) bool {
		op := binOps[int(opSel)%len(binOps)]
		elem := []int{1, 2, 4}[int(elemSel)%3]
		m := NewModule(&cfg.SSD, energy.NewAccount())
		r := sim.NewRNG(seed)
		a := make([]byte, cfg.SSD.PageSize)
		b := make([]byte, cfg.SSD.PageSize)
		r.Bytes(a)
		r.Bytes(b)
		m.SetSlotForTest(0, a)
		m.SetSlotForTest(1, b)
		if _, err := m.Exec(0, 0, m.Units().Earliest(), op, 2, []int{0, 1}, elem, false, 0); err != nil {
			return false
		}
		got := m.Data(2)
		for i := 0; i < cfg.SSD.PageSize/elem; i++ {
			x := vecmath.Load(a, i, elem)
			y := vecmath.Load(b, i, elem)
			if vecmath.Load(got, i, elem) != refLane(op, x, y, elem) {
				return false
			}
		}
		return bytes.Equal(got, m.Data(2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
