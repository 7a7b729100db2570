package cores

import (
	"testing"
	"testing/quick"

	"conduit/internal/config"
	"conduit/internal/energy"
	"conduit/internal/isa"
	"conduit/internal/sim"
	"conduit/internal/vecmath"
)

func newTestCore() (*Core, *config.SSD, *energy.Account) {
	cfg := config.TestScale()
	en := energy.NewAccount()
	return New(&cfg.SSD, en), &cfg.SSD, en
}

// exec runs one vectorized instruction at time zero with no stream
// occupancy.
func exec(c *Core, op isa.Op, srcs [][]byte, elem int, useImm bool, imm uint64) ([]byte, sim.Time, error) {
	return c.Exec(0, 0, &isa.Inst{Op: op, Elem: elem, UseImm: useImm, Imm: imm}, srcs, 0)
}

func TestCyclesScaleWithVectorSize(t *testing.T) {
	cfg := config.TestScale()
	small := Cycles(&cfg.SSD, isa.OpAdd, 64, 1)
	big := Cycles(&cfg.SSD, isa.OpAdd, 16384, 1)
	if big <= small {
		t.Fatal("larger vectors must take more cycles")
	}
	// A full 16 KiB page at 32 B/beat is 512 beats (+ overhead).
	if want := int64(512 + loopOverheadCycles); big != want {
		t.Fatalf("page add cycles = %d, want %d", big, want)
	}
	// Multiplication costs twice the beats of addition.
	mul := Cycles(&cfg.SSD, isa.OpMul, 16384, 1)
	if mul != 2*512+loopOverheadCycles {
		t.Fatalf("page mul cycles = %d", mul)
	}
	if div := Cycles(&cfg.SSD, isa.OpDiv, 16384, 1); div <= mul {
		t.Fatal("div must cost more than mul")
	}
}

func TestExecLatencyMatchesExec(t *testing.T) {
	c, cfg, _ := newTestCore()
	a := make([]byte, cfg.PageSize)
	b := make([]byte, cfg.PageSize)
	_, done, err := exec(c, isa.OpAdd, [][]byte{a, b}, 1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.CoreCycles(Cycles(cfg, isa.OpAdd, cfg.PageSize, 1)); done != want {
		t.Fatalf("uncontended exec = %v, want estimator %v", done, want)
	}
}

func TestExecFunctionalAddMul(t *testing.T) {
	c, cfg, _ := newTestCore()
	a := make([]byte, cfg.PageSize)
	b := make([]byte, cfg.PageSize)
	for i := range a {
		a[i] = byte(i)
		b[i] = byte(2 * i)
	}
	sum, _, err := exec(c, isa.OpAdd, [][]byte{a, b}, 1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sum {
		if sum[i] != byte(3*i) {
			t.Fatalf("add lane %d = %d", i, sum[i])
		}
	}
	prod, _, err := exec(c, isa.OpMul, [][]byte{a, a}, 1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range prod {
		if prod[i] != byte(i)*byte(i) {
			t.Fatalf("mul lane %d = %d", i, prod[i])
		}
	}
}

func TestExecImmediateAndBroadcast(t *testing.T) {
	c, cfg, _ := newTestCore()
	a := make([]byte, cfg.PageSize)
	for i := range a {
		a[i] = byte(i)
	}
	out, _, err := exec(c, isa.OpAdd, [][]byte{a}, 1, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	if out[10] != 15 {
		t.Fatalf("imm add = %d, want 15", out[10])
	}
	bc, _, err := exec(c, isa.OpBroadcast, nil, 2, true, 0xBEEF)
	if err != nil {
		t.Fatal(err)
	}
	if bc[0] != 0xEF || bc[1] != 0xBE {
		t.Fatal("broadcast lanes wrong")
	}
	if len(bc) != cfg.PageSize {
		t.Fatal("broadcast should produce a full page")
	}
}

func TestExecDivSaturatesOnZero(t *testing.T) {
	c, cfg, _ := newTestCore()
	a := make([]byte, cfg.PageSize)
	z := make([]byte, cfg.PageSize)
	a[0] = 10
	out, _, err := exec(c, isa.OpDiv, [][]byte{a, z}, 1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0xFF {
		t.Fatalf("div by zero = %d, want saturation 0xFF", out[0])
	}
}

func TestExecShuffleRotates(t *testing.T) {
	c, cfg, _ := newTestCore()
	a := make([]byte, cfg.PageSize)
	for i := range a {
		a[i] = byte(i)
	}
	out, _, err := exec(c, isa.OpShuffle, [][]byte{a}, 1, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != a[3] || out[1] != a[4] {
		t.Fatal("shuffle should rotate lanes left by imm")
	}
}

func TestExecReduceAddBroadcastsSum(t *testing.T) {
	c, cfg, _ := newTestCore()
	a := make([]byte, cfg.PageSize)
	a[0], a[1], a[2] = 1, 2, 3
	out, _, err := exec(c, isa.OpReduceAdd, [][]byte{a}, 4, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, cfg.PageSize)
	for i := 0; i < cfg.PageSize; i += 4 {
		want[i] = 0x01 + 0x02 // little-endian lanes: lane0 = 0x030201
		want[i], want[i+1], want[i+2] = 0x01, 0x02, 0x03
	}
	_ = want
	// lane0 of a as uint32 = 0x00030201; all output lanes equal that sum.
	if !(out[0] == 0x01 && out[1] == 0x02 && out[2] == 0x03 && out[4] == 0x01) {
		t.Fatalf("reduce_add lanes = % x", out[:8])
	}
}

func TestExecValidation(t *testing.T) {
	c, cfg, _ := newTestCore()
	a := make([]byte, cfg.PageSize)
	if _, _, err := exec(c, isa.OpAdd, [][]byte{a}, 1, false, 0); err == nil {
		t.Error("missing operand should fail")
	}
	short := make([]byte, 8)
	if _, _, err := exec(c, isa.OpAdd, [][]byte{a, short}, 1, false, 0); err == nil {
		t.Error("operand size mismatch should fail")
	}
	if _, _, err := exec(c, isa.OpScalar, nil, 1, false, 0); err == nil {
		t.Error("scalar op through Exec should fail")
	}
}

func TestExecScalarAndQueueing(t *testing.T) {
	c, cfg, en := newTestCore()
	done, err := c.ExecScalar(0, 0, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if done != sim.Microsecond {
		t.Fatalf("1500 cycles @1.5GHz = %v, want 1µs", done)
	}
	// A second op issued at t=0 queues behind the first.
	done2, _ := c.ExecScalar(0, 0, 1500)
	if done2 != 2*sim.Microsecond {
		t.Fatalf("queued scalar done = %v, want 2µs", done2)
	}
	if _, err := c.ExecScalar(0, 0, 0); err == nil {
		t.Error("zero-cycle scalar should fail")
	}
	if en.ComputeBy(energy.ISP) <= 0 {
		t.Error("core work must record ISP energy")
	}
	st := c.Stats()
	if st["scalar_ops"] != 2 || st["cycles"] != 3000 {
		t.Fatalf("stats = %v", st)
	}
	_ = cfg
}

// Property: Exec agrees lane by lane with an independent scalar oracle for
// random operands — i.e. timing never perturbs semantics.
func TestExecMatchesApplyProperty(t *testing.T) {
	cfg := config.TestScale()
	signedLess := func(x, y uint64, elem int) bool {
		return vecmath.ToSigned(x, elem) < vecmath.ToSigned(y, elem)
	}
	ops := []struct {
		op  isa.Op
		ref func(x, y uint64, elem int) uint64
	}{
		{isa.OpAnd, func(x, y uint64, _ int) uint64 { return x & y }},
		{isa.OpXor, func(x, y uint64, _ int) uint64 { return x ^ y }},
		{isa.OpAdd, func(x, y uint64, _ int) uint64 { return x + y }},
		{isa.OpSub, func(x, y uint64, _ int) uint64 { return x - y }},
		{isa.OpMul, func(x, y uint64, _ int) uint64 { return x * y }},
		{isa.OpLT, func(x, y uint64, elem int) uint64 { return vecmath.Bool(signedLess(x, y, elem), elem) }},
		{isa.OpMin, func(x, y uint64, elem int) uint64 {
			if signedLess(x, y, elem) {
				return x
			}
			return y
		}},
		{isa.OpEQ, func(x, y uint64, elem int) uint64 { return vecmath.Bool(x == y, elem) }},
	}
	f := func(seed uint64, opSel, elemSel uint8) bool {
		o := ops[int(opSel)%len(ops)]
		elem := []int{1, 2, 4}[int(elemSel)%3]
		c := New(&cfg.SSD, energy.NewAccount())
		r := sim.NewRNG(seed)
		a := make([]byte, cfg.SSD.PageSize)
		b := make([]byte, cfg.SSD.PageSize)
		r.Bytes(a)
		r.Bytes(b)
		got, _, err := exec(c, o.op, [][]byte{a, b}, elem, false, 0)
		if err != nil {
			return false
		}
		for i := 0; i < cfg.SSD.PageSize/elem; i++ {
			want := o.ref(vecmath.Load(a, i, elem), vecmath.Load(b, i, elem), elem) & vecmath.Mask(elem)
			if vecmath.Load(got, i, elem) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
