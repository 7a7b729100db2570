package nand

import (
	"bytes"
	"testing"
	"testing/quick"

	"conduit/internal/config"
	"conduit/internal/energy"
	"conduit/internal/isa"
	"conduit/internal/sim"
	"conduit/internal/stats"
	"conduit/internal/vecmath"
)

func newTestArray() (*Array, *config.SSD, *energy.Account) {
	cfg := config.TestScale()
	en := energy.NewAccount()
	return NewArray(&cfg.SSD, en), &cfg.SSD, en
}

func fill(cfg *config.SSD, b byte) []byte {
	p := make([]byte, cfg.PageSize)
	for i := range p {
		p[i] = b
	}
	return p
}

// latch returns what the page buffer of addr's plane holds.
func latch(a *Array, addr Addr) []byte {
	data, _ := a.PlaneBuffer(addr)
	return data
}

func TestGeometryRoundTrip(t *testing.T) {
	cfg := config.TestScale()
	g := NewGeometry(&cfg.SSD)
	for _, idx := range []int{0, 1, 100, cfg.SSD.TotalPages() - 1} {
		a := g.AddrOf(idx)
		if got := g.PageIndex(a); got != idx {
			t.Fatalf("PageIndex(AddrOf(%d)) = %d", idx, got)
		}
	}
}

// TestOperandLocationMatchesGeometry checks Locate, which the device
// places every flash-resident operand by, against the address
// arithmetic it replaced: every page of the test geometry, and both
// ends and a stride of the default one.
func TestOperandLocationMatchesGeometry(t *testing.T) {
	check := func(cfg *config.SSD, idx int) {
		g := NewGeometry(cfg)
		a := g.AddrOf(idx)
		plane, block, channel := g.Locate(idx)
		if plane != g.PlaneIndex(a) || block != g.BlockIndex(a) || channel != a.Channel {
			t.Fatalf("Locate(%d) = plane %d, block %d, channel %d; AddrOf gives %v (plane %d, block %d)",
				idx, plane, block, channel, a, g.PlaneIndex(a), g.BlockIndex(a))
		}
	}
	small, def := config.TestScale(), config.Default()
	for idx := range small.SSD.TotalPages() {
		check(&small.SSD, idx)
	}
	total := def.SSD.TotalPages()
	for idx := 0; idx < total; idx += 97 {
		check(&def.SSD, idx)
	}
	check(&def.SSD, total-1)
}

func TestGeometryRoundTripProperty(t *testing.T) {
	cfg := config.TestScale()
	g := NewGeometry(&cfg.SSD)
	total := cfg.SSD.TotalPages()
	f := func(raw uint32) bool {
		idx := int(raw) % total
		return g.PageIndex(g.AddrOf(idx)) == idx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryBlockRoundTripProperty(t *testing.T) {
	cfg := config.TestScale()
	g := NewGeometry(&cfg.SSD)
	total := g.TotalBlocks()
	f := func(raw uint32) bool {
		idx := int(raw) % total
		return g.BlockIndex(g.BlockAddrOf(idx)) == idx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryPlacementPredicates(t *testing.T) {
	cfg := config.TestScale()
	g := NewGeometry(&cfg.SSD)
	a := Addr{Channel: 1, Die: 2, Plane: 0, Block: 3, Page: 0}
	b := a
	b.Page = 5
	if !g.SameBlock([]Addr{a, b}) {
		t.Error("pages of one block should be SameBlock")
	}
	c := a
	c.Block = 4
	if g.SameBlock([]Addr{a, c}) {
		t.Error("different blocks must not be SameBlock")
	}
	if !g.SamePlane([]Addr{a, c}) {
		t.Error("same plane different block should be SamePlane")
	}
	d := a
	d.Plane = 1
	if g.SamePlane([]Addr{a, d}) {
		t.Error("different planes must not be SamePlane")
	}
	if g.SameBlock(nil) || g.SamePlane(nil) {
		t.Error("empty address lists are neither SameBlock nor SamePlane")
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	a, cfg, _ := newTestArray()
	addr := Addr{Channel: 0, Die: 0, Plane: 0, Block: 0, Page: 0}
	data := fill(cfg, 0xA5)
	done := a.Program(0, 0, addr, data)
	if done < cfg.TProg {
		t.Fatalf("program done at %v, want >= tProg %v", done, cfg.TProg)
	}
	got, rdone := a.Read(done, done, addr)
	if !bytes.Equal(got, data) {
		t.Fatal("read returned different data than programmed")
	}
	wantMin := done + cfg.TRead + cfg.ChannelTransferTime(cfg.PageSize)
	if rdone < wantMin {
		t.Fatalf("read done at %v, want >= %v (sense+transfer)", rdone, wantMin)
	}
}

func TestErasedPageReadsFF(t *testing.T) {
	a, cfg, _ := newTestArray()
	got, _ := a.Read(0, 0, Addr{})
	if !bytes.Equal(got, fill(cfg, 0xFF)) {
		t.Fatal("erased page should read as 0xFF")
	}
}

func TestDoubleProgramPanics(t *testing.T) {
	a, cfg, _ := newTestArray()
	addr := Addr{}
	a.Program(0, 0, addr, fill(cfg, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("double program should panic")
		}
	}()
	a.Program(0, 0, addr, fill(cfg, 2))
}

func TestEraseResetsBlockAndCounts(t *testing.T) {
	a, cfg, _ := newTestArray()
	addr := Addr{Block: 2, Page: 3}
	a.Program(0, 0, addr, fill(cfg, 0x42))
	blk := a.Geometry().BlockIndex(addr)
	done := a.Erase(sim.Second, addr)
	if done != sim.Second+cfg.TErase {
		t.Fatalf("erase done at %v, want now+tBERS", done)
	}
	if a.IsProgrammed(addr) {
		t.Fatal("page still programmed after erase")
	}
	if a.EraseCount(blk) != 1 {
		t.Fatalf("erase count = %d, want 1", a.EraseCount(blk))
	}
	got, _ := a.Read(done, done, addr)
	if !bytes.Equal(got, fill(cfg, 0xFF)) {
		t.Fatal("erased page should read 0xFF")
	}
	// The page can be programmed again.
	a.Program(done, done, addr, fill(cfg, 0x99))
}

func TestMWSAndComputesAndOfOperands(t *testing.T) {
	a, cfg, _ := newTestArray()
	base := Addr{Block: 1}
	ops := make([]Operand, 3)
	patterns := []byte{0xFF, 0xF0, 0xCC}
	for i, p := range patterns {
		addr := base
		addr.Page = i
		a.SetPageForTest(addr, fill(cfg, p))
		ops[i] = Operand{Addr: addr}
	}
	done, err := a.bitwise(0, 0, isa.OpAnd, ops)
	if err != nil {
		t.Fatal(err)
	}
	data, valid := a.PlaneBuffer(base)
	if !valid || !bytes.Equal(data, fill(cfg, 0xFF&0xF0&0xCC)) {
		t.Fatal("MWS AND result wrong")
	}
	// Single multi-wordline sense regardless of operand count.
	if done != cfg.TRead+cfg.TAndOr {
		t.Fatalf("AND latency = %v, want tR+tAND = %v", done, cfg.TRead+cfg.TAndOr)
	}
}

func TestMWSOrAcrossBlocks(t *testing.T) {
	a, cfg, _ := newTestArray()
	ops := make([]Operand, 2)
	for i, p := range []byte{0x0F, 0xF0} {
		addr := Addr{Block: i, Page: 0}
		a.SetPageForTest(addr, fill(cfg, p))
		ops[i] = Operand{Addr: addr}
	}
	if _, err := a.bitwise(0, 0, isa.OpOr, ops); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(latch(a, ops[0].Addr), fill(cfg, 0xFF)) {
		t.Fatal("MWS OR result wrong")
	}
}

func TestBitwisePlacementConstraints(t *testing.T) {
	a, cfg, _ := newTestArray()
	inBlock0 := Addr{Block: 0, Page: 0}
	inBlock1 := Addr{Block: 1, Page: 0}
	otherPlane := Addr{Plane: 1, Block: 0, Page: 0}
	for _, addr := range []Addr{inBlock0, inBlock1, otherPlane} {
		a.SetPageForTest(addr, fill(cfg, 1))
	}
	// AND across blocks in one plane is legal but loses the single
	// multi-wordline sense: it costs one tR per operand.
	acrossDone, err := a.bitwise(0, 0, isa.OpAnd, []Operand{{Addr: inBlock0}, {Addr: inBlock1}})
	if err != nil {
		t.Fatalf("AND across blocks (serial sensing): %v", err)
	}
	if want := 2*cfg.TRead + cfg.TAndOr; acrossDone != want {
		t.Errorf("cross-block AND latency = %v, want %v (two senses)", acrossDone, want)
	}
	// Anything across planes is rejected.
	if _, err := a.bitwise(0, 0, isa.OpOr, []Operand{{Addr: inBlock0}, {Addr: otherPlane}}); err == nil {
		t.Error("bitwise across planes should fail")
	}
	// Operand-count limits.
	tooMany := make([]Operand, MaxOrOperands+1)
	for i := range tooMany {
		addr := Addr{Block: i % cfg.BlocksPerPlane, Page: 0}
		a.SetPageForTest(addr, fill(cfg, 1))
		tooMany[i] = Operand{Addr: addr}
	}
	if _, err := a.bitwise(0, 0, isa.OpOr, tooMany); err == nil {
		t.Error("OR beyond MaxOrOperands should fail")
	}
	// Unprogrammed operand rejected.
	if _, err := a.bitwise(0, 0, isa.OpNot, []Operand{{Addr: Addr{Block: 5, Page: 7}}}); err == nil {
		t.Error("bitwise on erased page should fail")
	}
}

func TestXorUsesBufferOperandWithoutSense(t *testing.T) {
	a, cfg, _ := newTestArray()
	x := Addr{Block: 0, Page: 0}
	y := Addr{Block: 0, Page: 1}
	a.SetPageForTest(x, fill(cfg, 0xAA))
	a.SetPageForTest(y, fill(cfg, 0x0F))
	// First XOR: two senses.
	d1, err := a.bitwise(0, 0, isa.OpXor, []Operand{{Addr: x}, {Addr: y}})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*cfg.TRead + cfg.TXor; d1 != want {
		t.Fatalf("fresh XOR latency = %v, want %v", d1, want)
	}
	if !bytes.Equal(latch(a, x), fill(cfg, 0xAA^0x0F)) {
		t.Fatal("XOR result wrong")
	}
	// Chained XOR with latched partial result: one sense only.
	d2, err := a.bitwise(d1, d1, isa.OpXor, []Operand{{Addr: x, InBuffer: true}, {Addr: y}})
	if err != nil {
		t.Fatal(err)
	}
	if want := d1 + cfg.TRead + cfg.TXor; d2 != want {
		t.Fatalf("chained XOR latency = %v, want %v (one sense)", d2, want)
	}
	if !bytes.Equal(latch(a, x), fill(cfg, 0xAA^0x0F^0x0F)) {
		t.Fatal("chained XOR result wrong")
	}
}

func TestArithAddFunctional(t *testing.T) {
	a, cfg, _ := newTestArray()
	x := Addr{Block: 0, Page: 0}
	y := Addr{Block: 0, Page: 1}
	px := make([]byte, cfg.PageSize)
	py := make([]byte, cfg.PageSize)
	for i := range px {
		px[i] = byte(i * 7)
		py[i] = byte(255 - i)
	}
	a.SetPageForTest(x, px)
	a.SetPageForTest(y, py)
	done, err := a.arith(0, 0, isa.OpAdd, Operand{Addr: x}, Operand{Addr: y}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := latch(a, x)
	for i := 0; i < cfg.PageSize; i++ {
		if buf[i] != px[i]+py[i] {
			t.Fatalf("add[%d] = %d, want %d", i, buf[i], px[i]+py[i])
		}
	}
	// Two senses + 24 latch transfers for INT8.
	want := 2*cfg.TRead + 24*cfg.TLatchTransfer
	if done != want {
		t.Fatalf("add latency = %v, want %v", done, want)
	}
}

func TestArithMulExpensiveAndCorrect(t *testing.T) {
	a, cfg, _ := newTestArray()
	x := Addr{Block: 0, Page: 0}
	y := Addr{Block: 0, Page: 1}
	px := make([]byte, cfg.PageSize)
	py := make([]byte, cfg.PageSize)
	for i := range px {
		px[i] = byte(i)
		py[i] = 3
	}
	a.SetPageForTest(x, px)
	a.SetPageForTest(y, py)
	mulDone, err := a.arith(0, 0, isa.OpMul, Operand{Addr: x}, Operand{Addr: y}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := latch(a, x)
	for i := 0; i < cfg.PageSize; i++ {
		if buf[i] != byte(i)*3 {
			t.Fatalf("mul[%d] = %d, want %d", i, buf[i], byte(i)*3)
		}
	}
	// MUL must cost dramatically more than ADD (FC transfers per bit),
	// which is what drives policies away from IFP multiplication.
	b := NewArray(cfg, energy.NewAccount())
	b.SetPageForTest(x, px)
	b.SetPageForTest(y, py)
	addDone, _ := b.arith(0, 0, isa.OpAdd, Operand{Addr: x}, Operand{Addr: y}, 1, 0)
	mulCompute := mulDone - 2*cfg.TRead
	addCompute := addDone - 2*cfg.TRead
	if mulCompute < 10*addCompute {
		t.Fatalf("IFP mul compute (%v) should dwarf add compute (%v)", mulCompute, addCompute)
	}
}

func TestArithShiftAndWideElements(t *testing.T) {
	a, cfg, _ := newTestArray()
	x := Addr{Block: 0, Page: 0}
	px := make([]byte, cfg.PageSize)
	for i := range px {
		px[i] = byte(i)
	}
	a.SetPageForTest(x, px)
	if _, err := a.arith(0, 0, isa.OpShl, Operand{Addr: x}, Operand{}, 4, 8); err != nil {
		t.Fatal(err)
	}
	buf := latch(a, x)
	// Check one 32-bit element: little-endian shift by 8.
	want := (uint64(px[0]) | uint64(px[1])<<8 | uint64(px[2])<<16 | uint64(px[3])<<24) << 8 & 0xFFFFFFFF
	got := uint64(buf[0]) | uint64(buf[1])<<8 | uint64(buf[2])<<16 | uint64(buf[3])<<24
	if got != want {
		t.Fatalf("shl32 = %x, want %x", got, want)
	}
	if _, err := a.arith(0, 0, isa.OpAdd, Operand{Addr: x}, Operand{Addr: x}, 3, 0); err == nil {
		t.Error("element size 3 should be rejected")
	}
}

func TestLatchLoadedOperands(t *testing.T) {
	a, cfg, _ := newTestArray()
	x := Addr{Block: 0, Page: 0}
	a.SetPageForTest(x, fill(cfg, 0xF0))
	loaded := fill(cfg, 0x3C)
	// XOR of a sensed page with channel-loaded data: one sense plus one
	// latch-load DMA.
	done, err := a.bitwise(0, 0, isa.OpXor, []Operand{{Addr: x}, {Data: loaded}})
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.TRead + cfg.TDMA + cfg.TXor; done != want {
		t.Fatalf("latch-operand XOR latency = %v, want %v", done, want)
	}
	if !bytes.Equal(latch(a, x), fill(cfg, 0xF0^0x3C)) {
		t.Fatal("latch-operand XOR result wrong")
	}
	// Arithmetic with both operands loaded: zero senses.
	b := NewArray(cfg, energy.NewAccount())
	add, err := b.arith(0, 0, isa.OpAdd, Operand{Addr: x, Data: fill(cfg, 5)},
		Operand{Addr: x, Data: fill(cfg, 7)}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if add >= cfg.TRead {
		t.Fatalf("all-loaded add (%v) must avoid sensing (tR %v)", add, cfg.TRead)
	}
	if !bytes.Equal(latch(b, x), fill(cfg, 12)) {
		t.Fatal("all-loaded add result wrong")
	}
	// Latch capacity: more than two loaded operands is impossible.
	if _, err := b.bitwise(0, 0, isa.OpAnd, []Operand{
		{Addr: x, Data: loaded}, {Addr: x, Data: loaded}, {Addr: x, Data: loaded}}); err == nil {
		t.Error("three latch-loaded operands must be rejected")
	}
	// Wrong-size loaded data rejected.
	if _, err := b.bitwise(0, 0, isa.OpNot, []Operand{{Addr: x, Data: []byte{1}}}); err == nil {
		t.Error("short latch data must be rejected")
	}
}

func TestFlushAndReadBuffer(t *testing.T) {
	a, cfg, _ := newTestArray()
	x := Addr{Block: 0, Page: 0}
	a.SetPageForTest(x, fill(cfg, 0x3C))
	if _, err := a.bitwise(0, 0, isa.OpNot, []Operand{{Addr: x}}); err != nil {
		t.Fatal(err)
	}
	dst := Addr{Block: 0, Page: 10}
	if _, err := a.FlushBuffer(0, 0, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.PageData(dst), fill(cfg, ^byte(0x3C))) {
		t.Fatal("flushed page does not match buffer")
	}
	data, _, err := a.ReadBuffer(0, 0, x)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, fill(cfg, ^byte(0x3C))) {
		t.Fatal("ReadBuffer returned wrong data")
	}
	// Flush to a programmed page is refused.
	if _, err := a.FlushBuffer(0, 0, dst); err == nil {
		t.Error("flush onto programmed page should fail")
	}
	// Empty-buffer operations are refused.
	other := Addr{Channel: 1}
	if _, _, err := a.ReadBuffer(0, 0, other); err == nil {
		t.Error("reading empty buffer should fail")
	}
	if _, err := a.FlushBuffer(0, 0, other); err == nil {
		t.Error("flushing empty buffer should fail")
	}
}

func TestDieSerializationAndChannelContention(t *testing.T) {
	a, cfg, _ := newTestArray()
	sameDie0 := Addr{Block: 0, Page: 0}
	sameDie1 := Addr{Block: 1, Page: 0}
	otherDie := Addr{Die: 1, Block: 0, Page: 0}
	for _, addr := range []Addr{sameDie0, sameDie1, otherDie} {
		a.SetPageForTest(addr, fill(cfg, 1))
	}
	// Two reads on the same die serialize their senses.
	_, d1 := a.Read(0, 0, sameDie0)
	_, d2 := a.Read(0, 0, sameDie1)
	if d2 < d1+cfg.TRead {
		t.Fatalf("same-die reads did not serialize: %v then %v", d1, d2)
	}
	// Reads on different dies of the same channel overlap their senses
	// and share only the channel's bandwidth, so the pair finishes no
	// later than two same-die reads.
	b := NewArray(cfg, energy.NewAccount())
	b.SetPageForTest(sameDie0, fill(cfg, 1))
	b.SetPageForTest(otherDie, fill(cfg, 1))
	_, e1 := b.Read(0, 0, sameDie0)
	_, e2 := b.Read(0, 0, otherDie)
	if e2 > d2 {
		t.Fatalf("parallel-die reads (%v) should beat same-die reads (%v)", e2, d2)
	}
	if e2 < e1 {
		t.Fatalf("channel work must still be conserved: %v then %v", e1, e2)
	}
}

func TestEnergyAccounting(t *testing.T) {
	a, cfg, en := newTestArray()
	addr := Addr{}
	a.Program(0, 0, addr, fill(cfg, 1))
	a.Read(0, 0, addr)
	// The array charges compute to IFP and movement to the flash
	// channels only.
	if en.ComputeTotal() <= 0 {
		t.Fatal("flash operations should record compute energy")
	}
	if en.MovementTotal() <= 0 {
		t.Fatal("flash transfers should record movement energy")
	}
	st := stats.CountersOf(CounterNames[:], a.AppendCounts(nil))
	if st.Get("senses") != 1 || st.Get("programs") != 1 {
		t.Fatalf("counters = %v %v", st.Names(), a.AppendCounts(nil))
	}
}

// Property: MWS-AND equals the bytewise AND of the operand pages for random
// contents and random operand counts within one block.
func TestMWSAndProperty(t *testing.T) {
	cfg := config.TestScale()
	f := func(seed uint64, nOps uint8) bool {
		n := int(nOps)%4 + 2
		a := NewArray(&cfg.SSD, energy.NewAccount())
		r := sim.NewRNG(seed)
		want := fill(&cfg.SSD, 0xFF)
		ops := make([]Operand, n)
		for i := 0; i < n; i++ {
			p := make([]byte, cfg.SSD.PageSize)
			r.Bytes(p)
			addr := Addr{Block: 3, Page: i}
			a.SetPageForTest(addr, p)
			ops[i] = Operand{Addr: addr}
			for j := range want {
				want[j] &= p[j]
			}
		}
		if _, err := a.bitwise(0, 0, isa.OpAnd, ops); err != nil {
			return false
		}
		return bytes.Equal(latch(a, ops[0].Addr), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: latch arithmetic matches Go integer arithmetic elementwise for
// random pages across element sizes.
func TestArithProperty(t *testing.T) {
	cfg := config.TestScale()
	f := func(seed uint64, opSel, elemSel uint8) bool {
		ops := []isa.Op{isa.OpAdd, isa.OpMul}
		elems := []int{1, 2, 4}
		op := ops[int(opSel)%len(ops)]
		elem := elems[int(elemSel)%len(elems)]
		a := NewArray(&cfg.SSD, energy.NewAccount())
		r := sim.NewRNG(seed)
		px := make([]byte, cfg.SSD.PageSize)
		py := make([]byte, cfg.SSD.PageSize)
		r.Bytes(px)
		r.Bytes(py)
		x := Addr{Block: 0, Page: 0}
		y := Addr{Block: 0, Page: 1}
		a.SetPageForTest(x, px)
		a.SetPageForTest(y, py)
		if _, err := a.arith(0, 0, op, Operand{Addr: x}, Operand{Addr: y}, elem, 0); err != nil {
			return false
		}
		got := latch(a, x)
		mask := uint64(1)<<(8*elem) - 1
		for i := 0; i < cfg.SSD.PageSize/elem; i++ {
			xv := vecmath.Load(px, i, elem)
			yv := vecmath.Load(py, i, elem)
			var want uint64
			switch op {
			case isa.OpAdd:
				want = (xv + yv) & mask
			case isa.OpMul:
				want = (xv * yv) & mask
			}
			if vecmath.Load(got, i, elem) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestCloneIsolatedFromLaterWrites: an array that is not frozen keeps
// owning its tables, so Clone deep-copies them and nothing the original
// does afterwards — programs, erases — shows through the clone; a frozen
// array's clone is isolated the other way round as well.
func TestCloneIsolatedFromLaterWrites(t *testing.T) {
	a, cfg, _ := newTestArray()
	geo := a.Geometry()
	old := Addr{Block: 1, Page: 0}
	a.Program(0, 0, old, fill(cfg, 1))

	c := new(Array) // a clone is a restore into a zero array
	c.Restore(a, energy.NewAccount())
	later := Addr{Block: 2, Page: 3}
	a.Program(0, 0, later, fill(cfg, 2))
	a.Erase(0, old)
	if c.IsProgrammed(later) {
		t.Error("program on the original after Clone reached the clone")
	}
	if !c.IsProgrammed(old) || !bytes.Equal(c.PageData(old), fill(cfg, 1)) {
		t.Error("erase on the original after Clone reached the clone")
	}
	if got := c.EraseCount(geo.BlockIndex(old)); got != 0 {
		t.Errorf("clone erase count = %d after the original erased, want 0", got)
	}

	// The frozen array's copy is restored over the used clone: what the
	// clone held of its own (programmed pages, payloads) is gone.
	a.Freeze()
	f := c
	f.Restore(a, energy.NewAccount())
	if f.IsProgrammed(old) || !f.IsProgrammed(later) || !bytes.Equal(f.PageData(later), fill(cfg, 2)) {
		t.Error("a restored array does not show its source's pages")
	}
	f.Program(0, 0, old, fill(cfg, 3))
	f.Erase(0, later)
	if a.IsProgrammed(old) || !a.IsProgrammed(later) {
		t.Error("writes to a frozen array's clone reached the array")
	}
	if got := a.EraseCount(geo.BlockIndex(later)); got != 0 {
		t.Errorf("frozen array erase count = %d after its clone erased, want 0", got)
	}
}

// TestExecMatchesEvaluator runs every IR operation through Exec: one the
// operation table gives an in-flash mechanism must leave exactly
// isa.Apply's result in the plane buffer (the latch fold here and the
// shared evaluator are separate code), at Estimate's latency; any other
// must be refused.
func TestExecMatchesEvaluator(t *testing.T) {
	cfg := config.TestScale()
	x, y := Addr{Block: 2, Page: 0}, Addr{Block: 2, Page: 1}
	px, py := make([]byte, cfg.SSD.PageSize), make([]byte, cfg.SSD.PageSize)
	r := sim.NewRNG(7)
	r.Bytes(px)
	r.Bytes(py)
	for op := isa.Op(0); op <= isa.OpScalar; op++ {
		for _, elem := range []int{1, 2, 4} {
			a := NewArray(&cfg.SSD, energy.NewAccount())
			a.SetPageForTest(x, px)
			a.SetPageForTest(y, py)
			ops := []Operand{{Addr: x}, {Addr: y}}[:min(max(op.Arity(), 1), 2)]
			const imm = 3
			done, err := a.Exec(0, 0, op, ops, elem, imm)
			if op.IFP() == isa.IFPNone {
				if err == nil {
					t.Errorf("%v has no in-flash mechanism but Exec ran it", op)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%v elem %d: %v", op, elem, err)
			}
			want := make([]byte, cfg.SSD.PageSize)
			if err := isa.Apply(op, want, [][]byte{px, py}[:len(ops)], elem, false, imm); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(latch(a, x), want) {
				t.Errorf("%v elem %d: plane buffer differs from isa.Apply", op, elem)
			}
			prof := OperandProfile{Senses: len(ops), MWS: len(ops) > 1 && (op == isa.OpAnd || op == isa.OpNand || op == isa.OpOr || op == isa.OpNor)}
			if lat, _, _ := Estimate(&cfg.SSD, op, elem, prof); done != lat {
				t.Errorf("%v elem %d: uncontended Exec = %v, Estimate = %v", op, elem, done, lat)
			}
		}
	}
}
