package ssd

import (
	"bytes"
	"testing"

	"conduit/internal/coherence"
	"conduit/internal/config"
	"conduit/internal/ftl"
	"conduit/internal/isa"
	"conduit/internal/nand"
	"conduit/internal/offload"
	"conduit/internal/sim"
)

// refRun executes a program with a plain map-based interpreter — the
// oracle all device runs must match bit-for-bit.
func refRun(t *testing.T, prog *isa.Program, inputs map[isa.PageID][]byte, pageSize int) map[isa.PageID][]byte {
	t.Helper()
	mem := make(map[isa.PageID][]byte)
	load := func(p isa.PageID) []byte {
		if b, ok := mem[p]; ok {
			return b
		}
		if b, ok := inputs[p]; ok {
			cp := append([]byte(nil), b...)
			mem[p] = cp
			return cp
		}
		b := make([]byte, pageSize)
		mem[p] = b
		return b
	}
	for i := range prog.Insts {
		in := &prog.Insts[i]
		if in.Op == isa.OpScalar {
			continue
		}
		srcs := make([][]byte, 0, len(in.Srcs()))
		for _, s := range in.Srcs() {
			srcs = append(srcs, load(s))
		}
		out := make([]byte, pageSize)
		if err := isa.Apply(in.Op, out, srcs, int(in.Elem), in.UseImm, in.Imm); err != nil {
			t.Fatalf("reference inst %d: %v", i, err)
		}
		mem[in.Dst] = out
	}
	return mem
}

// buildProg assembles a program, inferring deps and validating.
func buildProg(t *testing.T, pages int, inputs []isa.PageID, insts []isa.Inst) *isa.Program {
	t.Helper()
	for i := range insts {
		insts[i].ID = int32(i)
	}
	p := &isa.Program{Name: "test", Pages: pages, Insts: insts, InputPages: inputs}
	if err := p.Validate(); err != nil {
		t.Fatalf("test program invalid: %v", err)
	}
	return p
}

func randPage(seed uint64, size int) []byte {
	r := sim.NewRNG(seed)
	p := make([]byte, size)
	r.Bytes(p)
	return p
}

// mixProgram exercises every resource: XOR chains (IFP-friendly),
// multiplications (PuD-friendly), division and shuffle (ISP-only), and a
// scalar region.
func mixProgram(t *testing.T, lanesElem int) (*isa.Program, map[isa.PageID][]byte) {
	t.Helper()
	cfg := config.TestScale()
	ps := cfg.SSD.PageSize
	lanes := ps / lanesElem
	inputs := map[isa.PageID][]byte{}
	var inputIDs []isa.PageID
	for p := isa.PageID(0); p < 4; p++ {
		inputs[p] = randPage(uint64(p)+1, ps)
		inputIDs = append(inputIDs, p)
	}
	v := func(op isa.Op, dst isa.PageID, srcs ...isa.PageID) isa.Inst {
		in := isa.Inst{Op: op, Dst: dst, Elem: uint8(lanesElem), Lanes: int32(lanes),
			Meta: isa.Meta{Class: op.Class()}}
		in.NSrc = uint8(copy(in.Src[:], srcs))
		return in
	}
	insts := []isa.Inst{
		v(isa.OpXor, 4, 0, 1),        // IFP-friendly
		v(isa.OpXor, 5, 4, 2),        // chained on the previous result
		v(isa.OpMul, 6, 2, 3),        // PuD-friendly
		v(isa.OpAdd, 7, 6, 0),        // arithmetic on a fresh result
		v(isa.OpDiv, 8, 7, 1),        // ISP-only
		v(isa.OpLT, 9, 8, 2),         // predication
		v(isa.OpSelect, 10, 9, 7, 6), // three-operand predication
		{Op: isa.OpScalar, Dst: isa.NoPage, ScalarCycles: 5000},
		v(isa.OpAnd, 11, 0, 1),     // co-located inputs: MWS AND
		v(isa.OpReduceAdd, 12, 10), // ISP-only reduction
	}
	return buildProg(t, 13, inputIDs, insts), inputs
}

func newLoadedDevice(t *testing.T, prog *isa.Program, inputs map[isa.PageID][]byte) *Device {
	t.Helper()
	cfg := config.TestScale()
	d := New(&cfg)
	if err := d.LoadProgram(prog, inputs); err != nil {
		t.Fatal(err)
	}
	d.EnterComputationMode()
	return d
}

func verifyAgainstReference(t *testing.T, d *Device, prog *isa.Program, inputs map[isa.PageID][]byte) {
	t.Helper()
	want := refRun(t, prog, inputs, d.Cfg.SSD.PageSize)
	for i := range prog.Insts {
		dst := prog.Insts[i].Dst
		if dst == isa.NoPage {
			continue
		}
		got, err := d.PageBytes(dst)
		if err != nil {
			t.Fatalf("page %d: %v", dst, err)
		}
		if !bytes.Equal(got, want[dst]) {
			t.Fatalf("page %d differs from reference (inst %d, op %v)", dst, i, prog.Insts[i].Op)
		}
	}
}

func allPolicies() []offload.Policy {
	return []offload.Policy{
		offload.Conduit{},
		offload.DMOffloading{},
		offload.BWOffloading{},
		offload.ISPOnly{},
		offload.PuDSSD{},
		offload.FlashCosmos{},
		offload.AresFlash{},
		&offload.NaiveCombo{},
	}
}

func TestRunRequiresComputationMode(t *testing.T) {
	prog, inputs := mixProgram(t, 1)
	cfg := config.TestScale()
	d := New(&cfg)
	if err := d.LoadProgram(prog, inputs); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(offload.Conduit{}); err == nil {
		t.Fatal("Run in I/O mode must fail (§4.4 operating modes)")
	}
	d.EnterComputationMode()
	if _, err := d.Run(offload.Conduit{}); err != nil {
		t.Fatal(err)
	}
	d.ExitComputationMode()
	if d.Mode() != ModeIO {
		t.Fatal("mode did not revert")
	}
}

func TestEveryPolicyMatchesReference(t *testing.T) {
	for _, pol := range allPolicies() {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			prog, inputs := mixProgram(t, 1)
			d := newLoadedDevice(t, prog, inputs)
			res, err := d.Run(pol)
			if err != nil {
				t.Fatal(err)
			}
			if res.Elapsed <= 0 {
				t.Fatal("execution must take time")
			}
			verifyAgainstReference(t, d, prog, inputs)
		})
	}
}

func TestEveryPolicyMatchesReference32Bit(t *testing.T) {
	for _, pol := range []offload.Policy{offload.Conduit{}, offload.AresFlash{}, offload.PuDSSD{}} {
		prog, inputs := mixProgram(t, 4)
		d := newLoadedDevice(t, prog, inputs)
		if _, err := d.Run(pol); err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		verifyAgainstReference(t, d, prog, inputs)
	}
}

func TestIdealMatchesReferenceAndIsFastest(t *testing.T) {
	prog, inputs := mixProgram(t, 1)
	d := newLoadedDevice(t, prog, inputs)
	ideal, mem, err := d.RunIdeal()
	if err != nil {
		t.Fatal(err)
	}
	want := refRun(t, prog, inputs, d.Cfg.SSD.PageSize)
	for p, w := range want {
		if got, ok := mem[p]; ok && !bytes.Equal(got, w) {
			t.Fatalf("ideal page %d differs from reference", p)
		}
	}
	// A fresh device under any real policy must be no faster than Ideal.
	for _, pol := range allPolicies() {
		prog2, inputs2 := mixProgram(t, 1)
		d2 := newLoadedDevice(t, prog2, inputs2)
		res, err := d2.Run(pol)
		if err != nil {
			t.Fatal(err)
		}
		if res.Elapsed < ideal.Elapsed {
			t.Fatalf("%s (%v) beat Ideal (%v)", pol.Name(), res.Elapsed, ideal.Elapsed)
		}
	}
}

func TestDecisionsRespectSupportMatrix(t *testing.T) {
	prog, inputs := mixProgram(t, 1)
	d := newLoadedDevice(t, prog, inputs)
	res, err := d.Run(offload.Conduit{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != len(prog.Insts) {
		t.Fatalf("decisions = %d, want one per instruction", len(res.Decisions))
	}
	for _, dec := range res.Decisions {
		op := prog.Insts[dec.InstID].Op
		if op == isa.OpScalar {
			if dec.Resource != isa.ResISP {
				t.Fatalf("scalar region on %v", dec.Resource)
			}
			continue
		}
		if !isa.Supports(dec.Resource, op) {
			t.Fatalf("%v dispatched to %v which does not support it", op, dec.Resource)
		}
	}
}

func TestXorChainReusesLatchedResult(t *testing.T) {
	// A chain of XORs whose intermediate stays in the plane buffer should
	// execute later links with a single sense (cheaper than the first).
	cfg := config.TestScale()
	ps := cfg.SSD.PageSize
	inputs := map[isa.PageID][]byte{0: randPage(1, ps), 1: randPage(2, ps), 2: randPage(3, ps)}
	v := func(dst isa.PageID, a, b isa.PageID) isa.Inst {
		return isa.Inst{Op: isa.OpXor, Dst: dst, Src: [isa.MaxSrcs]isa.PageID{a, b}, NSrc: 2, Elem: 1, Lanes: int32(ps)}
	}
	prog := buildProg(t, 5, []isa.PageID{0, 1, 2}, []isa.Inst{
		v(3, 0, 1),
		v(4, 3, 2), // 3 is latched in the plane buffer
	})
	d := newLoadedDevice(t, prog, inputs)
	res, err := d.Run(offload.AresFlash{})
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainstReference(t, d, prog, inputs)
	// Compare pure execution cost: time beyond operand readiness (the
	// second XOR cannot start before the first finishes).
	first := res.Decisions[0].Done - res.Decisions[0].Issue
	second := res.Decisions[1].Done - res.Decisions[0].Done
	if second >= first {
		t.Fatalf("chained XOR (%v) should be cheaper than the first (%v): latch reuse", second, first)
	}
	// The chained result's owner is the plane buffer (lazy coherence).
	if d.Dir.Owner(4) != coherence.LocBuffer {
		t.Fatalf("chain result owner = %v, want buffer", d.Dir.Owner(4))
	}
}

func TestCrossResourceCoherence(t *testing.T) {
	// IFP produces a result into the plane buffer; an ISP-only op then
	// consumes it. The read must see the buffer version.
	cfg := config.TestScale()
	ps := cfg.SSD.PageSize
	inputs := map[isa.PageID][]byte{0: randPage(7, ps), 1: randPage(8, ps)}
	prog := buildProg(t, 4, []isa.PageID{0, 1}, []isa.Inst{
		{Op: isa.OpXor, Dst: 2, Src: [isa.MaxSrcs]isa.PageID{0, 1}, NSrc: 2, Elem: 1, Lanes: int32(ps)},
		{Op: isa.OpDiv, Dst: 3, Src: [isa.MaxSrcs]isa.PageID{2, 1}, NSrc: 2, Elem: 1, Lanes: int32(ps)},
	})
	d := newLoadedDevice(t, prog, inputs)
	if _, err := d.Run(offload.AresFlash{}); err != nil {
		t.Fatal(err)
	}
	verifyAgainstReference(t, d, prog, inputs)
}

func TestScatteredOperandsUseLatchLoads(t *testing.T) {
	// Build a program whose AND operands are NOT co-located at load time
	// (each appears alone in IFP-capable ops before they meet), then force
	// IFP execution: the runtime stages the cross-plane operand through a
	// latch load — no flash program or page migration — and still computes
	// correctly.
	cfg := config.TestScale()
	ps := cfg.SSD.PageSize
	inputs := map[isa.PageID][]byte{}
	for p := isa.PageID(0); p < 8; p++ {
		inputs[p] = randPage(uint64(p)+20, ps)
	}
	// The two NOT results live in plane buffers (or DRAM after eviction);
	// the AND must stage at least one of them through a latch load.
	prog := buildProg(t, 12, []isa.PageID{0, 1, 2, 3, 4, 5, 6, 7}, []isa.Inst{
		{Op: isa.OpNot, Dst: 8, Src: [isa.MaxSrcs]isa.PageID{2}, NSrc: 1, Elem: 1, Lanes: int32(ps)},
		{Op: isa.OpNot, Dst: 9, Src: [isa.MaxSrcs]isa.PageID{6}, NSrc: 1, Elem: 1, Lanes: int32(ps)},
		{Op: isa.OpAnd, Dst: 10, Src: [isa.MaxSrcs]isa.PageID{8, 9}, NSrc: 2, Elem: 1, Lanes: int32(ps)},
	})
	d := newLoadedDevice(t, prog, inputs)
	res, err := d.Run(offload.AresFlash{})
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainstReference(t, d, prog, inputs)
	if res.Counters.Get("ftl.migrations") != 0 {
		t.Fatal("latch-load staging must not migrate pages")
	}
	if res.Counters.Get("flash.programs") != 0 {
		t.Fatal("operand staging must not program flash pages")
	}
	if res.Counters.Get("flash.fc_transfers") == 0 {
		t.Fatal("cross-plane operand must be latch-loaded")
	}
}

func TestOverheadAccounting(t *testing.T) {
	prog, inputs := mixProgram(t, 1)
	d := newLoadedDevice(t, prog, inputs)
	res, err := d.Run(offload.Conduit{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OverheadTime <= 0 {
		t.Fatal("offloader overhead must be accounted")
	}
	perInst := res.OverheadTime / sim.Time(len(prog.Insts))
	// §4.5: 3.77µs average, up to 33µs.
	if perInst < sim.Microsecond || perInst > 40*sim.Microsecond {
		t.Fatalf("per-instruction overhead %v outside the paper's envelope", perInst)
	}
}

func TestEnergySplitRecorded(t *testing.T) {
	prog, inputs := mixProgram(t, 1)
	d := newLoadedDevice(t, prog, inputs)
	res, err := d.Run(offload.Conduit{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ComputeEnergy <= 0 || res.MovementEnergy <= 0 {
		t.Fatalf("energy split %v/%v must both be positive", res.ComputeEnergy, res.MovementEnergy)
	}
}

func TestFractionsSumToOne(t *testing.T) {
	prog, inputs := mixProgram(t, 1)
	d := newLoadedDevice(t, prog, inputs)
	res, err := d.Run(offload.Conduit{})
	if err != nil {
		t.Fatal(err)
	}
	fr := Fractions(res.Decisions)
	sum := fr[0] + fr[1] + fr[2]
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("fractions sum to %v", sum)
	}
}

func TestISPOnlyNeverTouchesOtherResources(t *testing.T) {
	prog, inputs := mixProgram(t, 1)
	d := newLoadedDevice(t, prog, inputs)
	res, err := d.Run(offload.ISPOnly{})
	if err != nil {
		t.Fatal(err)
	}
	fr := Fractions(res.Decisions)
	if fr[isa.ResISP] != 1 {
		t.Fatalf("ISP fraction = %v, want 1", fr[isa.ResISP])
	}
	if res.Counters.Get("dram.bbops") != 0 {
		t.Fatal("ISP-only run must not execute PuD operations")
	}
	if res.Counters.Get("flash.mws_ops") != 0 {
		t.Fatal("ISP-only run must not execute MWS operations")
	}
}

func TestDRAMCapacityPressureCausesEviction(t *testing.T) {
	// Touch more pages than the DRAM has slots; evictions must occur and
	// results must stay correct.
	cfg := config.TestScale()
	cfg.SSD.DRAMSize = int64(8 * cfg.SSD.PageSize) // 8 slots, 7 usable
	ps := cfg.SSD.PageSize
	inputs := map[isa.PageID][]byte{}
	var ids []isa.PageID
	var insts []isa.Inst
	const n = 12
	for i := 0; i < n; i++ {
		p := isa.PageID(i)
		inputs[p] = randPage(uint64(i)+1, ps)
		ids = append(ids, p)
	}
	for i := 0; i < n; i++ {
		insts = append(insts, isa.Inst{Op: isa.OpMul, Dst: isa.PageID(n + i),
			Src: [isa.MaxSrcs]isa.PageID{isa.PageID(i), isa.PageID((i + 1) % n)}, NSrc: 2, Elem: 1, Lanes: int32(ps)})
	}
	prog := buildProg(t, 2*n, ids, insts)
	d := New(&cfg)
	if err := d.LoadProgram(prog, inputs); err != nil {
		t.Fatal(err)
	}
	d.EnterComputationMode()
	res, err := d.Run(offload.PuDSSD{})
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainstReference(t, d, prog, inputs)
	// Eviction writes dirty live pages back to flash.
	if res.Counters.Get("flash.programs") == 0 {
		t.Fatal("capacity pressure must evict (and write back) DRAM pages")
	}
}

func TestVersionCounterFlushBeforeWrap(t *testing.T) {
	// Accumulate into one page 300 times: the version counter must flush
	// before wrapping (§4.4 footnote 4) and the value must stay correct.
	cfg := config.TestScale()
	ps := cfg.SSD.PageSize
	inputs := map[isa.PageID][]byte{0: randPage(5, ps)}
	var insts []isa.Inst
	for i := 0; i < 300; i++ {
		insts = append(insts, isa.Inst{Op: isa.OpAdd, Dst: 1,
			Src: [isa.MaxSrcs]isa.PageID{1, 0}, NSrc: 2, Elem: 1, Lanes: int32(ps)})
	}
	prog := buildProg(t, 2, []isa.PageID{0}, insts)
	d := New(&cfg)
	if err := d.LoadProgram(prog, inputs); err != nil {
		t.Fatal(err)
	}
	d.EnterComputationMode()
	if _, err := d.Run(offload.PuDSSD{}); err != nil {
		t.Fatal(err)
	}
	got, err := d.PageBytes(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ps; i++ {
		want := byte(300 * int(inputs[0][i]))
		if got[i] != want {
			t.Fatalf("lane %d = %d, want %d", i, got[i], want)
		}
	}
}

func TestLoadProgramColocatesIFPOperands(t *testing.T) {
	cfg := config.TestScale()
	ps := cfg.SSD.PageSize
	inputs := map[isa.PageID][]byte{0: randPage(1, ps), 1: randPage(2, ps), 2: randPage(3, ps)}
	prog := buildProg(t, 4, []isa.PageID{0, 1, 2}, []isa.Inst{
		{Op: isa.OpAnd, Dst: 3, Src: [isa.MaxSrcs]isa.PageID{0, 1}, NSrc: 2, Elem: 1, Lanes: int32(ps)},
		{Op: isa.OpXor, Dst: 3, Src: [isa.MaxSrcs]isa.PageID{1, 2}, NSrc: 2, Elem: 1, Lanes: int32(ps)},
	})
	d := newLoadedDevice(t, prog, inputs)
	var addrs [3]nand.Addr
	for p := range addrs {
		var ok bool
		if addrs[p], ok = d.FTL.PhysAddr(ftl.LPN(p)); !ok {
			t.Fatalf("page %d unmapped", p)
		}
	}
	geo := d.Flash.Geometry()
	if !geo.SameBlock(addrs[0:2]) {
		t.Fatal("AND co-operands must be loaded into one block")
	}
	if !geo.SamePlane(addrs[1:3]) {
		t.Fatal("XOR co-operands must share a plane")
	}
}
