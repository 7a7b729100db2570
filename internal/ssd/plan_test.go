package ssd

import (
	"bytes"
	"testing"

	"conduit/internal/coherence"
	"conduit/internal/compiler"
	"conduit/internal/config"
	"conduit/internal/ftl"
	"conduit/internal/isa"
	"conduit/internal/nand"
	"conduit/internal/offload"
	"conduit/internal/sim"
	"conduit/internal/workloads"
)

// spy is a policy that shows every Select — the features the device
// collected and the resource chosen — to seen.
type spy struct {
	offload.Policy
	seen func(f *offload.Features, choice isa.Resource)
}

func (s spy) Select(f *offload.Features) isa.Resource {
	choice := s.Policy.Select(f)
	s.seen(f, choice)
	return choice
}

// The recompute oracle: feature collection as it was before the cost
// table, the operand scratch and the on-demand load signals — every input
// derived again from live device state, each flash operand through
// FTL.PhysAddr, utilization evaluated eagerly for every resource. It is
// kept apart from the product path on purpose (no shared helper beyond the
// latency models) and never mutates the device: the cursor goes in and
// comes out as a value.

type recomputed struct {
	supported                 [isa.NumResources]bool
	comp, move, result, queue [isa.NumResources]sim.Time
	util                      [isa.NumResources]float64
	dep                       sim.Time
	plan                      recomputedIFP
	cursorAfter               int
}

type recomputedIFP struct {
	plane, die int
	rotated    bool
	profile    nand.OperandProfile
	moveCost   sim.Time
	resultCost sim.Time
}

func recomputeFeatures(d *Device, inst *isa.Inst, cursor int) recomputed {
	f := recomputed{cursorAfter: cursor}
	cfg := &d.Cfg.SSD
	now := d.firmware

	if ready := d.operandsReady(inst); ready > now {
		f.dep = ready - now
	}

	f.supported[isa.ResISP] = true
	f.comp[isa.ResISP], _ = ispCost(cfg, inst)
	f.queue[isa.ResISP] = d.Core.Calendar().QueueDelay(now)
	f.util[isa.ResISP] = d.Core.Calendar().Utilization(now)
	if inst.Op == isa.OpScalar {
		return f
	}

	busDelay := d.DRAM.Bus().QueueDelay(now)

	stageCost, stageChDelay := recomputeMoveDRAM(d, inst)
	coreTraffic := sim.Time(len(inst.Srcs())+1) * cfg.DRAMTransferTime(inst.VectorBytes())
	f.move[isa.ResISP] = stageCost + coreTraffic
	f.queue[isa.ResISP] = maxT(f.queue[isa.ResISP], busDelay)
	if stageCost > 0 {
		f.queue[isa.ResISP] = maxT(f.queue[isa.ResISP], stageChDelay)
	}

	if runsOn(inst, isa.ResPuD) {
		f.supported[isa.ResPuD] = true
		f.comp[isa.ResPuD], _ = pudCost(cfg, inst)
		f.move[isa.ResPuD] = stageCost
		f.queue[isa.ResPuD] = d.DRAM.Units().Earliest().QueueDelay(now)
		if stageCost > 0 {
			f.queue[isa.ResPuD] = maxT(f.queue[isa.ResPuD], busDelay, stageChDelay)
		}
		f.util[isa.ResPuD] = d.DRAM.Units().Utilization(now)
	}

	if runsOn(inst, isa.ResIFP) {
		f.supported[isa.ResIFP] = true
		f.plan, f.cursorAfter = recomputeIFP(d, inst, cursor)
		f.comp[isa.ResIFP], _ = ifpCost(cfg, inst, f.plan.profile)
		f.move[isa.ResIFP] = f.plan.moveCost
		f.result[isa.ResIFP] = f.plan.resultCost
		f.queue[isa.ResIFP] = d.Flash.DieCalendar(f.plan.die).QueueDelay(now)
		if f.plan.profile.Loads > 0 {
			ch := d.planeAddr(f.plan.plane).Channel
			f.queue[isa.ResIFP] = maxT(f.queue[isa.ResIFP], d.Flash.BusCalendar(ch).QueueDelay(now))
		}
		f.util[isa.ResIFP] = d.Flash.DieCalendar(f.plan.die).Utilization(now)
	}
	return f
}

func recomputeMoveDRAM(d *Device, inst *isa.Inst) (sim.Time, sim.Time) {
	cfg := &d.Cfg.SSD
	now := d.firmware
	var t, chDelay sim.Time
	for _, s := range inst.Srcs() {
		if _, cached := d.slotOf(s); cached {
			continue
		}
		switch d.Dir.Owner(int(s)) {
		case coherence.LocFlash, coherence.LocBuffer:
			t += cfg.ChannelTransferTime(cfg.PageSize) + cfg.DRAMTransferTime(cfg.PageSize)
			if a, ok := d.FTL.PhysAddr(ftl.LPN(s)); ok {
				if qd := d.Flash.BusCalendar(a.Channel).QueueDelay(now); qd > chDelay {
					chDelay = qd
				}
			}
		}
	}
	return t, chDelay
}

func recomputeIFP(d *Device, inst *isa.Inst, cursor int) (recomputedIFP, int) {
	cfg := &d.Cfg.SSD
	geo := d.Flash.Geometry()
	plan := recomputedIFP{plane: -1}

	flashPlane := -1
	for _, s := range inst.Srcs() {
		switch d.Dir.Owner(int(s)) {
		case coherence.LocBuffer:
			if p, ok := d.bufferPlane(s); ok && plan.plane == -1 {
				plan.plane = p
			}
		case coherence.LocFlash:
			if a, ok := d.FTL.PhysAddr(ftl.LPN(s)); ok && flashPlane == -1 {
				flashPlane = geo.PlaneIndex(a)
			}
		}
	}
	if plan.plane == -1 {
		plan.plane = flashPlane
	}
	if plan.plane == -1 {
		plan.rotated = true
		plan.plane = cursor
		cursor = (cursor + 1) % len(d.bufferTag)
	}
	plan.die = plan.plane / cfg.PlanesPerDie

	pageMove := cfg.ChannelTransferTime(cfg.PageSize)
	sameBlock := true
	firstBlock := -1
	for _, s := range inst.Srcs() {
		switch d.Dir.Owner(int(s)) {
		case coherence.LocFlash:
			a, _ := d.FTL.PhysAddr(ftl.LPN(s))
			if geo.PlaneIndex(a) == plan.plane {
				plan.profile.Senses++
				if firstBlock == -1 {
					firstBlock = geo.BlockIndex(a)
				} else if geo.BlockIndex(a) != firstBlock {
					sameBlock = false
				}
			} else {
				plan.profile.Loads++
				plan.moveCost += 2 * pageMove
			}
		case coherence.LocBuffer:
			if p, ok := d.bufferPlane(s); ok && p == plan.plane && plan.profile.Latched == 0 {
				plan.profile.Latched++
			} else {
				plan.profile.Loads++
				plan.moveCost += 2 * pageMove
			}
		case coherence.LocDRAM:
			plan.profile.Loads++
			plan.moveCost += cfg.DRAMTransferTime(cfg.PageSize) + pageMove
		}
	}
	if plan.profile.Senses > 1 && sameBlock {
		switch inst.Op {
		case isa.OpAnd, isa.OpNand, isa.OpOr, isa.OpNor:
			plan.profile.MWS = true
		}
	}
	if inst.Dst != isa.NoPage && !d.deadAfter(inst.Dst, int(inst.ID)) {
		plan.resultCost = pageMove + cfg.DRAMTransferTime(cfg.PageSize)
	}
	return plan, cursor
}

// TestPlanMatchesRecompute: on every instruction of the six evaluated
// workloads under the eight device policies, the features a policy sees and
// the plan execute consumes equal, field for field, an independent
// recompute from live device state — utilization included, for all three
// resources although only BW-Offloading reads it. The in-flash plane
// rotation is followed end to end: the cursor before and after feature
// collection, and, when IFP wins a rotated plan, the next cursor value
// being the plane the result is latched in afterwards.
func TestPlanMatchesRecompute(t *testing.T) {
	cfg := config.Default()
	cfg.SSD.TimingOnly = true
	for _, w := range workloads.All(1) {
		c, err := compiler.Compile(w.Source, cfg.SSD.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		master := New(&cfg)
		if err := master.LoadProgram(c.Prog, nil); err != nil {
			t.Fatal(err)
		}
		master.EnterComputationMode()
		for _, pol := range allPolicies() {
			d := master.Clone()
			what := w.Name + "/" + pol.Name()
			cursor := d.ifpCursor     // as the recompute expects it before the next instruction
			execDst := isa.NoPage     // the last instruction's destination, if it ran in flash ...
			execPlane := -1           // ... and the plane it must have run on
			checkExecuted := func() { // the previous in-flash instruction ran on the expected plane
				if execDst == isa.NoPage {
					return
				}
				if p, ok := d.bufferPlane(execDst); !ok || p != execPlane {
					t.Fatalf("%s: page %d latched in plane %d (tagged=%v) after in-flash execution, want plane %d",
						what, execDst, p, ok, execPlane)
				}
			}
			insts := 0
			seen := func(f *offload.Features, choice isa.Resource) {
				inst := f.Inst
				at := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("%s inst %d (%v): "+format, append([]any{what, inst.ID, inst.Op}, args...)...)
				}
				checkExecuted()
				want := recomputeFeatures(d, inst, cursor)
				if f.Supported != want.supported || f.CompLatency != want.comp || f.MoveLatency != want.move ||
					f.ResultMove != want.result || f.QueueDelay != want.queue || f.DepDelay != want.dep {
					at("features differ from the recompute\n got: %+v\nwant: %+v", *f, want)
				}
				for _, r := range isa.AllResources {
					if got := f.BWUtil(r); got != want.util[r] {
						at("utilization of %v = %v, recompute says %v", r, got, want.util[r])
					}
				}
				if d.ifpCursor != want.cursorAfter {
					at("cursor after feature collection = %d, want %d (was %d)", d.ifpCursor, want.cursorAfter, cursor)
				}
				if d.plan.ready != d.operandsReady(inst) {
					at("plan.ready = %v, operands are ready at %v", d.plan.ready, d.operandsReady(inst))
				}
				if want.supported[isa.ResPuD] && d.plan.pudUnit != d.DRAM.Units().Earliest() {
					at("planned PuD unit is not the earliest one")
				}
				if got := d.plan.ifp; want.supported[isa.ResIFP] && (got.plane != want.plan.plane || got.die != want.plan.die ||
					got.rotated != want.plan.rotated || got.profile != want.plan.profile || got.moveCost != want.plan.moveCost) {
					at("in-flash plan %+v, recompute says %+v", got, want.plan)
				}
				// What executing the choice must do to the rotation.
				cursor, execDst, execPlane = want.cursorAfter, isa.NoPage, -1
				if choice == isa.ResIFP {
					execDst, execPlane = inst.Dst, want.plan.plane
					if want.plan.rotated {
						execPlane = cursor
						cursor = (cursor + 1) % len(d.bufferTag)
					}
				}
				insts++
			}
			if _, err := d.Run(spy{pol, seen}); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			checkExecuted()
			if d.ifpCursor != cursor {
				t.Fatalf("%s: cursor after the run = %d, want %d", what, d.ifpCursor, cursor)
			}
			if insts != len(c.Prog.Insts) {
				t.Fatalf("%s: checked %d of %d instructions", what, insts, len(c.Prog.Insts))
			}
		}
	}
}

// evictionProgram fills a 14-slot DRAM (16 pages, 1/8 reserved) so that the
// last instruction, R = B * A, finds A resident, dirty and least recently
// used, and B in flash: staging B — the first operand — evicts and writes
// back A, the second operand of the same instruction.
func evictionProgram(t *testing.T, ps int) (prog *isa.Program, inputs map[isa.PageID][]byte, a, b isa.PageID) {
	t.Helper()
	const in0, in1, fillers = isa.PageID(0), isa.PageID(1), 11
	b, a = 2, 3
	inputs = map[isa.PageID][]byte{in0: randPage(1, ps), in1: randPage(2, ps), b: randPage(3, ps)}
	mul := func(dst, x, y isa.PageID) isa.Inst {
		return isa.Inst{Op: isa.OpMul, Dst: dst, Src: [isa.MaxSrcs]isa.PageID{x, y}, NSrc: 2, Elem: 1, Lanes: int32(ps)}
	}
	insts := []isa.Inst{mul(a, in0, in1)} // slots: in0, in1, A
	for k := isa.PageID(1); k <= fillers; k++ {
		insts = append(insts, mul(a+k, in0, in1)) // one more slot each; in0 and in1 stay recently used
	}
	r := a + fillers + 1
	insts = append(insts, mul(r, b, a))
	return buildProg(t, int(r)+1, []isa.PageID{in0, in1, b}, insts), inputs, a, b
}

// TestExecuteReadsLiveStateUnderEviction: the operand scratch describes the
// device at feature-collection time, and execute must not trust it for
// locations. Here staging one operand evicts another operand of the same
// instruction between the two moments; the bytes must still match the
// functional reference, and the elapsed time and flash activity are pinned
// to what the recompute-everything device (19afba5) measured for this
// program.
func TestExecuteReadsLiveStateUnderEviction(t *testing.T) {
	cfg := config.TestScale()
	cfg.SSD.DRAMSize = int64(16 * cfg.SSD.PageSize)
	prog, inputs, a, b := evictionProgram(t, cfg.SSD.PageSize)
	last := len(prog.Insts) - 1
	for _, c := range []struct {
		policy   offload.Policy
		elapsed  sim.Time
		programs int64 // flash.programs: the write-backs
		senses   int64 // flash.senses
	}{
		{offload.PuDSSD{}, 902394, 3, 4},
		{offload.ISPOnly{}, 924763, 3, 4},
	} {
		d := New(&cfg)
		if err := d.LoadProgram(prog, inputs); err != nil {
			t.Fatal(err)
		}
		d.EnterComputationMode()
		sawStale := false
		res, err := d.Run(spy{c.policy, func(f *offload.Features, _ isa.Resource) {
			if int(f.Inst.ID) != last {
				return
			}
			// What feature collection resolved: B in flash, A dirty in a slot.
			ob, oa := d.ops[0], d.ops[1]
			sawStale = ob.owner == coherence.LocFlash && !ob.cached && oa.owner == coherence.LocDRAM && oa.cached
		}})
		if err != nil {
			t.Fatalf("%s: %v", c.policy.Name(), err)
		}
		if !sawStale {
			t.Fatalf("%s: the last instruction did not find B (page %d) in flash and A (page %d) dirty in DRAM; the test exercises nothing", c.policy.Name(), b, a)
		}
		// A was written back while B was staged, then staged again as a
		// clean copy of its flash page.
		if _, cached := d.slotOf(a); d.Dir.Owner(int(a)) != coherence.LocFlash || !cached {
			t.Fatalf("%s: A (page %d) owner %v cached=%v after the run, want a clean copy of a flash page: it was not evicted mid-instruction",
				c.policy.Name(), a, d.Dir.Owner(int(a)), cached)
		}
		verifyAgainstReference(t, d, prog, inputs)
		if got := [...]int64{int64(res.Elapsed), res.Counters.Get("flash.programs"), res.Counters.Get("flash.senses")}; got != [...]int64{int64(c.elapsed), c.programs, c.senses} {
			t.Errorf("%s: elapsed %d, flash.programs %d, flash.senses %d; the parent device measured %d, %d, %d",
				c.policy.Name(), got[0], got[1], got[2], c.elapsed, c.programs, c.senses)
		}
	}
}

// TestEvictionKeepsOperandOfCurrentInstruction: with liveness metadata (R
// is the only output page) A's last use is the last instruction, R = B * A.
// Staging B evicts A, which that same instruction has yet to read: the
// eviction must count the instruction's own reads and write A back. The
// parent device asked whether A was dead after the instruction, dropped it,
// and failed with "owned by DRAM without a slot".
func TestEvictionKeepsOperandOfCurrentInstruction(t *testing.T) {
	cfg := config.TestScale()
	cfg.SSD.DRAMSize = int64(16 * cfg.SSD.PageSize)
	prog, inputs, a, _ := evictionProgram(t, cfg.SSD.PageSize)
	r := prog.Insts[len(prog.Insts)-1].Dst
	prog.OutputPages = []isa.PageID{r}
	want := refRun(t, prog, inputs, cfg.SSD.PageSize)
	for _, policy := range []offload.Policy{offload.PuDSSD{}, offload.ISPOnly{}, offload.Conduit{}} {
		d := New(&cfg)
		if err := d.LoadProgram(prog, inputs); err != nil {
			t.Fatal(err)
		}
		if !d.deadAfter(a, len(prog.Insts)-1) {
			t.Fatalf("A (page %d) is live after the last instruction; the test exercises nothing", a)
		}
		d.EnterComputationMode()
		res, err := d.Run(policy)
		if err != nil {
			t.Fatalf("%s: %v", policy.Name(), err)
		}
		if res.Counters.Get("flash.programs") == 0 {
			t.Fatalf("%s: nothing was written back; the test exercises nothing", policy.Name())
		}
		got, err := d.PageBytes(r)
		if err != nil {
			t.Fatalf("%s: %v", policy.Name(), err)
		}
		if !bytes.Equal(got, want[r]) {
			t.Errorf("%s: the output page differs from the functional reference", policy.Name())
		}
	}
}
