package ssd

import (
	"fmt"

	"conduit/internal/coherence"
	"conduit/internal/config"
	"conduit/internal/cores"
	"conduit/internal/dram"
	"conduit/internal/ftl"
	"conduit/internal/isa"
	"conduit/internal/nand"
	"conduit/internal/offload"
	"conduit/internal/sim"
	"conduit/internal/stats"
)

// runsOn reports whether the device can execute inst on r. Control regions
// and loops the vectorizer rejected run only on the general-purpose cores
// (§7, applicability discussion); otherwise the operation table decides,
// and in flash an immediate only makes sense as a shift amount
// (materializing a broadcast page in NAND is never worth it).
func runsOn(inst *isa.Inst, r isa.Resource) bool {
	switch {
	case r == isa.ResISP:
		return true
	case inst.Op == isa.OpScalar || inst.Meta.Unvectorized:
		return false
	case r == isa.ResIFP && inst.UseImm && inst.Op.IFP() != isa.IFPShift:
		return false
	default:
		return isa.Supports(r, inst.Op)
	}
}

// ispCost, pudCost and ifpCost are the offloader's precomputed
// computation-latency table (§4.5), one read per resource: the
// contention-free latency of inst there, and the count the substrate
// charges compute energy by (core cycles, bbop rounds, latch-transfer
// rounds). The resource must run inst (runsOn). prof is the operand profile
// of in-flash execution.
func ispCost(cfg *config.SSD, inst *isa.Inst) (sim.Time, int64) {
	cycles := cores.InstCycles(cfg, inst, inst.Lanes)
	return cfg.CoreCycles(cycles), cycles
}

func pudCost(cfg *config.SSD, inst *isa.Inst) (sim.Time, int64) {
	rounds := int64(dram.Rounds(inst.Op, inst.Elem))
	return sim.Time(rounds) * cfg.TBbop, rounds
}

func ifpCost(cfg *config.SSD, inst *isa.Inst, prof nand.OperandProfile) (sim.Time, int64) {
	lat, rounds, _ := nand.Estimate(cfg, inst.Op, inst.Elem, prof)
	return lat, rounds
}

// Run executes the loaded program under policy, returning the measured
// result. The device must be in computation mode. Each Run consumes the
// loaded data image (execution mutates pages, calendars, and coherence
// state), so a second Run on the same device fails fast: reload the
// program, or Clone the device before running and keep the original as a
// pristine snapshot. The returned Result is an immutable value snapshot —
// nothing the device does afterwards can change it.
func (d *Device) Run(policy offload.Policy) (*Result, error) {
	if d.prog == nil {
		return nil, fmt.Errorf("ssd: no program loaded")
	}
	if d.mode != ModeComputation {
		return nil, fmt.Errorf("ssd: device is in I/O mode; enter computation mode first (§4.4)")
	}
	if d.consumed {
		return nil, fmt.Errorf("ssd: loaded image already consumed by a previous Run; reload the program or run on a Clone of the post-deploy device")
	}
	d.consumed = true
	decisions := make([]Decision, 0, len(d.prog.Insts))
	instLat := stats.NewReservoir()
	instLat.Grow(len(d.prog.Insts))
	var overhead sim.Time
	var elapsed sim.Time
	var replays int64

	for i := range d.prog.Insts {
		inst := &d.prog.Insts[i]
		d.curInst = i

		// Feature collection (§4.5): L2P lookups per operand, dependence
		// and queue tracking, movement and computation table lookups, and
		// the transformation-table lookup. The work pipelines across the
		// controller cores reserved for offloading (§4.3.2 footnote 3),
		// so the per-instruction latency below is not a serial bottleneck.
		var collect sim.Time
		for _, s := range inst.Srcs {
			if d.Dir.Owner(int(s)) == coherence.LocFlash {
				_, lat, err := d.FTL.Lookup(ftl.LPN(s))
				if err != nil {
					return nil, fmt.Errorf("ssd: inst %d operand %d: %w", i, s, err)
				}
				collect += lat
			} else {
				collect += d.Cfg.SSD.TL2PLookupDRAM
			}
		}
		collect += d.Cfg.SSD.TDepTrack + d.Cfg.SSD.TQueueTrack +
			d.Cfg.SSD.TDMLookup + d.Cfg.SSD.TCompLookup + d.Cfg.SSD.TTranslate
		// Each instruction's collection occupies the next free offload
		// core (FIFO); decode of instruction i+1 overlaps i's — only
		// same-core occupancy serializes.
		_, decoded := d.offloadCores.Reserve(0, 0, collect)
		if decoded > d.firmware {
			d.firmware = decoded
		}
		overhead += collect

		f := d.features(inst)
		choice := policy.Select(f)
		if !f.Supported[choice] {
			return nil, fmt.Errorf("ssd: policy %s chose %v for unsupported %v", policy.Name(), choice, inst.Op)
		}
		if _, ok := d.table.Lookup(choice, inst.Op); !ok && inst.Op != isa.OpScalar {
			return nil, fmt.Errorf("ssd: no translation for %v on %v", inst.Op, choice)
		}

		issue := d.firmware
		// Transient-fault handling (§4.4): a failed attempt burns the
		// expected execution time, then the scheduler replays the
		// instruction on another resource using the latest data version.
		if n := d.faults[inst.ID]; n > 0 {
			d.faults[inst.ID] = n - 1
			replays++
			f.Supported[choice] = false
			alt := choice
			if anySupported(f) {
				alt = policy.Select(f)
				if !f.Supported[alt] {
					alt = isa.ResISP
				}
			} else {
				// No other resource supports this op (e.g. division is
				// ISP-only): the replay re-runs on the same resource.
				f.Supported[choice] = true
			}
			// The replayed choice goes through the same translation-table
			// validation as the primary path: dispatching an instruction a
			// resource has no native encoding for is a bug regardless of
			// which path selected the resource.
			if _, ok := d.table.Lookup(alt, inst.Op); !ok && inst.Op != isa.OpScalar {
				return nil, fmt.Errorf("ssd: replay of inst %d: no translation for %v on %v", i, inst.Op, alt)
			}
			d.firmware += f.CompLatency[choice] // timeout window
			choice = alt
		}

		done, err := d.execute(inst, choice, issue)
		if err != nil {
			return nil, fmt.Errorf("ssd: inst %d (%v) on %v: %w", i, inst.Op, choice, err)
		}
		decisions = append(decisions, Decision{
			InstID: inst.ID, Op: inst.Op, Resource: choice, Issue: issue, Done: done,
		})
		instLat.Add(done - issue)
		if done > elapsed {
			elapsed = done
		}
	}

	res := &Result{
		Policy:         policy.Name(),
		Elapsed:        elapsed,
		InstLatencies:  instLat,
		Decisions:      decisions,
		ComputeEnergy:  d.En.ComputeTotal(),
		MovementEnergy: d.En.MovementTotal(),
		Counters:       d.snapshotCounters(),
		OverheadTime:   overhead,
		Replays:        replays,
	}
	return res, nil
}

// anySupported reports whether any resource can execute the featured
// instruction.
func anySupported(f *offload.Features) bool {
	for _, s := range f.Supported {
		if s {
			return true
		}
	}
	return false
}

// snapshotCounters reports substrate activity since the last measurement
// reset (excluding program-load provisioning), recorded in counterNames
// order.
func (d *Device) snapshotCounters() *stats.Counters {
	raw := d.rawCounters()
	c := stats.NewCounters()
	for i, name := range counterNames {
		c.Add(name, raw[i]-d.baseline[i])
	}
	return c
}

// features gathers the six cost-function inputs for inst (Table 1).
func (d *Device) features(inst *isa.Inst) *offload.Features {
	f := &d.feat
	*f = offload.Features{Inst: inst}
	cfg := &d.Cfg.SSD
	now := d.firmware

	if ready := d.operandsReady(inst); ready > now {
		f.DepDelay = ready - now
	}

	// ISP: always supported; operands stream through SSD DRAM.
	f.Supported[isa.ResISP] = true
	f.CompLatency[isa.ResISP], _ = ispCost(cfg, inst)
	f.QueueDelay[isa.ResISP] = d.Core.Calendar().QueueDelay(now)
	f.BWUtil[isa.ResISP] = d.Core.Calendar().Utilization(now)
	if inst.Op == isa.OpScalar {
		return f
	}

	// The SSD-internal shared buses are prone to contention (§4.2); work
	// that must cross the DRAM bus queues behind its backlog, so the
	// queueing-delay feature of bus-dependent resources includes it.
	busDelay := d.DRAM.Bus().QueueDelay(now)

	stageCost, stageChDelay := d.moveEstimateDRAM(inst)
	f.MoveLatency[isa.ResISP] = stageCost + d.coreTraffic(inst)
	f.QueueDelay[isa.ResISP] = maxT(f.QueueDelay[isa.ResISP], busDelay)
	if stageCost > 0 {
		f.QueueDelay[isa.ResISP] = maxT(f.QueueDelay[isa.ResISP], stageChDelay)
	}

	// PuD-SSD. Operand staging crosses the DRAM bus, so its backlog
	// gates PuD work whenever operands are not already resident.
	if runsOn(inst, isa.ResPuD) {
		f.Supported[isa.ResPuD] = true
		f.CompLatency[isa.ResPuD], _ = pudCost(cfg, inst)
		f.MoveLatency[isa.ResPuD] = stageCost
		f.QueueDelay[isa.ResPuD] = d.DRAM.Units().QueueDelay(now)
		if stageCost > 0 {
			f.QueueDelay[isa.ResPuD] = maxT(f.QueueDelay[isa.ResPuD], busDelay, stageChDelay)
		}
		f.BWUtil[isa.ResPuD] = d.DRAM.Units().Utilization(now)
	}

	// IFP.
	if runsOn(inst, isa.ResIFP) {
		f.Supported[isa.ResIFP] = true
		plan := d.planIFP(inst)
		f.CompLatency[isa.ResIFP], _ = ifpCost(cfg, inst, plan.profile)
		f.MoveLatency[isa.ResIFP] = plan.moveCost
		f.ResultMove[isa.ResIFP] = plan.resultCost
		f.QueueDelay[isa.ResIFP] = d.Flash.DieCalendar(plan.die).QueueDelay(now)
		if plan.profile.Loads > 0 {
			ch := d.planeAddr(plan.plane).Channel
			f.QueueDelay[isa.ResIFP] = maxT(f.QueueDelay[isa.ResIFP],
				d.Flash.BusCalendar(ch).QueueDelay(now))
		}
		f.BWUtil[isa.ResIFP] = d.Flash.DieCalendar(plan.die).Utilization(now)
	}
	return f
}

// moveEstimateDRAM is the static, contention-free cost of staging all
// operands of inst into SSD DRAM (the shared prerequisite of ISP and PuD
// execution). Per §4.3.2, the precomputed data-movement feature captures
// the transfer cost over the SSD's internal interconnects — the flash
// channels and the DRAM bus — not the flash sensing latency, which
// overlaps on otherwise-idle dies.
func (d *Device) moveEstimateDRAM(inst *isa.Inst) (sim.Time, sim.Time) {
	cfg := &d.Cfg.SSD
	now := d.firmware
	var t, chDelay sim.Time
	for _, s := range inst.Srcs {
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

// coreTraffic is the extra DRAM-bus traffic of ISP execution: the core
// streams every operand in and the result out.
func (d *Device) coreTraffic(inst *isa.Inst) sim.Time {
	cfg := &d.Cfg.SSD
	n := len(inst.Srcs) + 1 // sources in, result out
	return sim.Time(n) * cfg.DRAMTransferTime(inst.VectorBytes())
}

// ifpPlan describes how inst would execute in flash: the target plane and
// die, the operand profile (senses vs latch loads), and the contention-free
// movement cost of staging non-resident operands.
type ifpPlan struct {
	plane      int
	die        int
	profile    nand.OperandProfile
	moveCost   sim.Time // operand staging over the interconnects
	resultCost sim.Time // copying a live result out of the latches
}

// planIFP computes the placement plan and static movement estimate for
// executing inst in flash, mirroring executeIFP's latch-load staging.
func (d *Device) planIFP(inst *isa.Inst) ifpPlan {
	cfg := &d.Cfg.SSD
	geo := d.Flash.Geometry()
	plan := ifpPlan{plane: -1}

	// Prefer the plane whose buffer already latches an operand (free
	// chained reuse), else the first flash-resident operand's plane, else
	// a rotating cursor that spreads latch-loaded work across dies.
	flashPlane := -1
	for _, s := range inst.Srcs {
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
		plan.plane = d.ifpCursor
		d.ifpCursor = (d.ifpCursor + 1) % len(d.bufferTag)
	}
	plan.die = plan.plane / cfg.PlanesPerDie

	pageMove := cfg.ChannelTransferTime(cfg.PageSize)
	sameBlock := true
	firstBlock := -1 // block of the first operand sensed in the target plane
	for _, s := range inst.Srcs {
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
				// Cross-plane: read out and load in (two channel hops;
				// the source sense overlaps on its own die).
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
	// Result placement is data movement too: an in-flash result lands in
	// the plane buffer, and if its page stays live it must eventually be
	// copied out (channel + DRAM bus) before the latches are reused. Dead
	// temporaries (compiler liveness metadata) cost nothing. This is kept
	// separate from operand movement: Conduit's holistic cost function
	// prices it, the prior DM model does not (§3.2).
	if inst.Dst != isa.NoPage && !d.deadAfter(inst.Dst, inst.ID) {
		plan.resultCost = pageMove + cfg.DRAMTransferTime(cfg.PageSize)
	}
	return plan
}
