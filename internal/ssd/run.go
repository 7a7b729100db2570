package ssd

import (
	"fmt"
	"slices"

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

// ispCost, pudCost and ifpCost are the one computation-latency model per
// resource: the contention-free latency of inst there, and the count the
// substrate charges compute energy by (core cycles, bbop rounds,
// latch-transfer rounds). The resource must run inst (runsOn). prof is the
// operand profile of in-flash execution. Run does not call the ISP and PuD
// models: LoadProgram evaluates them once per instruction into the cost
// table.
func ispCost(cfg *config.SSD, inst *isa.Inst) (sim.Time, int64) {
	cycles := cores.InstCycles(cfg, inst, int(inst.Lanes))
	return cfg.CoreCycles(cycles), cycles
}

func pudCost(cfg *config.SSD, inst *isa.Inst) (sim.Time, int64) {
	rounds := int64(dram.Rounds(inst.Op, int(inst.Elem)))
	return sim.Time(rounds) * cfg.TBbop, rounds
}

func ifpCost(cfg *config.SSD, inst *isa.Inst, prof nand.OperandProfile) (sim.Time, int64) {
	lat, rounds, _ := nand.Estimate(cfg, inst.Op, int(inst.Elem), prof)
	return lat, rounds
}

// instCost is one row of the per-program cost table: everything feature
// collection needs that depends only on the instruction and the
// configuration — the offloader's precomputed tables of §4.5. LoadProgram
// builds one row per instruction, indexed by position; the table is
// immutable afterwards and shared by every fork. A new static feature
// input is a column here, never a computation in Run's loop.
type instCost struct {
	ispLat, pudLat sim.Time               // contention-free computation latency (pudLat only where runs[ResPuD])
	coreTraffic    sim.Time               // ISP's extra DRAM-bus traffic: every operand streamed in, the result out
	resultMove     sim.Time               // copying a live in-flash result out of the latches; 0 for a dead one
	runs           [isa.NumResources]bool // runsOn
}

// buildCosts computes the cost table of the loaded program, checking on the
// way what Run would otherwise check per dispatch: every resource that runs
// an instruction has a native encoding for it in the translation table
// (§4.5), whichever the policy later selects. It reads the liveness
// metadata, so LoadProgram calls it after accesses and output are in place.
func (d *Device) buildCosts() ([]instCost, error) {
	cfg := &d.Cfg.SSD
	// Result placement is data movement too: an in-flash result lands in
	// the plane buffer, and if its page stays live it must eventually be
	// copied out (channel + DRAM bus) before the latches are reused. Dead
	// temporaries (compiler liveness metadata) cost nothing. This is kept
	// separate from operand movement: Conduit's holistic cost function
	// prices it, the prior DM model does not (§3.2).
	liveResult := cfg.ChannelTransferTime(cfg.PageSize) + cfg.DRAMTransferTime(cfg.PageSize)
	costs := make([]instCost, len(d.prog.Insts))
	for i := range costs {
		inst, c := &d.prog.Insts[i], &costs[i]
		for _, r := range isa.AllResources {
			c.runs[r] = runsOn(inst, r)
			if _, ok := d.table.Lookup(r, inst.Op); c.runs[r] && !ok {
				return nil, fmt.Errorf("ssd: inst %d: no translation for %v on %v", i, inst.Op, r)
			}
		}
		c.ispLat, _ = ispCost(cfg, inst)
		if inst.Op == isa.OpScalar {
			continue
		}
		c.coreTraffic = sim.Time(len(inst.Srcs)+1) * cfg.DRAMTransferTime(inst.VectorBytes())
		if c.runs[isa.ResPuD] {
			c.pudLat, _ = pudCost(cfg, inst)
		}
		if c.runs[isa.ResIFP] && inst.Dst != isa.NoPage && !d.deadAfter(inst.Dst, int(inst.ID)) {
			c.resultMove = liveResult
		}
	}
	return costs, nil
}

// operand is where one source of the instruction being dispatched lives at
// feature-collection time. plane, block and channel locate a flash-owned
// page; for a latch-owned page plane is the plane whose buffer holds it
// (-1 when none is tagged). Execution does not read operands: staging one
// can evict and write back a later one of the same instruction.
type operand struct {
	owner                 coherence.Location
	cached                bool // a DRAM slot holds a copy
	plane, block, channel int
}

// instPlan is what feature collection decided about the instruction being
// dispatched, for execute to consume instead of deciding again: placement
// and the operand-ready time, never operand locations.
type instPlan struct {
	ready   sim.Time      // when the newest operand versions exist (operandsReady)
	pudUnit *sim.Calendar // the compute unit whose queue the PuD features priced
	ifp     ifpPlan
}

// Run executes the loaded program under policy, returning the measured
// result. The device must be in computation mode. Each Run consumes the
// loaded data image (execution mutates pages, calendars, and coherence
// state), so a second Run on the same device fails fast: reload the
// program, or Clone the device before running and keep the original as a
// pristine snapshot. Nothing the device does afterwards can change the
// returned Result, but it may be shared: a run that reproduces the result
// its policy published returns that one (recorder), so read it and never
// write it.
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
	cfg := &d.Cfg.SSD
	name := policy.Name()
	rec := d.newRecorder(name)
	// Besides the L2P lookups, per instruction: dependence and queue tracking,
	// movement, computation and transformation table lookups.
	fixedCollect := cfg.TDepTrack + cfg.TQueueTrack + cfg.TDMLookup + cfg.TCompLookup + cfg.TTranslate
	var overhead, elapsed sim.Time

	for i := range d.prog.Insts {
		inst := &d.prog.Insts[i]
		cost := &d.costs[i]
		d.curInst = i

		// Feature collection (§4.5) starts with the L2P lookups, one per
		// operand. It pipelines across the controller cores reserved
		// for offloading (§4.3.2 footnote 3), but only so far: with the
		// default three offload cores the pool issues about one
		// instruction per 0.9 µs, in program order and under every
		// in-SSD policy, and on heat-3d that cadence sets 96-98 % of
		// Elapsed.
		lookups, err := d.resolveOperands(inst)
		if err != nil {
			return nil, fmt.Errorf("ssd: inst %d %w", i, err)
		}
		collect := lookups + fixedCollect
		// Each instruction's collection occupies the next free offload
		// core (FIFO); decode of instruction i+1 overlaps i's — only
		// same-core occupancy serializes.
		_, decoded := d.offloadCores.Reserve(0, 0, collect)
		if decoded > d.firmware {
			d.firmware = decoded
		}
		overhead += collect

		f := d.features(inst, cost)
		choice := policy.Select(f)
		if !f.Supported[choice] {
			return nil, fmt.Errorf("ssd: policy %s chose %v for unsupported %v", policy.Name(), choice, inst.Op)
		}

		issue := d.firmware
		done, err := d.execute(inst, choice, issue, &d.plan)
		if err != nil {
			return nil, fmt.Errorf("ssd: inst %d (%v) on %v: %w", i, inst.Op, choice, err)
		}
		rec.add(Decision{InstID: inst.ID, Op: inst.Op, Resource: choice, Issue: issue, Done: done})
		if done > elapsed {
			elapsed = done
		}
	}

	// The counters since the measurement reset (program-load provisioning
	// excluded), in counterNames order, on the stack: the comparison with
	// the published result allocates nothing.
	counts := d.rawCounters()
	for i := range counts {
		counts[i] -= d.baseline[i]
	}
	return rec.finish(d, &Result{
		Policy:         name,
		Elapsed:        elapsed,
		ComputeEnergy:  d.En.ComputeTotal(),
		MovementEnergy: d.En.MovementTotal(),
		OverheadTime:   overhead,
	}, counts[:]), nil
}

// recorder compares a run, as it makes its decisions, with the result its
// policy published: while the decisions match nothing is allocated, and at
// the first difference, or with nothing published, the run copies the
// matching prefix and records its own.
type recorder struct {
	pub *Result    // what d.records holds for the policy; nil if nothing
	n   int        // decisions of pub reproduced so far
	own []Decision // nil while the run reproduces pub's decisions
}

func (d *Device) newRecorder(policy string) recorder {
	var r recorder
	if pub, ok := d.records.Load(policy); ok {
		r.pub = pub.(*Result)
	} else {
		r.own = make([]Decision, 0, len(d.prog.Insts))
	}
	return r
}

func (r *recorder) add(dec Decision) {
	if r.own == nil {
		if r.n < len(r.pub.Decisions) && r.pub.Decisions[r.n] == dec {
			r.n++
			return
		}
		// Sized to the program's length, like any whole run's.
		r.own = append(make([]Decision, 0, len(r.pub.Decisions)), r.pub.Decisions[:r.n]...)
	}
	r.own = append(r.own, dec)
}

// finish completes the run whose scalars are in run and whose counters,
// in counterNames order, are counts (none for Ideal). A run that
// reproduces the published result — every decision, scalar and counter —
// returns it, and allocates nothing. Otherwise run becomes the run's own
// result: it keeps the published decisions and latencies if it reproduced
// those, and else its own record, which it publishes as d's result of the
// policy if the policy has none yet.
func (r *recorder) finish(d *Device, run *Result, counts []int64) *Result {
	names := counterNames[:len(counts)]
	if pub := r.pub; r.own == nil && run.Elapsed == pub.Elapsed && run.OverheadTime == pub.OverheadTime &&
		run.ComputeEnergy == pub.ComputeEnergy && run.MovementEnergy == pub.MovementEnergy &&
		pub.Counters.Holds(names, counts) {
		return pub
	}
	own := *run
	if len(counts) == 0 {
		own.Counters = stats.NewCounters()
	} else {
		own.Counters = stats.CountersOf(names, slices.Clone(counts))
	}
	if r.own == nil {
		own.Decisions, own.InstLatencies = r.pub.Decisions, r.pub.InstLatencies
		return &own
	}
	ds := slices.Clip(r.own)
	var sum sim.Time
	for _, dec := range ds {
		sum += dec.Done - dec.Issue
	}
	own.Decisions, own.InstLatencies = ds, stats.ReservoirFunc(len(ds), sum, func(dst []sim.Time) {
		for i, dec := range ds {
			dst[i] = dec.Done - dec.Issue
		}
	})
	d.records.LoadOrStore(run.Policy, &own)
	return &own
}

// Published reports whether res is the result d's program published for
// res.Policy: the one every run that reproduces it returns.
func (d *Device) Published(res *Result) bool {
	pub, ok := d.records.Load(res.Policy)
	return ok && pub.(*Result) == res
}

// resolveOperands fills d.ops with where each source of inst lives now:
// the one resolve per operand that features and its estimators read. It
// returns the firmware latency of the L2P lookups: a flash-owned page's
// goes through the FTL's mapping cache; a DRAM- or latch-owned page is
// found in the coherence directory in SSD DRAM.
func (d *Device) resolveOperands(inst *isa.Inst) (sim.Time, error) {
	geo := d.Flash.Geometry()
	var lat sim.Time
	d.ops = d.ops[:0]
	for _, s := range inst.Srcs {
		o := operand{owner: d.Dir.Owner(int(s))}
		_, o.cached = d.slotOf(s)
		o.plane, _ = d.bufferPlane(s)
		if o.owner == coherence.LocFlash {
			page, l, err := d.FTL.Lookup(ftl.LPN(s))
			if err != nil {
				return 0, fmt.Errorf("operand %d: %w", s, err)
			}
			lat += l
			o.plane, o.block, o.channel = geo.Locate(page)
		} else {
			lat += d.Cfg.SSD.TL2PLookupDRAM
		}
		d.ops = append(d.ops, o)
	}
	return lat, nil
}

// deviceLoad is the Device as the offload.LoadSource behind the features
// it hands to a policy: utilization is computed when a policy reads it
// (only BW-Offloading does), at the dispatch time the eager features were
// collected at and before anything executes.
type deviceLoad Device

// Utilization implements offload.LoadSource; 0 for a resource that cannot
// run the instruction being dispatched.
func (l *deviceLoad) Utilization(r isa.Resource) float64 {
	d := (*Device)(l)
	switch {
	case !d.feat.Supported[r]:
		return 0
	case r == isa.ResISP:
		return d.Core.Calendar().Utilization(d.firmware)
	case r == isa.ResPuD:
		return d.DRAM.Units().Utilization(d.firmware)
	default:
		return d.Flash.DieCalendar(d.plan.ifp.die).Utilization(d.firmware)
	}
}

// features gathers the six cost-function inputs for inst (Table 1) from
// its cost-table row, the resolved operands in d.ops and the live
// calendars, and records in d.plan the placement it priced.
func (d *Device) features(inst *isa.Inst, cost *instCost) *offload.Features {
	// Every field is set in place, on every path: building the 136-byte
	// value afresh and copying it in costs more than the stores.
	f := &d.feat
	f.Inst, f.Supported, f.Load = inst, cost.runs, (*deviceLoad)(d)
	f.MoveLatency, f.ResultMove = [isa.NumResources]sim.Time{}, [isa.NumResources]sim.Time{}
	f.CompLatency[isa.ResPuD], f.QueueDelay[isa.ResPuD] = 0, 0
	f.CompLatency[isa.ResIFP], f.QueueDelay[isa.ResIFP] = 0, 0
	plan := &d.plan
	now := d.firmware

	plan.ready = d.operandsReady(inst)
	f.DepDelay = 0
	if plan.ready > now {
		f.DepDelay = plan.ready - now
	}

	// ISP: always supported; operands stream through SSD DRAM.
	f.CompLatency[isa.ResISP] = cost.ispLat
	f.QueueDelay[isa.ResISP] = d.Core.Calendar().QueueDelay(now)
	if inst.Op == isa.OpScalar {
		return f
	}

	// The SSD-internal shared buses are prone to contention (§4.2); work
	// that must cross the DRAM bus queues behind its backlog, so the
	// queueing-delay feature of bus-dependent resources includes it.
	busDelay := d.DRAM.Bus().QueueDelay(now)

	stageCost, stageChDelay := d.moveEstimateDRAM()
	f.MoveLatency[isa.ResISP] = stageCost + cost.coreTraffic
	f.QueueDelay[isa.ResISP] = maxT(f.QueueDelay[isa.ResISP], busDelay)
	if stageCost > 0 {
		f.QueueDelay[isa.ResISP] = maxT(f.QueueDelay[isa.ResISP], stageChDelay)
	}

	// PuD-SSD. Operand staging crosses the DRAM bus, so its backlog
	// gates PuD work whenever operands are not already resident.
	if cost.runs[isa.ResPuD] {
		f.CompLatency[isa.ResPuD] = cost.pudLat
		f.MoveLatency[isa.ResPuD] = stageCost
		// Nothing reserves a compute unit between here and executePuD
		// (staging books the DRAM bus and the flash calendars), so the
		// unit priced is the unit Exec would select.
		plan.pudUnit = d.DRAM.Units().Earliest()
		f.QueueDelay[isa.ResPuD] = plan.pudUnit.QueueDelay(now)
		if stageCost > 0 {
			f.QueueDelay[isa.ResPuD] = maxT(f.QueueDelay[isa.ResPuD], busDelay, stageChDelay)
		}
	}

	// IFP.
	if cost.runs[isa.ResIFP] {
		plan.ifp = d.planIFP(inst)
		f.CompLatency[isa.ResIFP], _ = ifpCost(&d.Cfg.SSD, inst, plan.ifp.profile)
		f.MoveLatency[isa.ResIFP] = plan.ifp.moveCost
		f.ResultMove[isa.ResIFP] = cost.resultMove
		f.QueueDelay[isa.ResIFP] = d.Flash.DieCalendar(plan.ifp.die).QueueDelay(now)
		if plan.ifp.profile.Loads > 0 {
			ch := d.planeAddr(plan.ifp.plane).Channel
			f.QueueDelay[isa.ResIFP] = maxT(f.QueueDelay[isa.ResIFP],
				d.Flash.BusCalendar(ch).QueueDelay(now))
		}
	}
	return f
}

// moveEstimateDRAM is the static, contention-free cost of staging all
// operands of the instruction into SSD DRAM (the shared prerequisite of
// ISP and PuD execution), and the longest backlog among the channels of
// its flash-resident operands. Per §4.3.2, the precomputed data-movement
// feature captures the transfer cost over the SSD's internal
// interconnects — the flash channels and the DRAM bus — not the flash
// sensing latency, which overlaps on otherwise-idle dies.
func (d *Device) moveEstimateDRAM() (sim.Time, sim.Time) {
	cfg := &d.Cfg.SSD
	now := d.firmware
	var t, chDelay sim.Time
	for i := range d.ops {
		o := &d.ops[i]
		if o.cached || o.owner == coherence.LocDRAM {
			continue
		}
		t += cfg.ChannelTransferTime(cfg.PageSize) + cfg.DRAMTransferTime(cfg.PageSize)
		if o.owner == coherence.LocFlash {
			if qd := d.Flash.BusCalendar(o.channel).QueueDelay(now); qd > chDelay {
				chDelay = qd
			}
		}
	}
	return t, chDelay
}

// ifpPlan describes how the instruction would execute in flash: the target
// plane and die, the operand profile (senses vs latch loads), and the
// contention-free movement cost of staging non-resident operands.
type ifpPlan struct {
	plane, die int
	// rotated: no operand is in flash or latched, so the plane came from
	// ifpCursor. Such an instruction is priced on this plane and, if IFP
	// wins, executes on the cursor's next one (executeIFP).
	rotated  bool
	profile  nand.OperandProfile
	moveCost sim.Time // operand staging over the interconnects
}

// planIFP computes the placement plan and static movement estimate for
// executing inst in flash, mirroring executeIFP's latch-load staging.
func (d *Device) planIFP(inst *isa.Inst) ifpPlan {
	cfg := &d.Cfg.SSD
	plan := ifpPlan{plane: -1}

	// Prefer the plane whose buffer already latches an operand (free
	// chained reuse), else the first flash-resident operand's plane, else
	// a rotating cursor that spreads latch-loaded work across dies.
	flashPlane := -1
	for i := range d.ops {
		switch o := &d.ops[i]; o.owner {
		case coherence.LocBuffer:
			if plan.plane == -1 {
				plan.plane = o.plane
			}
		case coherence.LocFlash:
			if flashPlane == -1 {
				flashPlane = o.plane
			}
		}
	}
	if plan.plane == -1 {
		plan.plane = flashPlane
	}
	if plan.plane == -1 {
		plan.rotated = true
		plan.plane = d.ifpCursor
		d.ifpCursor = (d.ifpCursor + 1) % len(d.bufferTag)
	}
	plan.die = plan.plane / cfg.PlanesPerDie

	pageMove := cfg.ChannelTransferTime(cfg.PageSize)
	sameBlock := true
	firstBlock := -1 // block of the first operand sensed in the target plane
	for i := range d.ops {
		switch o := &d.ops[i]; o.owner {
		case coherence.LocFlash:
			if o.plane == plan.plane {
				plan.profile.Senses++
				if firstBlock == -1 {
					firstBlock = o.block
				} else if o.block != firstBlock {
					sameBlock = false
				}
			} else {
				// Cross-plane: read out and load in (two channel hops;
				// the source sense overlaps on its own die).
				plan.profile.Loads++
				plan.moveCost += 2 * pageMove
			}
		case coherence.LocBuffer:
			if o.plane == plan.plane && plan.profile.Latched == 0 {
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
	return plan
}
