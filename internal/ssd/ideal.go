package ssd

import (
	"fmt"

	"conduit/internal/arena"
	"conduit/internal/ftl"
	"conduit/internal/isa"
	"conduit/internal/nand"
	"conduit/internal/sim"
)

// RunIdeal executes the loaded program under the unrealizable Ideal policy
// of §5.3: (1) no queueing delay on any computation resource, (2) zero
// data-movement latency, and (3) each instruction on the resource with the
// lowest computation latency. Dependences still order execution — even an
// ideal machine cannot consume a value before it exists.
//
// The run is functional (results are computed for verification) and
// returns the final contents of every page alongside the timing result.
// In timing-only mode the functional pass is elided and the page map is
// nil; timing, decisions, and energy are unchanged because idealChoice
// and idealComputeEnergy never look at payloads.
func (d *Device) RunIdeal() (*Result, map[isa.PageID][]byte, error) {
	if d.prog == nil {
		return nil, nil, fmt.Errorf("ssd: no program loaded")
	}
	cfg := &d.Cfg.SSD
	// Page buffers are run-local (flash contents are copied in), so a
	// payload replaced by a later write to the same page is dead and goes
	// back to the pool. None of this exists in timing-only mode.
	var pool *arena.Pool
	var mem map[isa.PageID][]byte
	if !cfg.TimingOnly {
		pool = arena.New(cfg.PageSize)
		mem = make(map[isa.PageID][]byte, len(d.output))
	}
	load := func(p isa.PageID) []byte {
		if b, ok := mem[p]; ok {
			return b
		}
		var b []byte
		if addr, ok := d.FTL.PhysAddr(ftl.LPN(p)); ok {
			b = d.Flash.PageData(addr)
		} else {
			b = pool.GetZeroed()
		}
		mem[p] = b
		return b
	}

	ready := make([]sim.Time, len(d.output))
	var srcs [][]byte // reused operand-pointer scratch
	rec := d.newRecorder("Ideal")
	var elapsed sim.Time
	var computeEnergy float64

	for i := range d.prog.Insts {
		inst := &d.prog.Insts[i]
		var start sim.Time
		for _, s := range inst.Srcs() {
			if ready[s] > start {
				start = ready[s]
			}
		}
		if inst.Dst != isa.NoPage && ready[inst.Dst] > start {
			start = ready[inst.Dst]
		}

		choice, comp := d.idealChoice(inst)
		computeEnergy += d.idealComputeEnergy(inst, choice)
		done := start + comp
		if inst.Dst != isa.NoPage {
			if !cfg.TimingOnly {
				// Functional execution via the shared kernels.
				srcs = srcs[:0]
				for _, s := range inst.Srcs() {
					srcs = append(srcs, load(s))
				}
				out := pool.Get() // fully overwritten by Apply
				if err := isa.Apply(inst.Op, out, srcs, int(inst.Elem), inst.UseImm, inst.Imm); err != nil {
					return nil, nil, fmt.Errorf("ssd: ideal inst %d: %w", i, err)
				}
				if old, ok := mem[inst.Dst]; ok {
					pool.Put(old) // replaced value is dead (reads above are done)
				}
				mem[inst.Dst] = out
			}
			ready[inst.Dst] = done
		}
		rec.add(Decision{InstID: inst.ID, Op: inst.Op, Resource: choice, Issue: start, Done: done})
		if done > elapsed {
			elapsed = done
		}
	}
	return rec.finish(d, &Result{
		Policy:        "Ideal",
		Elapsed:       elapsed,
		ComputeEnergy: computeEnergy,
	}, nil), mem, nil
}

// idealProfile is the operand profile Ideal assumes for in-flash
// execution: perfectly placed operands, co-located for one multi-wordline
// sense.
func idealProfile(inst *isa.Inst) nand.OperandProfile {
	return nand.OperandProfile{Senses: int(inst.NSrc), MWS: true}
}

// idealChoice returns the resource with the lowest pure computation
// latency for inst, and that latency.
func (d *Device) idealChoice(inst *isa.Inst) (isa.Resource, sim.Time) {
	cfg := &d.Cfg.SSD
	best := isa.ResISP
	bestLat, _ := ispCost(cfg, inst)
	if runsOn(inst, isa.ResPuD) {
		if l, _ := pudCost(cfg, inst); l < bestLat {
			best, bestLat = isa.ResPuD, l
		}
	}
	if runsOn(inst, isa.ResIFP) {
		if l, _ := ifpCost(cfg, inst, idealProfile(inst)); l < bestLat {
			best, bestLat = isa.ResIFP, l
		}
	}
	return best, bestLat
}

// idealComputeEnergy charges the pure computation energy of inst on r,
// matching the substrates' own accounting but without any movement.
func (d *Device) idealComputeEnergy(inst *isa.Inst, r isa.Resource) float64 {
	cfg := &d.Cfg.SSD
	switch r {
	case isa.ResISP:
		_, cycles := ispCost(cfg, inst)
		return float64(cycles) * cfg.ECorePerCycle
	case isa.ResPuD:
		_, rounds := pudCost(cfg, inst)
		return float64(rounds) * cfg.EBbop
	}
	_, rounds := ifpCost(cfg, inst, idealProfile(inst))
	kb := float64(cfg.PageSize) / 1024
	sense := float64(inst.NSrc) * cfg.EReadPerChannel
	switch {
	case inst.Op.IFP() != isa.IFPBitwise:
		return sense + float64(rounds)*cfg.ELatchPerKB*kb
	case inst.Op == isa.OpXor: // latch-based: every operand is sensed
		return sense + cfg.EXorPerKB*kb
	default: // one multi-wordline sense
		return cfg.EReadPerChannel + cfg.EAndOrPerKB*kb
	}
}
