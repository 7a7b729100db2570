package ssd

import (
	"fmt"

	"conduit/internal/arena"
	"conduit/internal/cores"
	"conduit/internal/dram"
	"conduit/internal/ftl"
	"conduit/internal/isa"
	"conduit/internal/nand"
	"conduit/internal/sim"
	"conduit/internal/stats"
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
		mem = make(map[isa.PageID][]byte, d.prog.Pages)
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

	ready := make([]sim.Time, d.prog.Pages)
	var srcs [][]byte // reused operand-pointer scratch
	lat := stats.NewReservoir()
	lat.Grow(len(d.prog.Insts))
	decisions := make([]Decision, 0, len(d.prog.Insts))
	var elapsed sim.Time
	var computeEnergy float64

	for i := range d.prog.Insts {
		inst := &d.prog.Insts[i]
		var start sim.Time
		for _, s := range inst.Srcs {
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
				for _, s := range inst.Srcs {
					srcs = append(srcs, load(s))
				}
				out := pool.Get() // fully overwritten by Apply
				if err := cores.Apply(inst.Op, out, srcs, inst.Elem, inst.UseImm, inst.Imm); err != nil {
					return nil, nil, fmt.Errorf("ssd: ideal inst %d: %w", i, err)
				}
				if old, ok := mem[inst.Dst]; ok {
					pool.Put(old) // replaced value is dead (reads above are done)
				}
				mem[inst.Dst] = out
			}
			ready[inst.Dst] = done
		}
		decisions = append(decisions, Decision{
			InstID: inst.ID, Op: inst.Op, Resource: choice, Issue: start, Done: done,
		})
		lat.Add(comp)
		if done > elapsed {
			elapsed = done
		}
	}
	res := &Result{
		Policy:        "Ideal",
		Elapsed:       elapsed,
		InstLatencies: lat,
		Decisions:     decisions,
		ComputeEnergy: computeEnergy,
		Counters:      stats.NewCounters(),
	}
	return res, mem, nil
}

// idealChoice returns the resource with the lowest pure computation
// latency for inst, and that latency.
func (d *Device) idealChoice(inst *isa.Inst) (isa.Resource, sim.Time) {
	cfg := &d.Cfg.SSD
	if inst.Op == isa.OpScalar {
		return isa.ResISP, cfg.CoreCycles(inst.ScalarCycles)
	}
	if inst.Meta.Unvectorized {
		return isa.ResISP, cfg.CoreCycles(cores.UnvectorizedCycles(inst.Lanes))
	}
	best := isa.ResISP
	bestLat := cores.ExecLatency(cfg, inst.Op, inst.Lanes, inst.Elem)
	if op, ok := pudOp(inst.Op); ok && isa.Supports(isa.ResPuD, inst.Op) {
		if l := dram.ExecLatency(cfg, op, inst.Elem); l < bestLat {
			best, bestLat = isa.ResPuD, l
		}
	}
	if ifpSupported(inst) {
		// Ideal assumes perfectly placed operands: co-located for MWS.
		prof := nand.OperandProfile{Senses: len(inst.Srcs), MWS: true}
		var l sim.Time
		if bop, ok := ifpBitOp(inst.Op); ok {
			l = nand.EstimateBitwise(cfg, bop, prof)
		} else if aop, ok := ifpArithOp(inst.Op); ok {
			l, _, _ = nand.EstimateArith(cfg, aop, inst.Elem, prof)
		}
		if l > 0 && l < bestLat {
			best, bestLat = isa.ResIFP, l
		}
	}
	return best, bestLat
}

// idealComputeEnergy charges the pure computation energy of inst on r,
// matching the substrates' own accounting but without any movement.
func (d *Device) idealComputeEnergy(inst *isa.Inst, r isa.Resource) float64 {
	cfg := &d.Cfg.SSD
	kb := float64(cfg.PageSize) / 1024
	switch r {
	case isa.ResISP:
		if inst.Op == isa.OpScalar {
			return float64(inst.ScalarCycles) * cfg.ECorePerCycle
		}
		if inst.Meta.Unvectorized {
			return float64(cores.UnvectorizedCycles(inst.Lanes)) * cfg.ECorePerCycle
		}
		return float64(cores.Cycles(cfg, inst.Op, inst.Lanes, inst.Elem)) * cfg.ECorePerCycle
	case isa.ResPuD:
		op, _ := pudOp(inst.Op)
		return float64(dram.Rounds(op, inst.Elem)) * cfg.EBbop
	case isa.ResIFP:
		if bop, ok := ifpBitOp(inst.Op); ok {
			if bop == nand.BitXor || bop == nand.BitXnor {
				return float64(len(inst.Srcs))*cfg.EReadPerChannel + cfg.EXorPerKB*kb
			}
			return cfg.EReadPerChannel + cfg.EAndOrPerKB*kb
		}
		aop, _ := ifpArithOp(inst.Op)
		_, rounds, _ := nand.EstimateArith(cfg, aop, inst.Elem,
			nand.OperandProfile{Senses: len(inst.Srcs), MWS: true})
		return float64(len(inst.Srcs))*cfg.EReadPerChannel + float64(rounds)*cfg.ELatchPerKB*kb
	}
	return 0
}
