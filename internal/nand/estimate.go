package nand

import (
	"fmt"
	"slices"

	"conduit/internal/config"
	"conduit/internal/isa"
	"conduit/internal/sim"
)

// OperandProfile classifies the inputs of an in-flash operation for timing
// purposes: how many flash pages must be sensed (and whether one
// multi-wordline sense covers them all), how many operands arrive through
// latch loads over the channel, and how many are already latched.
type OperandProfile struct {
	Senses  int  // flash pages to sense
	MWS     bool // a single multi-wordline sense covers every flash operand
	Loads   int  // operands DMA-loaded into spare latches
	Latched int  // operands already in the plane buffer
}

// SenseTime is the total sensing time of the profile: one tR under MWS,
// otherwise one per sensed page.
func (p OperandProfile) SenseTime(cfg *config.SSD) sim.Time {
	switch {
	case p.Senses == 0:
		return 0
	case p.MWS:
		return cfg.TRead
	default:
		return sim.Time(p.Senses) * cfg.TRead
	}
}

// LoadTime is the latch-load time of the profile: one page-buffer DMA per
// loaded operand (the channel transfer itself is booked on the channel bus
// by the caller that fetched the data).
func (p OperandProfile) LoadTime(cfg *config.SSD) sim.Time {
	return sim.Time(p.Loads) * cfg.TDMA
}

// profileOperands validates placement and classifies operands.
//
// Placement rules (§4.4 and the Flash-Cosmos/ParaBit substrates):
//   - all flash-resident operands must share one plane (hard requirement:
//     sensing happens in that plane's page buffer);
//   - AND/NAND of up to MaxAndOperands pages within one block, or OR/NOR
//     across up to MaxOrOperands blocks, complete in a single
//     multi-wordline sense; otherwise each flash operand is sensed
//     serially into the latches (ParaBit-style);
//   - at most two latch slots exist beyond the sensing latch, bounding
//     buffer/loaded operands.
func profileOperands(geo Geometry, op BitOp, ops []Operand) (OperandProfile, error) {
	var p OperandProfile
	flashAddrs := make([]Addr, 0, MaxAndOperands) // on the stack; errors format a copy
	for _, o := range ops {
		switch {
		case o.Latched || o.Data != nil:
			p.Loads++
		case o.InBuffer:
			p.Latched++
		default:
			flashAddrs = append(flashAddrs, o.Addr)
		}
	}
	if p.Loads+p.Latched > 2 {
		return p, fmt.Errorf("nand: %d latch operands exceed the two spare latches", p.Loads+p.Latched)
	}
	p.Senses = len(flashAddrs)
	if len(flashAddrs) > 1 {
		if !geo.SamePlane(flashAddrs) {
			return p, fmt.Errorf("nand: flash operands span planes: %v", slices.Clone(flashAddrs))
		}
		switch op {
		case BitAnd, BitNand:
			if geo.SameBlock(flashAddrs) && len(flashAddrs) <= MaxAndOperands {
				p.MWS = true
			}
		case BitOr, BitNor:
			if len(flashAddrs) <= MaxOrOperands {
				p.MWS = true
			}
		}
		if !p.MWS && len(flashAddrs) > 3 {
			return p, fmt.Errorf("nand: %d serially sensed operands exceed latch capacity", len(flashAddrs))
		}
	}
	return p, nil
}

// homeAddr picks the address that identifies the operation's plane: the
// first flash operand, else the first buffer operand's address.
func homeAddr(ops []Operand) Addr {
	for _, o := range ops {
		if !o.Latched && o.Data == nil && !o.InBuffer {
			return o.Addr
		}
	}
	for _, o := range ops {
		if o.InBuffer {
			return o.Addr
		}
	}
	return ops[0].Addr
}

// Estimate is the contention-free cost of IR operation op in flash with the
// given operand profile, through the primitive Exec would run: the IFP
// entry of the offloader's precomputed computation-latency table (§4.5).
// rounds and fcTransfers are as for EstimateArith (no latch rounds for a
// bitwise operation). It panics when IFP lacks op or the operation table
// names a mechanism that irBit/irArith has no primitive for.
func Estimate(cfg *config.SSD, op isa.Op, elem int, p OperandProfile) (dur sim.Time, rounds, fcTransfers int64) {
	switch op.IFP() {
	case isa.IFPBitwise:
		if bit := irBit[op]; bit != 0 {
			return EstimateBitwise(cfg, bit, p), 0, int64(p.Loads)
		}
	case isa.IFPShift, isa.IFPArith:
		if arith := irArith[op]; arith != 0 {
			return EstimateArith(cfg, arith, elem, p)
		}
	}
	panic(fmt.Sprintf("nand: no in-flash primitive for %v", op))
}

// EstimateBitwise is the contention-free latency of an in-flash bitwise
// operation with the given operand profile. It is the IFP entry of the
// offloader's precomputed computation-latency table (§4.5); the Array uses
// it internally so estimate and execution can never drift.
func EstimateBitwise(cfg *config.SSD, op BitOp, p OperandProfile) sim.Time {
	dur := p.SenseTime(cfg) + p.LoadTime(cfg)
	switch op {
	case BitXor, BitXnor:
		dur += cfg.TXor
	default:
		dur += cfg.TAndOr
	}
	return dur
}

// EstimateArith is the contention-free latency of latch-based in-flash
// arithmetic (Ares-Flash shift-and-add) on elem-byte lanes with the given
// operand profile. rounds is the latch-transfer count and fcTransfers the
// page-buffer<->flash-controller DMA count, both of which the Array also
// uses for energy accounting.
func EstimateArith(cfg *config.SSD, op ArithOp, elem int, p OperandProfile) (dur sim.Time, rounds, fcTransfers int64) {
	bits := elem * 8
	dur = p.SenseTime(cfg) + p.LoadTime(cfg)
	fcTransfers = int64(p.Loads)
	switch op {
	case ArithAdd, ArithSub:
		// Bit-serial carry chain: ~3 latch transfers per bit.
		rounds = int64(3 * bits)
		dur += sim.Time(rounds) * cfg.TLatchTransfer
	case ArithMul:
		// Per output bit: one AND (partial product), a bit-serial
		// accumulate, and one shift through the flash controller. The
		// controller round-trips are what make IFP multiplication
		// unattractive (§6.4).
		rounds = int64(bits) * int64(3*bits+1)
		fcTransfers += int64(bits)
		dur += sim.Time(bits) * (cfg.TAndOr + sim.Time(3*bits)*cfg.TLatchTransfer + cfg.TDMA)
	case ArithShl, ArithShr:
		// One round-trip through the flash controller.
		rounds = 1
		fcTransfers += 2
		dur += 2 * cfg.TDMA
	}
	return dur, rounds, fcTransfers
}
