package isa

import (
	"fmt"

	"conduit/internal/vecmath"
)

// IFPKind names the in-flash mechanism that executes an operation
// (§4.3.2): none, Flash-Cosmos multi-wordline sensing, a shift through the
// page-buffer latches, or Ares-Flash shift-and-add.
type IFPKind uint8

// In-flash mechanisms.
const (
	IFPNone IFPKind = iota
	IFPBitwise
	IFPShift
	IFPArith
)

// ifpPrefix is the native-mnemonic prefix of each in-flash mechanism.
var ifpPrefix = [...]string{IFPBitwise: "mws_", IFPShift: "latch_shift_", IFPArith: "shift_and_add_"}

// opFlag is a yes/no column of the operation table.
type opFlag uint8

const (
	immSrc   opFlag = 1 << iota // UseImm replaces the last vector source with a broadcast immediate
	commutes                    // operand order is irrelevant
)

// noKernel marks an operation the evaluator computes without a vecmath
// elementwise kernel.
const noKernel = vecmath.Op(0xFF)

// bbops is the PuD-SSD cost column: the bbop rounds (row-activation
// triples) an operation takes on b-bit lanes are sq·b² + lin·b + one. The
// constants follow the published SIMDRAM/MIMDRAM cost structure: constant
// for bulk bitwise operations and in-array movement, linear in bit width
// for addition and comparison, quadratic for multiplication. All zero
// means PuD-SSD lacks the operation; the others are its 16 published
// compute operations plus 4 in-array movement forms (§4.3.2).
type bbops struct{ sq, lin, one uint8 }

// opInfo is one row of the operation table: everything the simulator knows
// about an IR operation. Only the in-flash primitives (nand) are code of
// their own; every other substrate's cost is a column here.
type opInfo struct {
	name   string
	class  Class
	band   LatencyBand
	arity  int        // vector sources; shift counts and rotations are immediates, not sources
	flags  opFlag     // immSrc | commutes
	ifp    IFPKind    // in-flash mechanism, IFPNone when IFP lacks the operation
	kernel vecmath.Op // elementwise kernel: binary at arity 2, unary at arity 1
	beats  uint8      // MVE cycles per 32-byte beat on the ISP cores; the host models scale by it too
	pud    bbops      // PuD-SSD bbop rounds by lane width, zero when PuD-SSD lacks the operation
}

// ops is the operation table, the one description of every IR operation.
// ISP executes all of them. A new operation is one row here, plus a nand
// primitive if IFP runs it; nothing else switches on Op. The beat costs
// are calibrated to embedded ARM instruction timings: single-cycle logic,
// add and compare, dual-issue-blocking multiply, long-latency divide.
var ops = [numOps]opInfo{
	OpAnd:       {"and", ClassBitwise, LatencyLow, 2, immSrc | commutes, IFPBitwise, vecmath.OpAnd, 1, bbops{0, 0, 4}}, // one TRA plus operand/result copies
	OpOr:        {"or", ClassBitwise, LatencyLow, 2, immSrc | commutes, IFPBitwise, vecmath.OpOr, 1, bbops{0, 0, 4}},
	OpXor:       {"xor", ClassBitwise, LatencyLow, 2, immSrc | commutes, IFPBitwise, vecmath.OpXor, 1, bbops{0, 0, 6}}, // two TRAs plus copies
	OpNot:       {"not", ClassBitwise, LatencyLow, 1, 0, IFPBitwise, vecmath.OpNot, 1, bbops{0, 0, 2}},                 // row inversion
	OpNand:      {"nand", ClassBitwise, LatencyLow, 2, immSrc | commutes, IFPBitwise, vecmath.OpNand, 1, bbops{0, 0, 4}},
	OpNor:       {"nor", ClassBitwise, LatencyLow, 2, immSrc | commutes, IFPBitwise, vecmath.OpNor, 1, bbops{0, 0, 4}},
	OpAdd:       {"add", ClassArithmetic, LatencyMedium, 2, immSrc | commutes, IFPArith, vecmath.OpAdd, 1, bbops{0, 4, 1}}, // bit-serial full adder chain
	OpSub:       {"sub", ClassArithmetic, LatencyMedium, 2, immSrc, IFPNone, vecmath.OpSub, 1, bbops{0, 4, 1}},
	OpMul:       {"mul", ClassArithmetic, LatencyHigh, 2, immSrc | commutes, IFPArith, vecmath.OpMul, 2, bbops{2, 3, 0}}, // shift-and-add partial products
	OpDiv:       {"div", ClassArithmetic, LatencyHigh, 2, immSrc, IFPNone, vecmath.OpDiv, 12, bbops{}},
	OpShl:       {"shl", ClassBitwise, LatencyLow, 1, 0, IFPShift, vecmath.OpShl, 1, bbops{0, 0, 2}}, // bit-serial layout: a row rename plus a clearing copy (Proteus)
	OpShr:       {"shr", ClassBitwise, LatencyLow, 1, 0, IFPShift, vecmath.OpShr, 1, bbops{0, 0, 2}},
	OpLT:        {"lt", ClassPredication, LatencyMedium, 2, immSrc, IFPNone, vecmath.OpLT, 1, bbops{0, 2, 4}}, // bit-serial compare
	OpGT:        {"gt", ClassPredication, LatencyMedium, 2, immSrc, IFPNone, vecmath.OpGT, 1, bbops{0, 2, 4}},
	OpEQ:        {"eq", ClassPredication, LatencyMedium, 2, immSrc | commutes, IFPNone, vecmath.OpEQ, 1, bbops{0, 2, 4}},
	OpMin:       {"min", ClassPredication, LatencyMedium, 2, immSrc | commutes, IFPNone, vecmath.OpMin, 1, bbops{0, 3, 8}}, // compare then select
	OpMax:       {"max", ClassPredication, LatencyMedium, 2, immSrc | commutes, IFPNone, vecmath.OpMax, 1, bbops{0, 3, 8}},
	OpSelect:    {"select", ClassPredication, LatencyMedium, 3, immSrc, IFPNone, noKernel, 2, bbops{0, 0, 10}}, // mask AND/ANDN/OR composition
	OpCopy:      {"copy", ClassMove, LatencyLow, 1, 0, IFPNone, noKernel, 1, bbops{0, 0, 2}},                   // RowClone
	OpBroadcast: {"broadcast", ClassMove, LatencyLow, 0, 0, IFPNone, noKernel, 1, bbops{0, 0, 2}},
	OpReduceAdd: {"reduce_add", ClassReduction, LatencyHigh, 1, 0, IFPNone, noKernel, 1, bbops{}},  // pairwise-accumulating VADDV
	OpShuffle:   {"shuffle", ClassMove, LatencyMedium, 1, 0, IFPNone, noKernel, 2, bbops{0, 0, 4}}, // VLDR with a gather pattern; LISA-style shifted inter-subarray copies
	OpScalar:    {"scalar", ClassControl, LatencyMedium, 0, 0, IFPNone, noKernel, 0, bbops{}},      // costed by its own cycle count
}

// String names the operation.
func (o Op) String() string {
	if o < numOps {
		return ops[o].name
	}
	return fmt.Sprintf("isa.Op(%d)", uint8(o))
}

// Class reports the operation's class.
func (o Op) Class() Class { return ops[o].class }

// Band reports the operation's latency band.
func (o Op) Band() LatencyBand { return ops[o].band }

// Arity reports how many vector sources the operation consumes.
func (o Op) Arity() int { return ops[o].arity }

// ImmReplacesSrc reports whether UseImm substitutes the operation's last
// vector source with a broadcast immediate. Only multi-source operations
// take one: for shifts and shuffles the immediate is an intrinsic parameter
// (shift amount, rotation), and a single-source operation on a constant is
// a broadcast of the folded constant.
func (o Op) ImmReplacesSrc() bool { return ops[o].flags&immSrc != 0 }

// Sources reports how many vector sources a well-formed instruction of
// this operation carries: Arity, less the one a replacing immediate stands
// in for. Program.Validate, the evaluator and every substrate check
// operand counts against it.
func (o Op) Sources(useImm bool) int {
	if useImm && o.ImmReplacesSrc() {
		return ops[o].arity - 1
	}
	return ops[o].arity
}

// Commutative reports whether the order of the operation's operands is
// irrelevant.
func (o Op) Commutative() bool { return ops[o].flags&commutes != 0 }

// IFP reports the in-flash mechanism that executes the operation, IFPNone
// when IFP does not support it.
func (o Op) IFP() IFPKind { return ops[o].ifp }

// Kernel reports the vecmath elementwise kernel behind the operation, if
// it has one.
func (o Op) Kernel() (vecmath.Op, bool) { return ops[o].kernel, ops[o].kernel != noKernel }

// BeatCycles reports the operation's MVE cycles per 32-byte beat on the
// ISP cores: the cost cores.Cycles charges per beat and the weight the
// host models give it. OpScalar has none; a control region costs its own
// cycle count.
func (o Op) BeatCycles() int64 { return int64(ops[o].beats) }

// PuDRounds reports the bbop rounds the operation takes in PuD-SSD on
// bits-bit lanes, 0 when PuD-SSD lacks it.
func (o Op) PuDRounds(bits int) int {
	b := ops[o].pud
	return int(b.sq)*bits*bits + int(b.lin)*bits + int(b.one)
}

// Apply computes the functional result of a vector operation over byte
// pages, with no timing or energy effects: the one evaluator every
// execution substrate (ISP cores, PuD-SSD, the host models, the Ideal
// machine) and the compiler's reference interpreter share, so they agree
// bit for bit. srcs must hold op.Sources(useImm) buffers of len(out) bytes;
// out may alias a source exactly and is fully overwritten.
//
// OpSelect's sources are (mask, a, b): each result lane is a where the mask
// lane is non-zero, else b. OpShuffle rotates lanes left by imm.
// OpReduceAdd broadcasts the modular lane sum to every output lane.
func Apply(op Op, out []byte, srcs [][]byte, elem int, useImm bool, imm uint64) error {
	vecmath.CheckElem(elem)
	if op >= numOps || op == OpScalar {
		return fmt.Errorf("isa: %v computes no page", op)
	}
	if want := op.Sources(useImm); len(srcs) != want {
		return fmt.Errorf("isa: %v needs %d vector sources, got %d", op, want, len(srcs))
	}
	k, kernel := op.Kernel()
	switch {
	case kernel && useImm && op.ImmReplacesSrc():
		vecmath.ApplyImm(k, out, srcs[0], elem, imm)
	case kernel && len(srcs) == 2:
		vecmath.Apply(k, out, srcs[0], srcs[1], elem)
	case kernel: // NOT ignores imm; a shift takes it as the raw count
		vecmath.ApplyUnary(k, out, srcs[0], elem, imm)
	case op == OpSelect && useImm:
		vecmath.SelectImm(out, srcs[0], srcs[1], elem, imm)
	case op == OpSelect:
		vecmath.Select(out, srcs[0], srcs[1], srcs[2], elem)
	case op == OpCopy:
		copy(out, srcs[0])
	case op == OpBroadcast:
		vecmath.Broadcast(out, elem, imm)
	case op == OpReduceAdd:
		vecmath.Broadcast(out, elem, vecmath.ReduceAdd(srcs[0], elem))
	case op == OpShuffle:
		vecmath.Shuffle(out, srcs[0], elem, int(imm))
	default:
		return fmt.Errorf("isa: %v has neither a kernel nor an evaluator case", op)
	}
	return nil
}
