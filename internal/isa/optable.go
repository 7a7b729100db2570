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
	pud                         // PuD-SSD executes it (16 published bbops + 4 in-array movement forms)
)

// noKernel marks an operation the evaluator computes without a vecmath
// elementwise kernel.
const noKernel = vecmath.Op(0xFF)

// opInfo is one row of the operation table: everything the simulator knows
// about an IR operation apart from its per-substrate latency model
// (cores.cyclesPerBeat, dram.Rounds, nand.Estimate*, host.beatCost).
type opInfo struct {
	name   string
	class  Class
	band   LatencyBand
	arity  int        // vector sources; shift counts and rotations are immediates, not sources
	flags  opFlag     // immSrc | commutes | pud
	ifp    IFPKind    // in-flash mechanism, IFPNone when IFP lacks the operation
	kernel vecmath.Op // elementwise kernel: binary at arity 2, unary at arity 1
}

// ops is the operation table, the one description of every IR operation.
// ISP executes all of them. A new operation is one row here plus its
// entries in the latency models; nothing else switches on Op.
var ops = [numOps]opInfo{
	OpAnd:       {"and", ClassBitwise, LatencyLow, 2, immSrc | commutes | pud, IFPBitwise, vecmath.OpAnd},
	OpOr:        {"or", ClassBitwise, LatencyLow, 2, immSrc | commutes | pud, IFPBitwise, vecmath.OpOr},
	OpXor:       {"xor", ClassBitwise, LatencyLow, 2, immSrc | commutes | pud, IFPBitwise, vecmath.OpXor},
	OpNot:       {"not", ClassBitwise, LatencyLow, 1, pud, IFPBitwise, vecmath.OpNot},
	OpNand:      {"nand", ClassBitwise, LatencyLow, 2, immSrc | commutes | pud, IFPBitwise, vecmath.OpNand},
	OpNor:       {"nor", ClassBitwise, LatencyLow, 2, immSrc | commutes | pud, IFPBitwise, vecmath.OpNor},
	OpAdd:       {"add", ClassArithmetic, LatencyMedium, 2, immSrc | commutes | pud, IFPArith, vecmath.OpAdd},
	OpSub:       {"sub", ClassArithmetic, LatencyMedium, 2, immSrc | pud, IFPNone, vecmath.OpSub},
	OpMul:       {"mul", ClassArithmetic, LatencyHigh, 2, immSrc | commutes | pud, IFPArith, vecmath.OpMul},
	OpDiv:       {"div", ClassArithmetic, LatencyHigh, 2, immSrc, IFPNone, vecmath.OpDiv},
	OpShl:       {"shl", ClassBitwise, LatencyLow, 1, pud, IFPShift, vecmath.OpShl},
	OpShr:       {"shr", ClassBitwise, LatencyLow, 1, pud, IFPShift, vecmath.OpShr},
	OpLT:        {"lt", ClassPredication, LatencyMedium, 2, immSrc | pud, IFPNone, vecmath.OpLT},
	OpGT:        {"gt", ClassPredication, LatencyMedium, 2, immSrc | pud, IFPNone, vecmath.OpGT},
	OpEQ:        {"eq", ClassPredication, LatencyMedium, 2, immSrc | commutes | pud, IFPNone, vecmath.OpEQ},
	OpMin:       {"min", ClassPredication, LatencyMedium, 2, immSrc | commutes | pud, IFPNone, vecmath.OpMin},
	OpMax:       {"max", ClassPredication, LatencyMedium, 2, immSrc | commutes | pud, IFPNone, vecmath.OpMax},
	OpSelect:    {"select", ClassPredication, LatencyMedium, 3, immSrc | pud, IFPNone, noKernel},
	OpCopy:      {"copy", ClassMove, LatencyLow, 1, pud, IFPNone, noKernel},
	OpBroadcast: {"broadcast", ClassMove, LatencyLow, 0, pud, IFPNone, noKernel},
	OpReduceAdd: {"reduce_add", ClassReduction, LatencyHigh, 1, 0, IFPNone, noKernel},
	OpShuffle:   {"shuffle", ClassMove, LatencyMedium, 1, pud, IFPNone, noKernel},
	OpScalar:    {"scalar", ClassControl, LatencyMedium, 0, 0, IFPNone, noKernel},
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
