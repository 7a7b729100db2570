package vecmath

import (
	"encoding/binary"
	"fmt"
)

// This file holds the specialized data-plane kernels: per-operation,
// per-element-width loops dispatched once per page through kernel tables
// keyed by (op, elem). The bitwise family processes 8 bytes per iteration
// through uint64 loads (bit-serial substrates get their throughput from
// exactly this word-parallel trick — the simulator's functional model
// should too); the arithmetic/compare/select family uses monomorphized
// uint8/uint16/uint32 loops with sign-aware variants, eliminating the
// closure call and byte-at-a-time element assembly of the generic path.
//
// The closure-based generic primitives in vecmath.go remain the reference
// semantics; reference.go exposes them through the same Op-dispatched
// surface so differential tests can prove the kernels byte-identical.
//
// Aliasing contract (same as the generic path): dst may be exactly a or
// exactly b; partially overlapping buffers are not supported. All kernels
// process floor(len(dst)/elem) complete elements and leave trailing bytes
// untouched, matching the generic primitives.

var le = binary.LittleEndian

// Op identifies an elementwise operation with a specialized kernel. The
// operation table in internal/isa names the kernel behind each IR
// operation (the one isa.Op -> Op mapping); nand maps its own hardware
// primitives.
type Op uint8

// Kernel operations.
const (
	OpAnd Op = iota
	OpOr
	OpXor
	OpNand
	OpNor
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpShl
	OpShr
	OpLT
	OpGT
	OpEQ
	OpMin
	OpMax
	OpNot
	numKernelOps
)

var kernelOpNames = [...]string{
	"and", "or", "xor", "nand", "nor", "add", "sub", "mul", "div",
	"shl", "shr", "lt", "gt", "eq", "min", "max", "not",
}

// String names the operation.
func (o Op) String() string {
	if int(o) < len(kernelOpNames) {
		return kernelOpNames[o]
	}
	return fmt.Sprintf("vecmath.Op(%d)", uint8(o))
}

// elemIndex maps a validated element size to its kernel-table column.
func elemIndex(elem int) int { return elem >> 1 } // 1→0, 2→1, 4→2

// Apply computes dst[i] = op(a[i], b[i]) elementwise with the specialized
// kernel for (op, elem). Semantics are identical to the generic reference
// (ApplyGeneric): lane values are masked to the element width, division
// by zero saturates to all-ones, comparisons are signed (except EQ) and
// produce all-ones/zero lanes, and shifts use the b lane value as the
// shift count (counts >= the lane width yield zero).
func Apply(op Op, dst, a, b []byte, elem int) {
	CheckElem(elem)
	k := binKernels[op][elemIndex(elem)]
	if k == nil {
		panic(fmt.Sprintf("vecmath: %v has no binary kernel", op))
	}
	m := len(dst) - len(dst)%elem
	k(dst[:m], a[:m], b[:m])
}

// ApplyImm computes dst[i] = op(a[i], imm) elementwise, broadcasting the
// immediate as a lane value (truncated to the element width). Shift
// operations do not take this path: their immediate is a raw shift count,
// not a lane — use ApplyUnary.
func ApplyImm(op Op, dst, a []byte, elem int, imm uint64) {
	CheckElem(elem)
	k := immKernels[op][elemIndex(elem)]
	if k == nil {
		panic(fmt.Sprintf("vecmath: %v has no immediate kernel", op))
	}
	m := len(dst) - len(dst)%elem
	k(dst[:m], a[:m], imm&Mask(elem))
}

// ApplyUnary computes single-source operations: OpNot (imm ignored) and
// OpShl/OpShr, whose imm is the raw, unmasked shift count (counts >= the
// lane width yield zero lanes, exactly like the generic x<<imm path).
func ApplyUnary(op Op, dst, a []byte, elem int, imm uint64) {
	CheckElem(elem)
	m := len(dst) - len(dst)%elem
	dst, a = dst[:m], a[:m]
	switch op {
	case OpNot:
		notWords(dst, a)
	case OpShl:
		shlImmKernels[elemIndex(elem)](dst, a, imm)
	case OpShr:
		shrImmKernels[elemIndex(elem)](dst, a, imm)
	default:
		panic(fmt.Sprintf("vecmath: %v has no unary kernel", op))
	}
}

// Select computes dst[i] = a[i] where mask[i] != 0, else b[i]. dst may
// alias any operand exactly.
func Select(dst, mask, a, b []byte, elem int) {
	CheckElem(elem)
	m := len(dst) - len(dst)%elem
	selectKernels[elemIndex(elem)](dst[:m], mask[:m], a[:m], b[:m])
}

// SelectImm computes dst[i] = a[i] where mask[i] != 0, else the broadcast
// immediate (truncated to the element width).
func SelectImm(dst, mask, a []byte, elem int, imm uint64) {
	CheckElem(elem)
	m := len(dst) - len(dst)%elem
	selectImmKernels[elemIndex(elem)](dst[:m], mask[:m], a[:m], imm&Mask(elem))
}

// Shuffle rotates lanes: dst[i] = a[(i+rot)%n] over n = len(dst)/elem
// lanes. rot follows the substrates' raw semantics (int(imm) % n computed
// by the caller is accepted as-is; this function reduces it again, so
// passing the raw int(imm) is also fine). When dst aliases a, the
// element-serial order of the generic path is preserved exactly.
func Shuffle(dst, a []byte, elem int, rot int) {
	CheckElem(elem)
	n := len(dst) / elem
	r := rot % n // same divide-by-zero panic as the generic path when n==0
	if r < 0 || (len(a) > 0 && len(dst) > 0 && &dst[0] == &a[0]) {
		// Negative rotations and in-place rotations reproduce the generic
		// element-serial behavior bit for bit (including its panics).
		ShuffleGeneric(dst, a, elem, rot)
		return
	}
	m := (n - r) * elem
	copy(dst[:m], a[r*elem:n*elem])
	copy(dst[m:n*elem], a[:r*elem])
}

// --- kernel tables ----------------------------------------------------------

var binKernels = [numKernelOps][3]func(dst, a, b []byte){
	OpAnd:  {andWords, andWords, andWords},
	OpOr:   {orWords, orWords, orWords},
	OpXor:  {xorWords, xorWords, xorWords},
	OpNand: {nandWords, nandWords, nandWords},
	OpNor:  {norWords, norWords, norWords},
	OpAdd:  {add8, add16, add32},
	OpSub:  {sub8, sub16, sub32},
	OpMul:  {mul8, mul16, mul32},
	OpDiv:  {div8, div16, div32},
	OpShl:  {shl8, shl16, shl32},
	OpShr:  {shr8, shr16, shr32},
	OpLT:   {lt8, lt16, lt32},
	OpGT:   {gt8, gt16, gt32},
	OpEQ:   {eq8, eq16, eq32},
	OpMin:  {min8, min16, min32},
	OpMax:  {max8, max16, max32},
}

var immKernels = [numKernelOps][3]func(dst, a []byte, imm uint64){
	OpAnd:  {andImm1, andImm2, andImm4},
	OpOr:   {orImm1, orImm2, orImm4},
	OpXor:  {xorImm1, xorImm2, xorImm4},
	OpNand: {nandImm1, nandImm2, nandImm4},
	OpNor:  {norImm1, norImm2, norImm4},
	OpAdd:  {addImm8, addImm16, addImm32},
	OpSub:  {subImm8, subImm16, subImm32},
	OpMul:  {mulImm8, mulImm16, mulImm32},
	OpDiv:  {divImm8, divImm16, divImm32},
	OpLT:   {ltImm8, ltImm16, ltImm32},
	OpGT:   {gtImm8, gtImm16, gtImm32},
	OpEQ:   {eqImm8, eqImm16, eqImm32},
	OpMin:  {minImm8, minImm16, minImm32},
	OpMax:  {maxImm8, maxImm16, maxImm32},
}

var shlImmKernels = [3]func(dst, a []byte, imm uint64){shlImm8, shlImm16, shlImm32}
var shrImmKernels = [3]func(dst, a []byte, imm uint64){shrImm8, shrImm16, shrImm32}
var selectKernels = [3]func(dst, mask, a, b []byte){select8, select16, select32}
var selectImmKernels = [3]func(dst, mask, a []byte, imm uint64){selectImm8, selectImm16, selectImm32}

// --- bitwise family: 8 bytes per iteration ----------------------------------
//
// Bitwise operations are element-width-independent on little-endian lane
// layouts, so one uint64 kernel serves all three widths (the dispatchers
// trim the tail to a whole number of elements first).

func andWords(dst, a, b []byte) {
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		le.PutUint64(dst[i:], le.Uint64(a[i:])&le.Uint64(b[i:]))
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] & b[i]
	}
}

func orWords(dst, a, b []byte) {
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		le.PutUint64(dst[i:], le.Uint64(a[i:])|le.Uint64(b[i:]))
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] | b[i]
	}
}

func xorWords(dst, a, b []byte) {
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		le.PutUint64(dst[i:], le.Uint64(a[i:])^le.Uint64(b[i:]))
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] ^ b[i]
	}
}

func nandWords(dst, a, b []byte) {
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		le.PutUint64(dst[i:], ^(le.Uint64(a[i:]) & le.Uint64(b[i:])))
	}
	for ; i < len(dst); i++ {
		dst[i] = ^(a[i] & b[i])
	}
}

func norWords(dst, a, b []byte) {
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		le.PutUint64(dst[i:], ^(le.Uint64(a[i:]) | le.Uint64(b[i:])))
	}
	for ; i < len(dst); i++ {
		dst[i] = ^(a[i] | b[i])
	}
}

func notWords(dst, a []byte) {
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		le.PutUint64(dst[i:], ^le.Uint64(a[i:]))
	}
	for ; i < len(dst); i++ {
		dst[i] = ^a[i]
	}
}

// repN replicates a masked lane immediate across a uint64 pattern word.

func rep1(imm uint64) uint64 { imm |= imm << 8; imm |= imm << 16; return imm | imm<<32 }
func rep2(imm uint64) uint64 { imm |= imm << 16; return imm | imm<<32 }
func rep4(imm uint64) uint64 { return imm | imm<<32 }

func andPat(dst, a []byte, w uint64) {
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		le.PutUint64(dst[i:], le.Uint64(a[i:])&w)
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] & byte(w>>(8*(i&7)))
	}
}

func orPat(dst, a []byte, w uint64) {
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		le.PutUint64(dst[i:], le.Uint64(a[i:])|w)
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] | byte(w>>(8*(i&7)))
	}
}

func xorPat(dst, a []byte, w uint64) {
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		le.PutUint64(dst[i:], le.Uint64(a[i:])^w)
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] ^ byte(w>>(8*(i&7)))
	}
}

func nandPat(dst, a []byte, w uint64) {
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		le.PutUint64(dst[i:], ^(le.Uint64(a[i:]) & w))
	}
	for ; i < len(dst); i++ {
		dst[i] = ^(a[i] & byte(w>>(8*(i&7))))
	}
}

func norPat(dst, a []byte, w uint64) {
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		le.PutUint64(dst[i:], ^(le.Uint64(a[i:]) | w))
	}
	for ; i < len(dst); i++ {
		dst[i] = ^(a[i] | byte(w>>(8*(i&7))))
	}
}

func andImm1(dst, a []byte, imm uint64)  { andPat(dst, a, rep1(imm)) }
func andImm2(dst, a []byte, imm uint64)  { andPat(dst, a, rep2(imm)) }
func andImm4(dst, a []byte, imm uint64)  { andPat(dst, a, rep4(imm)) }
func orImm1(dst, a []byte, imm uint64)   { orPat(dst, a, rep1(imm)) }
func orImm2(dst, a []byte, imm uint64)   { orPat(dst, a, rep2(imm)) }
func orImm4(dst, a []byte, imm uint64)   { orPat(dst, a, rep4(imm)) }
func xorImm1(dst, a []byte, imm uint64)  { xorPat(dst, a, rep1(imm)) }
func xorImm2(dst, a []byte, imm uint64)  { xorPat(dst, a, rep2(imm)) }
func xorImm4(dst, a []byte, imm uint64)  { xorPat(dst, a, rep4(imm)) }
func nandImm1(dst, a []byte, imm uint64) { nandPat(dst, a, rep1(imm)) }
func nandImm2(dst, a []byte, imm uint64) { nandPat(dst, a, rep2(imm)) }
func nandImm4(dst, a []byte, imm uint64) { nandPat(dst, a, rep4(imm)) }
func norImm1(dst, a []byte, imm uint64)  { norPat(dst, a, rep1(imm)) }
func norImm2(dst, a []byte, imm uint64)  { norPat(dst, a, rep2(imm)) }
func norImm4(dst, a []byte, imm uint64)  { norPat(dst, a, rep4(imm)) }

// --- arithmetic / compare family: monomorphized typed loops -----------------

func add8(dst, a, b []byte) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

func add16(dst, a, b []byte) {
	for i := 0; i+2 <= len(dst); i += 2 {
		le.PutUint16(dst[i:], le.Uint16(a[i:])+le.Uint16(b[i:]))
	}
}

func add32(dst, a, b []byte) {
	for i := 0; i+4 <= len(dst); i += 4 {
		le.PutUint32(dst[i:], le.Uint32(a[i:])+le.Uint32(b[i:]))
	}
}

func sub8(dst, a, b []byte) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

func sub16(dst, a, b []byte) {
	for i := 0; i+2 <= len(dst); i += 2 {
		le.PutUint16(dst[i:], le.Uint16(a[i:])-le.Uint16(b[i:]))
	}
}

func sub32(dst, a, b []byte) {
	for i := 0; i+4 <= len(dst); i += 4 {
		le.PutUint32(dst[i:], le.Uint32(a[i:])-le.Uint32(b[i:]))
	}
}

func mul8(dst, a, b []byte) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

func mul16(dst, a, b []byte) {
	for i := 0; i+2 <= len(dst); i += 2 {
		le.PutUint16(dst[i:], le.Uint16(a[i:])*le.Uint16(b[i:]))
	}
}

func mul32(dst, a, b []byte) {
	for i := 0; i+4 <= len(dst); i += 4 {
		le.PutUint32(dst[i:], le.Uint32(a[i:])*le.Uint32(b[i:]))
	}
}

// Division by zero saturates to all-ones, matching the generic reference.

func div8(dst, a, b []byte) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		if b[i] == 0 {
			dst[i] = 0xFF
		} else {
			dst[i] = a[i] / b[i]
		}
	}
}

func div16(dst, a, b []byte) {
	for i := 0; i+2 <= len(dst); i += 2 {
		y := le.Uint16(b[i:])
		if y == 0 {
			le.PutUint16(dst[i:], 0xFFFF)
		} else {
			le.PutUint16(dst[i:], le.Uint16(a[i:])/y)
		}
	}
}

func div32(dst, a, b []byte) {
	for i := 0; i+4 <= len(dst); i += 4 {
		y := le.Uint32(b[i:])
		if y == 0 {
			le.PutUint32(dst[i:], 0xFFFFFFFF)
		} else {
			le.PutUint32(dst[i:], le.Uint32(a[i:])/y)
		}
	}
}

// Binary shifts take the shift count from the b lane; counts >= the lane
// width produce zero, exactly like the masked-uint64 generic path.

func shl8(dst, a, b []byte) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] << b[i]
	}
}

func shl16(dst, a, b []byte) {
	for i := 0; i+2 <= len(dst); i += 2 {
		le.PutUint16(dst[i:], le.Uint16(a[i:])<<le.Uint16(b[i:]))
	}
}

func shl32(dst, a, b []byte) {
	for i := 0; i+4 <= len(dst); i += 4 {
		le.PutUint32(dst[i:], le.Uint32(a[i:])<<le.Uint32(b[i:]))
	}
}

func shr8(dst, a, b []byte) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] >> b[i]
	}
}

func shr16(dst, a, b []byte) {
	for i := 0; i+2 <= len(dst); i += 2 {
		le.PutUint16(dst[i:], le.Uint16(a[i:])>>le.Uint16(b[i:]))
	}
}

func shr32(dst, a, b []byte) {
	for i := 0; i+4 <= len(dst); i += 4 {
		le.PutUint32(dst[i:], le.Uint32(a[i:])>>le.Uint32(b[i:]))
	}
}

// Relational operations are signed (except EQ) and emit canonical
// all-ones/zero predicate lanes.

func lt8(dst, a, b []byte) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		if int8(a[i]) < int8(b[i]) {
			dst[i] = 0xFF
		} else {
			dst[i] = 0
		}
	}
}

func lt16(dst, a, b []byte) {
	for i := 0; i+2 <= len(dst); i += 2 {
		if int16(le.Uint16(a[i:])) < int16(le.Uint16(b[i:])) {
			le.PutUint16(dst[i:], 0xFFFF)
		} else {
			le.PutUint16(dst[i:], 0)
		}
	}
}

func lt32(dst, a, b []byte) {
	for i := 0; i+4 <= len(dst); i += 4 {
		if int32(le.Uint32(a[i:])) < int32(le.Uint32(b[i:])) {
			le.PutUint32(dst[i:], 0xFFFFFFFF)
		} else {
			le.PutUint32(dst[i:], 0)
		}
	}
}

func gt8(dst, a, b []byte) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		if int8(a[i]) > int8(b[i]) {
			dst[i] = 0xFF
		} else {
			dst[i] = 0
		}
	}
}

func gt16(dst, a, b []byte) {
	for i := 0; i+2 <= len(dst); i += 2 {
		if int16(le.Uint16(a[i:])) > int16(le.Uint16(b[i:])) {
			le.PutUint16(dst[i:], 0xFFFF)
		} else {
			le.PutUint16(dst[i:], 0)
		}
	}
}

func gt32(dst, a, b []byte) {
	for i := 0; i+4 <= len(dst); i += 4 {
		if int32(le.Uint32(a[i:])) > int32(le.Uint32(b[i:])) {
			le.PutUint32(dst[i:], 0xFFFFFFFF)
		} else {
			le.PutUint32(dst[i:], 0)
		}
	}
}

func eq8(dst, a, b []byte) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		if a[i] == b[i] {
			dst[i] = 0xFF
		} else {
			dst[i] = 0
		}
	}
}

func eq16(dst, a, b []byte) {
	for i := 0; i+2 <= len(dst); i += 2 {
		if le.Uint16(a[i:]) == le.Uint16(b[i:]) {
			le.PutUint16(dst[i:], 0xFFFF)
		} else {
			le.PutUint16(dst[i:], 0)
		}
	}
}

func eq32(dst, a, b []byte) {
	for i := 0; i+4 <= len(dst); i += 4 {
		if le.Uint32(a[i:]) == le.Uint32(b[i:]) {
			le.PutUint32(dst[i:], 0xFFFFFFFF)
		} else {
			le.PutUint32(dst[i:], 0)
		}
	}
}

// Min/Max compare signed but return the original lane bits.

func min8(dst, a, b []byte) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		x, y := a[i], b[i]
		if int8(x) < int8(y) {
			dst[i] = x
		} else {
			dst[i] = y
		}
	}
}

func min16(dst, a, b []byte) {
	for i := 0; i+2 <= len(dst); i += 2 {
		x, y := le.Uint16(a[i:]), le.Uint16(b[i:])
		if int16(x) < int16(y) {
			le.PutUint16(dst[i:], x)
		} else {
			le.PutUint16(dst[i:], y)
		}
	}
}

func min32(dst, a, b []byte) {
	for i := 0; i+4 <= len(dst); i += 4 {
		x, y := le.Uint32(a[i:]), le.Uint32(b[i:])
		if int32(x) < int32(y) {
			le.PutUint32(dst[i:], x)
		} else {
			le.PutUint32(dst[i:], y)
		}
	}
}

func max8(dst, a, b []byte) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		x, y := a[i], b[i]
		if int8(x) > int8(y) {
			dst[i] = x
		} else {
			dst[i] = y
		}
	}
}

func max16(dst, a, b []byte) {
	for i := 0; i+2 <= len(dst); i += 2 {
		x, y := le.Uint16(a[i:]), le.Uint16(b[i:])
		if int16(x) > int16(y) {
			le.PutUint16(dst[i:], x)
		} else {
			le.PutUint16(dst[i:], y)
		}
	}
}

func max32(dst, a, b []byte) {
	for i := 0; i+4 <= len(dst); i += 4 {
		x, y := le.Uint32(a[i:]), le.Uint32(b[i:])
		if int32(x) > int32(y) {
			le.PutUint32(dst[i:], x)
		} else {
			le.PutUint32(dst[i:], y)
		}
	}
}

// --- immediate variants of the arithmetic / compare family ------------------
//
// The dispatcher masks the immediate to the element width before the call,
// so the typed truncation below is exact.

func addImm8(dst, a []byte, imm uint64) {
	y := byte(imm)
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = a[i] + y
	}
}

func addImm16(dst, a []byte, imm uint64) {
	y := uint16(imm)
	for i := 0; i+2 <= len(dst); i += 2 {
		le.PutUint16(dst[i:], le.Uint16(a[i:])+y)
	}
}

func addImm32(dst, a []byte, imm uint64) {
	y := uint32(imm)
	for i := 0; i+4 <= len(dst); i += 4 {
		le.PutUint32(dst[i:], le.Uint32(a[i:])+y)
	}
}

func subImm8(dst, a []byte, imm uint64) {
	y := byte(imm)
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = a[i] - y
	}
}

func subImm16(dst, a []byte, imm uint64) {
	y := uint16(imm)
	for i := 0; i+2 <= len(dst); i += 2 {
		le.PutUint16(dst[i:], le.Uint16(a[i:])-y)
	}
}

func subImm32(dst, a []byte, imm uint64) {
	y := uint32(imm)
	for i := 0; i+4 <= len(dst); i += 4 {
		le.PutUint32(dst[i:], le.Uint32(a[i:])-y)
	}
}

func mulImm8(dst, a []byte, imm uint64) {
	y := byte(imm)
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = a[i] * y
	}
}

func mulImm16(dst, a []byte, imm uint64) {
	y := uint16(imm)
	for i := 0; i+2 <= len(dst); i += 2 {
		le.PutUint16(dst[i:], le.Uint16(a[i:])*y)
	}
}

func mulImm32(dst, a []byte, imm uint64) {
	y := uint32(imm)
	for i := 0; i+4 <= len(dst); i += 4 {
		le.PutUint32(dst[i:], le.Uint32(a[i:])*y)
	}
}

func divImm8(dst, a []byte, imm uint64) {
	y := byte(imm)
	a = a[:len(dst)]
	if y == 0 {
		for i := range dst {
			dst[i] = 0xFF
		}
		return
	}
	for i := range dst {
		dst[i] = a[i] / y
	}
}

func divImm16(dst, a []byte, imm uint64) {
	y := uint16(imm)
	if y == 0 {
		for i := 0; i+2 <= len(dst); i += 2 {
			le.PutUint16(dst[i:], 0xFFFF)
		}
		return
	}
	for i := 0; i+2 <= len(dst); i += 2 {
		le.PutUint16(dst[i:], le.Uint16(a[i:])/y)
	}
}

func divImm32(dst, a []byte, imm uint64) {
	y := uint32(imm)
	if y == 0 {
		for i := 0; i+4 <= len(dst); i += 4 {
			le.PutUint32(dst[i:], 0xFFFFFFFF)
		}
		return
	}
	for i := 0; i+4 <= len(dst); i += 4 {
		le.PutUint32(dst[i:], le.Uint32(a[i:])/y)
	}
}

func ltImm8(dst, a []byte, imm uint64) {
	y := int8(byte(imm))
	a = a[:len(dst)]
	for i := range dst {
		if int8(a[i]) < y {
			dst[i] = 0xFF
		} else {
			dst[i] = 0
		}
	}
}

func ltImm16(dst, a []byte, imm uint64) {
	y := int16(uint16(imm))
	for i := 0; i+2 <= len(dst); i += 2 {
		if int16(le.Uint16(a[i:])) < y {
			le.PutUint16(dst[i:], 0xFFFF)
		} else {
			le.PutUint16(dst[i:], 0)
		}
	}
}

func ltImm32(dst, a []byte, imm uint64) {
	y := int32(uint32(imm))
	for i := 0; i+4 <= len(dst); i += 4 {
		if int32(le.Uint32(a[i:])) < y {
			le.PutUint32(dst[i:], 0xFFFFFFFF)
		} else {
			le.PutUint32(dst[i:], 0)
		}
	}
}

func gtImm8(dst, a []byte, imm uint64) {
	y := int8(byte(imm))
	a = a[:len(dst)]
	for i := range dst {
		if int8(a[i]) > y {
			dst[i] = 0xFF
		} else {
			dst[i] = 0
		}
	}
}

func gtImm16(dst, a []byte, imm uint64) {
	y := int16(uint16(imm))
	for i := 0; i+2 <= len(dst); i += 2 {
		if int16(le.Uint16(a[i:])) > y {
			le.PutUint16(dst[i:], 0xFFFF)
		} else {
			le.PutUint16(dst[i:], 0)
		}
	}
}

func gtImm32(dst, a []byte, imm uint64) {
	y := int32(uint32(imm))
	for i := 0; i+4 <= len(dst); i += 4 {
		if int32(le.Uint32(a[i:])) > y {
			le.PutUint32(dst[i:], 0xFFFFFFFF)
		} else {
			le.PutUint32(dst[i:], 0)
		}
	}
}

func eqImm8(dst, a []byte, imm uint64) {
	y := byte(imm)
	a = a[:len(dst)]
	for i := range dst {
		if a[i] == y {
			dst[i] = 0xFF
		} else {
			dst[i] = 0
		}
	}
}

func eqImm16(dst, a []byte, imm uint64) {
	y := uint16(imm)
	for i := 0; i+2 <= len(dst); i += 2 {
		if le.Uint16(a[i:]) == y {
			le.PutUint16(dst[i:], 0xFFFF)
		} else {
			le.PutUint16(dst[i:], 0)
		}
	}
}

func eqImm32(dst, a []byte, imm uint64) {
	y := uint32(imm)
	for i := 0; i+4 <= len(dst); i += 4 {
		if le.Uint32(a[i:]) == y {
			le.PutUint32(dst[i:], 0xFFFFFFFF)
		} else {
			le.PutUint32(dst[i:], 0)
		}
	}
}

func minImm8(dst, a []byte, imm uint64) {
	y := byte(imm)
	a = a[:len(dst)]
	for i := range dst {
		x := a[i]
		if int8(x) < int8(y) {
			dst[i] = x
		} else {
			dst[i] = y
		}
	}
}

func minImm16(dst, a []byte, imm uint64) {
	y := uint16(imm)
	for i := 0; i+2 <= len(dst); i += 2 {
		x := le.Uint16(a[i:])
		if int16(x) < int16(y) {
			le.PutUint16(dst[i:], x)
		} else {
			le.PutUint16(dst[i:], y)
		}
	}
}

func minImm32(dst, a []byte, imm uint64) {
	y := uint32(imm)
	for i := 0; i+4 <= len(dst); i += 4 {
		x := le.Uint32(a[i:])
		if int32(x) < int32(y) {
			le.PutUint32(dst[i:], x)
		} else {
			le.PutUint32(dst[i:], y)
		}
	}
}

func maxImm8(dst, a []byte, imm uint64) {
	y := byte(imm)
	a = a[:len(dst)]
	for i := range dst {
		x := a[i]
		if int8(x) > int8(y) {
			dst[i] = x
		} else {
			dst[i] = y
		}
	}
}

func maxImm16(dst, a []byte, imm uint64) {
	y := uint16(imm)
	for i := 0; i+2 <= len(dst); i += 2 {
		x := le.Uint16(a[i:])
		if int16(x) > int16(y) {
			le.PutUint16(dst[i:], x)
		} else {
			le.PutUint16(dst[i:], y)
		}
	}
}

func maxImm32(dst, a []byte, imm uint64) {
	y := uint32(imm)
	for i := 0; i+4 <= len(dst); i += 4 {
		x := le.Uint32(a[i:])
		if int32(x) > int32(y) {
			le.PutUint32(dst[i:], x)
		} else {
			le.PutUint32(dst[i:], y)
		}
	}
}

// --- immediate shifts (raw, unmasked shift counts) --------------------------

func shlImm8(dst, a []byte, imm uint64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = a[i] << imm
	}
}

func shlImm16(dst, a []byte, imm uint64) {
	for i := 0; i+2 <= len(dst); i += 2 {
		le.PutUint16(dst[i:], le.Uint16(a[i:])<<imm)
	}
}

func shlImm32(dst, a []byte, imm uint64) {
	for i := 0; i+4 <= len(dst); i += 4 {
		le.PutUint32(dst[i:], le.Uint32(a[i:])<<imm)
	}
}

func shrImm8(dst, a []byte, imm uint64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = a[i] >> imm
	}
}

func shrImm16(dst, a []byte, imm uint64) {
	for i := 0; i+2 <= len(dst); i += 2 {
		le.PutUint16(dst[i:], le.Uint16(a[i:])>>imm)
	}
}

func shrImm32(dst, a []byte, imm uint64) {
	for i := 0; i+4 <= len(dst); i += 4 {
		le.PutUint32(dst[i:], le.Uint32(a[i:])>>imm)
	}
}

// --- predicated select ------------------------------------------------------

func select8(dst, mask, a, b []byte) {
	mask, a, b = mask[:len(dst)], a[:len(dst)], b[:len(dst)]
	for i := range dst {
		if mask[i] != 0 {
			dst[i] = a[i]
		} else {
			dst[i] = b[i]
		}
	}
}

func select16(dst, mask, a, b []byte) {
	for i := 0; i+2 <= len(dst); i += 2 {
		if le.Uint16(mask[i:]) != 0 {
			le.PutUint16(dst[i:], le.Uint16(a[i:]))
		} else {
			le.PutUint16(dst[i:], le.Uint16(b[i:]))
		}
	}
}

func select32(dst, mask, a, b []byte) {
	for i := 0; i+4 <= len(dst); i += 4 {
		if le.Uint32(mask[i:]) != 0 {
			le.PutUint32(dst[i:], le.Uint32(a[i:]))
		} else {
			le.PutUint32(dst[i:], le.Uint32(b[i:]))
		}
	}
}

func selectImm8(dst, mask, a []byte, imm uint64) {
	y := byte(imm)
	mask, a = mask[:len(dst)], a[:len(dst)]
	for i := range dst {
		if mask[i] != 0 {
			dst[i] = a[i]
		} else {
			dst[i] = y
		}
	}
}

func selectImm16(dst, mask, a []byte, imm uint64) {
	y := uint16(imm)
	for i := 0; i+2 <= len(dst); i += 2 {
		if le.Uint16(mask[i:]) != 0 {
			le.PutUint16(dst[i:], le.Uint16(a[i:]))
		} else {
			le.PutUint16(dst[i:], y)
		}
	}
}

func selectImm32(dst, mask, a []byte, imm uint64) {
	y := uint32(imm)
	for i := 0; i+4 <= len(dst); i += 4 {
		if le.Uint32(mask[i:]) != 0 {
			le.PutUint32(dst[i:], le.Uint32(a[i:]))
		} else {
			le.PutUint32(dst[i:], y)
		}
	}
}
