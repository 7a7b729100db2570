package vecmath

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// This file holds the data-plane kernels. Each operation's lane semantics
// is written once, as a Go-generic function over the lane type, and
// instantiated per element width in kernel tables keyed by (op, elem) that
// the dispatchers consult once per page. The lane-serial reference in
// reference_test.go defines the semantics the kernels must reproduce bit
// for bit; the differential tests in kernels_test.go enforce it.
//
// Every kernel has the same shape, which the package documentation
// ("Writing a kernel") explains and BenchmarkVecmathKernels guards:
// size[T]() and any converted immediate are hoisted, the operands are
// trimmed to len(dst), nothing generic is called inside the lane loop, the
// loop's step is the last statement of its body, and an immediate form is
// its own function.
//
// Aliasing contract (same as the reference): dst may be exactly a or
// exactly b; partially overlapping buffers are not supported. All kernels
// process floor(len(dst)/elem) complete elements and leave trailing bytes
// untouched.

var le = binary.LittleEndian

// Op identifies an elementwise operation with a specialized kernel. The
// operation table in internal/isa names the kernel behind each IR
// operation (the one isa.Op -> Op mapping); nand's multi-wordline fold
// names the bitwise kernels it folds through.
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

// words is the kernel-table column of the uint64 instantiation, which only
// lane-width-independent operations list.
const words = 3

// Apply computes dst[i] = op(a[i], b[i]) elementwise with the kernel for
// (op, elem). Lane values are masked to the element width, division by
// zero saturates to all-ones, comparisons are signed (except EQ) and
// produce all-ones/zero lanes, and shifts use the b lane value as the
// shift count (counts >= the lane width yield zero).
func Apply(op Op, dst, a, b []byte, elem int) {
	CheckElem(elem)
	row := &binKernels[op]
	if row[0] == nil {
		panic(fmt.Sprintf("vecmath: %v has no binary kernel", op))
	}
	m := len(dst) - len(dst)%elem
	dst, a, b = dst[:m], a[:m], b[:m]
	if w := row[words]; w != nil {
		h := m &^ 7
		w(dst[:h], a[:h], b[:h])
		dst, a, b = dst[h:], a[h:], b[h:]
	}
	row[elemIndex(elem)](dst, a, b)
}

// ApplyImm computes dst[i] = op(a[i], imm) elementwise, broadcasting the
// immediate as a lane value (truncated to the element width). Shift
// operations do not take this path: their immediate is a raw shift count,
// not a lane — use ApplyUnary.
func ApplyImm(op Op, dst, a []byte, elem int, imm uint64) {
	CheckElem(elem)
	if immKernels[op][0] == nil {
		panic(fmt.Sprintf("vecmath: %v has no immediate kernel", op))
	}
	applyImm(&immKernels[op], dst, a, elem, imm&Mask(elem))
}

// ApplyUnary computes single-source operations: OpNot (imm ignored) and
// OpShl/OpShr, whose imm is the raw, unmasked shift count (counts >= the
// lane width yield zero lanes, exactly like the reference's x<<imm).
func ApplyUnary(op Op, dst, a []byte, elem int, imm uint64) {
	CheckElem(elem)
	if unaryKernels[op][0] == nil {
		panic(fmt.Sprintf("vecmath: %v has no unary kernel", op))
	}
	applyImm(&unaryKernels[op], dst, a, elem, imm)
}

// applyImm runs one row of a single-source table: the lane kernel receives
// imm as given, the words kernel receives it replicated into every lane of
// a uint64.
func applyImm(row *[4]func(dst, a []byte, imm uint64), dst, a []byte, elem int, imm uint64) {
	m := len(dst) - len(dst)%elem
	dst, a = dst[:m], a[:m]
	if w := row[words]; w != nil {
		h := m &^ 7
		w(dst[:h], a[:h], imm*(^uint64(0)/Mask(elem)))
		dst, a = dst[h:], a[h:]
	}
	row[elemIndex(elem)](dst, a, imm)
}

// Select computes dst[i] = a[i] where mask[i] != 0, else b[i]. dst may
// alias any operand exactly.
func Select(dst, mask, a, b []byte, elem int) {
	CheckElem(elem)
	m := len(dst) - len(dst)%elem
	selKernels[elemIndex(elem)](dst[:m], mask[:m], a[:m], b[:m])
}

// SelectImm computes dst[i] = a[i] where mask[i] != 0, else the broadcast
// immediate (truncated to the element width).
func SelectImm(dst, mask, a []byte, elem int, imm uint64) {
	CheckElem(elem)
	m := len(dst) - len(dst)%elem
	selImmKernels[elemIndex(elem)](dst[:m], mask[:m], a[:m], imm&Mask(elem))
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

// ShuffleGeneric is the reference implementation of Shuffle: the
// element-serial lane rotation the substrates originally inlined,
// including its behavior on negative rotations and aliased buffers.
func ShuffleGeneric(dst, a []byte, elem int, rot int) {
	CheckElem(elem)
	n := len(dst) / elem
	r := rot % n
	for i := 0; i < n; i++ {
		Store(dst, i, elem, Load(a, (i+r)%n, elem))
	}
}

// --- kernel tables ----------------------------------------------------------
//
// One row per operation: the instantiations for 1-, 2- and 4-byte lanes
// and, for the bitwise family only, the uint64 one in column words.

var binKernels = [numKernelOps][4]func(dst, a, b []byte){
	OpAnd:  {and[uint8], and[uint16], and[uint32], and[uint64]},
	OpOr:   {or[uint8], or[uint16], or[uint32], or[uint64]},
	OpXor:  {xor[uint8], xor[uint16], xor[uint32], xor[uint64]},
	OpNand: {nand[uint8], nand[uint16], nand[uint32], nand[uint64]},
	OpNor:  {nor[uint8], nor[uint16], nor[uint32], nor[uint64]},
	OpAdd:  {add[uint8], add[uint16], add[uint32]},
	OpSub:  {sub[uint8], sub[uint16], sub[uint32]},
	OpMul:  {mul[uint8], mul[uint16], mul[uint32]},
	OpDiv:  {div[uint8], div[uint16], div[uint32]},
	OpShl:  {shl[uint8], shl[uint16], shl[uint32]},
	OpShr:  {shr[uint8], shr[uint16], shr[uint32]},
	OpLT:   {slt[uint8, int8], slt[uint16, int16], slt[uint32, int32]},
	OpGT:   {sgt[uint8, int8], sgt[uint16, int16], sgt[uint32, int32]},
	OpEQ:   {eq[uint8], eq[uint16], eq[uint32]},
	OpMin:  {smin[uint8, int8], smin[uint16, int16], smin[uint32, int32]},
	OpMax:  {smax[uint8, int8], smax[uint16, int16], smax[uint32, int32]},
}

// ApplyImm hands these an immediate already truncated to the lane width,
// so comparing or storing imm itself is exact.
var immKernels = [numKernelOps][4]func(dst, a []byte, imm uint64){
	OpAnd:  {andImm[uint8], andImm[uint16], andImm[uint32], andImm[uint64]},
	OpOr:   {orImm[uint8], orImm[uint16], orImm[uint32], orImm[uint64]},
	OpXor:  {xorImm[uint8], xorImm[uint16], xorImm[uint32], xorImm[uint64]},
	OpNand: {nandImm[uint8], nandImm[uint16], nandImm[uint32], nandImm[uint64]},
	OpNor:  {norImm[uint8], norImm[uint16], norImm[uint32], norImm[uint64]},
	OpAdd:  {addImm[uint8], addImm[uint16], addImm[uint32]},
	OpSub:  {subImm[uint8], subImm[uint16], subImm[uint32]},
	OpMul:  {mulImm[uint8], mulImm[uint16], mulImm[uint32]},
	OpDiv:  {divImm[uint8], divImm[uint16], divImm[uint32]},
	OpLT:   {sltImm[uint8, int8], sltImm[uint16, int16], sltImm[uint32, int32]},
	OpGT:   {sgtImm[uint8, int8], sgtImm[uint16, int16], sgtImm[uint32, int32]},
	OpEQ:   {eqImm[uint8], eqImm[uint16], eqImm[uint32]},
	OpMin:  {sminImm[uint8, int8], sminImm[uint16, int16], sminImm[uint32, int32]},
	OpMax:  {smaxImm[uint8, int8], smaxImm[uint16, int16], smaxImm[uint32, int32]},
}

var unaryKernels = [numKernelOps][4]func(dst, a []byte, imm uint64){
	OpNot: {not[uint8], not[uint16], not[uint32], not[uint64]},
	OpShl: {shlImm[uint8], shlImm[uint16], shlImm[uint32]},
	OpShr: {shrImm[uint8], shrImm[uint16], shrImm[uint32]},
}

var selKernels = [3]func(dst, mask, a, b []byte){sel[uint8], sel[uint16], sel[uint32]}
var selImmKernels = [3]func(dst, mask, a []byte, imm uint64){selImm[uint8], selImm[uint16], selImm[uint32]}
var reduceKernels = [3]func(a []byte) uint64{reduceAdd[uint8], reduceAdd[uint16], reduceAdd[uint32]}

// --- lanes ------------------------------------------------------------------

// lane is an unsigned little-endian element; uint64 is the word the
// bitwise family also runs on. slane is the signed counterpart the signed
// comparisons take as a second type parameter.
type (
	lane interface {
		~uint8 | ~uint16 | ~uint32 | ~uint64
	}
	slane interface{ ~int8 | ~int16 | ~int32 }
)

// size is T's width in bytes, a constant in each instantiation.
func size[T lane]() int { return bits.Len64(uint64(^T(0))) / 8 }

// load reads the n-byte lane at byte offset i of p. The full slice
// expressions keep the bounds checks of a wide lane to compares: a plain
// p[i:] must also mask the new base pointer against an empty result, on
// every lane (16-bit add: 13.0 -> 7.5 us per page).
func load(p []byte, i, n int) uint64 {
	switch n {
	case 1:
		return uint64(p[i])
	case 2:
		return uint64(le.Uint16(p[i : i+2 : i+2]))
	case 4:
		return uint64(le.Uint32(p[i : i+4 : i+4]))
	}
	return le.Uint64(p[i : i+8 : i+8])
}

// store writes the low n bytes of v as the lane at byte offset i of p.
func store(p []byte, i, n int, v uint64) {
	switch n {
	case 1:
		p[i] = byte(v)
	case 2:
		le.PutUint16(p[i:i+2:i+2], uint16(v))
	case 4:
		le.PutUint32(p[i:i+4:i+4], uint32(v))
	default:
		le.PutUint64(p[i:i+8:i+8], v)
	}
}

// --- bitwise family ----------------------------------------------------------

func and[T lane](dst, a, b []byte) {
	n := size[T]()
	a, b = a[:len(dst)], b[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, load(a, i, n)&load(b, i, n))
		i += n
	}
}

func or[T lane](dst, a, b []byte) {
	n := size[T]()
	a, b = a[:len(dst)], b[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, load(a, i, n)|load(b, i, n))
		i += n
	}
}

func xor[T lane](dst, a, b []byte) {
	n := size[T]()
	a, b = a[:len(dst)], b[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, load(a, i, n)^load(b, i, n))
		i += n
	}
}

func nand[T lane](dst, a, b []byte) {
	n := size[T]()
	a, b = a[:len(dst)], b[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, ^(load(a, i, n) & load(b, i, n)))
		i += n
	}
}

func nor[T lane](dst, a, b []byte) {
	n := size[T]()
	a, b = a[:len(dst)], b[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, ^(load(a, i, n) | load(b, i, n)))
		i += n
	}
}

func andImm[T lane](dst, a []byte, imm uint64) {
	n := size[T]()
	a = a[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, load(a, i, n)&imm)
		i += n
	}
}

func orImm[T lane](dst, a []byte, imm uint64) {
	n := size[T]()
	a = a[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, load(a, i, n)|imm)
		i += n
	}
}

func xorImm[T lane](dst, a []byte, imm uint64) {
	n := size[T]()
	a = a[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, load(a, i, n)^imm)
		i += n
	}
}

func nandImm[T lane](dst, a []byte, imm uint64) {
	n := size[T]()
	a = a[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, ^(load(a, i, n) & imm))
		i += n
	}
}

func norImm[T lane](dst, a []byte, imm uint64) {
	n := size[T]()
	a = a[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, ^(load(a, i, n) | imm))
		i += n
	}
}

func not[T lane](dst, a []byte, _ uint64) {
	n := size[T]()
	a = a[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, ^load(a, i, n))
		i += n
	}
}

// --- arithmetic ----------------------------------------------------------------

func add[T lane](dst, a, b []byte) {
	n := size[T]()
	a, b = a[:len(dst)], b[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, uint64(T(load(a, i, n))+T(load(b, i, n))))
		i += n
	}
}

func sub[T lane](dst, a, b []byte) {
	n := size[T]()
	a, b = a[:len(dst)], b[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, uint64(T(load(a, i, n))-T(load(b, i, n))))
		i += n
	}
}

func mul[T lane](dst, a, b []byte) {
	n := size[T]()
	a, b = a[:len(dst)], b[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, uint64(T(load(a, i, n))*T(load(b, i, n))))
		i += n
	}
}

// Division by zero saturates to all-ones.
func div[T lane](dst, a, b []byte) {
	n := size[T]()
	a, b = a[:len(dst)], b[:len(dst)]
	for i := 0; i < len(dst); {
		if y := T(load(b, i, n)); y == 0 {
			store(dst, i, n, Mask(n))
		} else {
			store(dst, i, n, uint64(T(load(a, i, n))/y))
		}
		i += n
	}
}

// Binary shifts take the shift count from the b lane; counts >= the lane
// width produce zero.
func shl[T lane](dst, a, b []byte) {
	n := size[T]()
	a, b = a[:len(dst)], b[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, uint64(T(load(a, i, n))<<T(load(b, i, n))))
		i += n
	}
}

func shr[T lane](dst, a, b []byte) {
	n := size[T]()
	a, b = a[:len(dst)], b[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, uint64(T(load(a, i, n))>>T(load(b, i, n))))
		i += n
	}
}

func addImm[T lane](dst, a []byte, imm uint64) {
	n := size[T]()
	y := T(imm)
	a = a[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, uint64(T(load(a, i, n))+y))
		i += n
	}
}

func subImm[T lane](dst, a []byte, imm uint64) {
	n := size[T]()
	y := T(imm)
	a = a[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, uint64(T(load(a, i, n))-y))
		i += n
	}
}

func mulImm[T lane](dst, a []byte, imm uint64) {
	n := size[T]()
	y := T(imm)
	a = a[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, uint64(T(load(a, i, n))*y))
		i += n
	}
}

func divImm[T lane](dst, a []byte, imm uint64) {
	n := size[T]()
	y := T(imm)
	if y == 0 {
		Broadcast(dst, 1, 0xFF)
		return
	}
	a = a[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, uint64(T(load(a, i, n))/y))
		i += n
	}
}

// Immediate shifts take the raw, unmasked count. One at or past the lane
// width clears every lane; deciding that above the loop leaves a count the
// compiler knows is in range, so the lanes shift without a per-lane
// fix-up (8-bit: 14.9 -> 10.0 us per page).
func shlImm[T lane](dst, a []byte, imm uint64) {
	n := size[T]()
	if imm >= uint64(8*n) {
		clear(dst)
		return
	}
	imm &= uint64(8*n - 1)
	a = a[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, uint64(T(load(a, i, n))<<imm))
		i += n
	}
}

func shrImm[T lane](dst, a []byte, imm uint64) {
	n := size[T]()
	if imm >= uint64(8*n) {
		clear(dst)
		return
	}
	imm &= uint64(8*n - 1)
	a = a[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, uint64(T(load(a, i, n))>>imm))
		i += n
	}
}

// --- comparisons ---------------------------------------------------------------
//
// Relational operations are signed (except EQ) and emit canonical
// all-ones/zero predicate lanes; min and max compare signed but return the
// original lane bits.

func slt[T lane, S slane](dst, a, b []byte) {
	n := size[T]()
	a, b = a[:len(dst)], b[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, Bool(S(load(a, i, n)) < S(load(b, i, n)), n))
		i += n
	}
}

func sgt[T lane, S slane](dst, a, b []byte) {
	n := size[T]()
	a, b = a[:len(dst)], b[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, Bool(S(load(a, i, n)) > S(load(b, i, n)), n))
		i += n
	}
}

func eq[T lane](dst, a, b []byte) {
	n := size[T]()
	a, b = a[:len(dst)], b[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, Bool(load(a, i, n) == load(b, i, n), n))
		i += n
	}
}

func smin[T lane, S slane](dst, a, b []byte) {
	n := size[T]()
	a, b = a[:len(dst)], b[:len(dst)]
	for i := 0; i < len(dst); {
		x, y := load(a, i, n), load(b, i, n)
		if S(x) < S(y) {
			store(dst, i, n, x)
		} else {
			store(dst, i, n, y)
		}
		i += n
	}
}

func smax[T lane, S slane](dst, a, b []byte) {
	n := size[T]()
	a, b = a[:len(dst)], b[:len(dst)]
	for i := 0; i < len(dst); {
		x, y := load(a, i, n), load(b, i, n)
		if S(x) > S(y) {
			store(dst, i, n, x)
		} else {
			store(dst, i, n, y)
		}
		i += n
	}
}

func sltImm[T lane, S slane](dst, a []byte, imm uint64) {
	n := size[T]()
	y := S(imm)
	a = a[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, Bool(S(load(a, i, n)) < y, n))
		i += n
	}
}

func sgtImm[T lane, S slane](dst, a []byte, imm uint64) {
	n := size[T]()
	y := S(imm)
	a = a[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, Bool(S(load(a, i, n)) > y, n))
		i += n
	}
}

func eqImm[T lane](dst, a []byte, imm uint64) {
	n := size[T]()
	a = a[:len(dst)]
	for i := 0; i < len(dst); {
		store(dst, i, n, Bool(load(a, i, n) == imm, n))
		i += n
	}
}

func sminImm[T lane, S slane](dst, a []byte, imm uint64) {
	n := size[T]()
	y := S(imm)
	a = a[:len(dst)]
	for i := 0; i < len(dst); {
		x := load(a, i, n)
		if S(x) < y {
			store(dst, i, n, x)
		} else {
			store(dst, i, n, imm)
		}
		i += n
	}
}

func smaxImm[T lane, S slane](dst, a []byte, imm uint64) {
	n := size[T]()
	y := S(imm)
	a = a[:len(dst)]
	for i := 0; i < len(dst); {
		x := load(a, i, n)
		if S(x) > y {
			store(dst, i, n, x)
		} else {
			store(dst, i, n, imm)
		}
		i += n
	}
}

// --- predicated select ---------------------------------------------------------

func sel[T lane](dst, mask, a, b []byte) {
	n := size[T]()
	mask, a, b = mask[:len(dst)], a[:len(dst)], b[:len(dst)]
	for i := 0; i < len(dst); {
		if load(mask, i, n) != 0 {
			store(dst, i, n, load(a, i, n))
		} else {
			store(dst, i, n, load(b, i, n))
		}
		i += n
	}
}

func selImm[T lane](dst, mask, a []byte, imm uint64) {
	n := size[T]()
	mask, a = mask[:len(dst)], a[:len(dst)]
	for i := 0; i < len(dst); {
		if load(mask, i, n) != 0 {
			store(dst, i, n, load(a, i, n))
		} else {
			store(dst, i, n, imm)
		}
		i += n
	}
}

// --- reduction --------------------------------------------------------------

func reduceAdd[T lane](a []byte) uint64 {
	n := size[T]()
	var sum T
	for i := 0; i < len(a); {
		sum += T(load(a, i, n))
		i += n
	}
	return uint64(sum)
}
