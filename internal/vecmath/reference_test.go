package vecmath

import "fmt"

// This file is the retained generic reference implementation: the same
// Op-dispatched surface as the kernels in kernels.go, built on the
// closure-per-element primitives below (Binary, BinaryImm, Unary over
// Load and Store). It defines the semantics the kernels must reproduce bit
// for bit; the differential tests in kernels_test.go enforce that, and the
// kernel benchmarks measure against it. ShuffleGeneric, which Shuffle
// falls back to, is below it in kernels.go.

// Binary applies f elementwise: dst[i] = f(a[i], b[i]). dst may alias a or
// b. All slices must share a length that is a multiple of elem.
func Binary(dst, a, b []byte, elem int, f func(x, y uint64) uint64) {
	CheckElem(elem)
	n := len(dst) / elem
	for i := 0; i < n; i++ {
		Store(dst, i, elem, f(Load(a, i, elem), Load(b, i, elem)))
	}
}

// Unary applies f elementwise: dst[i] = f(a[i]).
func Unary(dst, a []byte, elem int, f func(x uint64) uint64) {
	CheckElem(elem)
	n := len(dst) / elem
	for i := 0; i < n; i++ {
		Store(dst, i, elem, f(Load(a, i, elem)))
	}
}

// BinaryImm applies f elementwise against a broadcast immediate:
// dst[i] = f(a[i], imm).
func BinaryImm(dst, a []byte, elem int, imm uint64, f func(x, y uint64) uint64) {
	CheckElem(elem)
	n := len(dst) / elem
	for i := 0; i < n; i++ {
		Store(dst, i, elem, f(Load(a, i, elem), imm))
	}
}

// refFn returns the scalar semantics of op for elem-byte lanes. Inputs
// are masked lane values; the result is masked by Store.
func refFn(op Op, elem int) func(x, y uint64) uint64 {
	mask := Mask(elem)
	switch op {
	case OpAnd:
		return func(x, y uint64) uint64 { return x & y }
	case OpOr:
		return func(x, y uint64) uint64 { return x | y }
	case OpXor:
		return func(x, y uint64) uint64 { return x ^ y }
	case OpNand:
		return func(x, y uint64) uint64 { return ^(x & y) }
	case OpNor:
		return func(x, y uint64) uint64 { return ^(x | y) }
	case OpAdd:
		return func(x, y uint64) uint64 { return x + y }
	case OpSub:
		return func(x, y uint64) uint64 { return x - y }
	case OpMul:
		return func(x, y uint64) uint64 { return x * y }
	case OpDiv:
		return func(x, y uint64) uint64 {
			if y == 0 {
				return mask // saturate on division by zero
			}
			return x / y
		}
	case OpShl:
		return func(x, y uint64) uint64 { return x << y }
	case OpShr:
		return func(x, y uint64) uint64 { return x >> y }
	case OpLT:
		return func(x, y uint64) uint64 { return Bool(ToSigned(x, elem) < ToSigned(y, elem), elem) }
	case OpGT:
		return func(x, y uint64) uint64 { return Bool(ToSigned(x, elem) > ToSigned(y, elem), elem) }
	case OpEQ:
		return func(x, y uint64) uint64 { return Bool(x == y, elem) }
	case OpMin:
		return func(x, y uint64) uint64 {
			if ToSigned(x, elem) < ToSigned(y, elem) {
				return x
			}
			return y
		}
	case OpMax:
		return func(x, y uint64) uint64 {
			if ToSigned(x, elem) > ToSigned(y, elem) {
				return x
			}
			return y
		}
	default:
		panic(fmt.Sprintf("vecmath: %v has no binary reference semantics", op))
	}
}

// ApplyGeneric is the reference implementation of Apply.
func ApplyGeneric(op Op, dst, a, b []byte, elem int) {
	Binary(dst, a, b, elem, refFn(op, elem))
}

// ApplyImmGeneric is the reference implementation of ApplyImm: the
// immediate participates as a masked lane value.
func ApplyImmGeneric(op Op, dst, a []byte, elem int, imm uint64) {
	if op == OpShl || op == OpShr {
		panic("vecmath: shift immediates go through ApplyUnaryGeneric (raw shift-count semantics)")
	}
	BinaryImm(dst, a, elem, imm&Mask(elem), refFn(op, elem))
}

// ApplyUnaryGeneric is the reference implementation of ApplyUnary: OpNot
// ignores imm; OpShl/OpShr shift by the raw, unmasked count.
func ApplyUnaryGeneric(op Op, dst, a []byte, elem int, imm uint64) {
	switch op {
	case OpNot:
		Unary(dst, a, elem, func(x uint64) uint64 { return ^x })
	case OpShl:
		Unary(dst, a, elem, func(x uint64) uint64 { return x << imm })
	case OpShr:
		Unary(dst, a, elem, func(x uint64) uint64 { return x >> imm })
	default:
		panic(fmt.Sprintf("vecmath: %v has no unary reference semantics", op))
	}
}

// SelectGeneric is the reference implementation of Select.
func SelectGeneric(dst, mask, a, b []byte, elem int) {
	CheckElem(elem)
	n := len(dst) / elem
	for i := 0; i < n; i++ {
		if Load(mask, i, elem) != 0 {
			Store(dst, i, elem, Load(a, i, elem))
		} else {
			Store(dst, i, elem, Load(b, i, elem))
		}
	}
}

// SelectImmGeneric is the reference implementation of SelectImm.
func SelectImmGeneric(dst, mask, a []byte, elem int, imm uint64) {
	CheckElem(elem)
	imm &= Mask(elem)
	n := len(dst) / elem
	for i := 0; i < n; i++ {
		if Load(mask, i, elem) != 0 {
			Store(dst, i, elem, Load(a, i, elem))
		} else {
			Store(dst, i, elem, imm)
		}
	}
}

// BroadcastGeneric is the reference implementation of Broadcast.
func BroadcastGeneric(dst []byte, elem int, v uint64) {
	CheckElem(elem)
	n := len(dst) / elem
	for i := 0; i < n; i++ {
		Store(dst, i, elem, v)
	}
}

// ReduceAddGeneric is the reference implementation of ReduceAdd.
func ReduceAddGeneric(a []byte, elem int) uint64 {
	CheckElem(elem)
	var sum uint64
	n := len(a) / elem
	for i := 0; i < n; i++ {
		sum += Load(a, i, elem)
	}
	return sum & Mask(elem)
}
