package vecmath

import "fmt"

// CheckElem panics unless elem is a supported element size.
func CheckElem(elem int) {
	if elem != 1 && elem != 2 && elem != 4 {
		panic(fmt.Sprintf("vecmath: unsupported element size %d", elem))
	}
}

// Mask returns the value mask for an element of elem bytes.
func Mask(elem int) uint64 {
	return uint64(1)<<(8*elem) - 1
}

// Load reads element i from p.
func Load(p []byte, i, elem int) uint64 {
	off := i * elem
	var v uint64
	for b := 0; b < elem; b++ {
		v |= uint64(p[off+b]) << (8 * b)
	}
	return v
}

// Store writes element i of p, truncating v to the element size.
func Store(p []byte, i, elem int, v uint64) {
	off := i * elem
	v &= Mask(elem)
	for b := 0; b < elem; b++ {
		p[off+b] = byte(v >> (8 * b))
	}
}

// ToSigned reinterprets the low 8*elem bits of v as a signed integer.
func ToSigned(v uint64, elem int) int64 {
	shift := 64 - 8*elem
	return int64(v<<shift) >> shift
}

// Broadcast fills dst with the immediate value v in every lane. The
// specialized implementation stores one lane and doubles it across the
// page; BroadcastGeneric is the lane-serial reference.
func Broadcast(dst []byte, elem int, v uint64) {
	CheckElem(elem)
	n := len(dst) / elem
	if n == 0 {
		return
	}
	Store(dst, 0, elem, v)
	total := n * elem
	for filled := elem; filled < total; filled *= 2 {
		copy(dst[filled:total], dst[:filled])
	}
}

// ReduceAdd sums all elements of a modulo the element width;
// ReduceAddGeneric is the lane-serial reference.
func ReduceAdd(a []byte, elem int) uint64 {
	CheckElem(elem)
	return reduceKernels[elemIndex(elem)](a[:len(a)-len(a)%elem])
}

// Bool converts a predicate to the canonical lane values used by the
// predication operations: all-ones for true, zero for false.
func Bool(b bool, elem int) uint64 {
	if b {
		return Mask(elem)
	}
	return 0
}
