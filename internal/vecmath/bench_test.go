package vecmath

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkVecmathKernels measures the specialized kernels on a
// flash-page-sized operand (16 KiB, the default config's page). Two groups:
// the cases that also run the retained lane-serial reference (the bitwise
// family is the headline there: the uint64 word path must beat the
// closure-per-element reference by >= 3x; docs/REPRO.md "Performance" has
// the recorded ratio), and the Elem == 1 cases — the whole traffic of the
// six evaluated workloads (ROADMAP item 5) — measured on the kernel alone.
func BenchmarkVecmathKernels(b *testing.B) {
	const page = 16 << 10
	r := rand.New(rand.NewSource(7))
	a := make([]byte, page)
	bb := make([]byte, page)
	dst := make([]byte, page)
	fillRand(r, a)
	fillRand(r, bb)
	halfMask := make([]byte, page)
	for i := range halfMask {
		if r.Intn(2) == 0 {
			halfMask[i] = 0xFF
		}
	}

	bench := func(name string, run func()) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(page)
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}

	for _, c := range []struct {
		family string
		op     Op
		elem   int
	}{
		{"bitwise", OpAnd, 1},
		{"bitwise", OpXor, 4},
		{"bitwise", OpNor, 2},
		{"arith", OpAdd, 1},
		{"arith", OpAdd, 4},
		{"arith", OpMul, 2},
		{"compare", OpLT, 4},
		{"compare", OpMin, 2},
	} {
		name := fmt.Sprintf("%s/%v-%d", c.family, c.op, c.elem)
		bench(name+"/specialized", func() { Apply(c.op, dst, a, bb, c.elem) })
		bench(name+"/generic", func() { ApplyGeneric(c.op, dst, a, bb, c.elem) })
	}
	bench("select/4/specialized", func() { Select(dst, a, bb, a, 4) })
	bench("select/4/generic", func() { SelectGeneric(dst, a, bb, a, 4) })
	bench("broadcast/4/specialized", func() { Broadcast(dst, 4, 0xDEADBEEF) })
	bench("broadcast/4/generic", func() { BroadcastGeneric(dst, 4, 0xDEADBEEF) })

	// The operations the evaluated workloads execute, all on 8-bit lanes
	// (OpAdd is in the table above).
	for _, op := range []Op{OpSub, OpMul, OpMax, OpEQ, OpXor} {
		bench(fmt.Sprintf("elem1/%v", op), func() { Apply(op, dst, a, bb, 1) })
	}
	for _, op := range []Op{OpShl, OpShr} {
		bench(fmt.Sprintf("elem1/%v-imm", op), func() { ApplyUnary(op, dst, a, 1, 3) })
	}
	for _, op := range []Op{OpAnd, OpXor, OpMul, OpAdd} {
		bench(fmt.Sprintf("elem1/%v-imm", op), func() { ApplyImm(op, dst, a, 1, 0x5B) })
	}
	bench("elem1/not", func() { ApplyUnary(OpNot, dst, a, 1, 0) })
	bench("elem1/select-half", func() { Select(dst, halfMask, a, bb, 1) })
}
