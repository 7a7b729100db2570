package vecmath

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkVecmathKernels measures the specialized kernels against the
// retained generic reference on a flash-page-sized operand (16 KiB, the
// default config's page). The bitwise family is the headline number: the
// uint64 word path must beat the closure-per-element reference by >= 3x
// (BENCH_pr3.json recorded the ratio).
func BenchmarkVecmathKernels(b *testing.B) {
	const page = 16 << 10
	r := rand.New(rand.NewSource(7))
	a := make([]byte, page)
	bb := make([]byte, page)
	dst := make([]byte, page)
	fillRand(r, a)
	fillRand(r, bb)

	type variant struct {
		name string
		run  func(op Op, elem int)
	}
	variants := []variant{
		{"specialized", func(op Op, elem int) { Apply(op, dst, a, bb, elem) }},
		{"generic", func(op Op, elem int) { ApplyGeneric(op, dst, a, bb, elem) }},
	}

	cases := []struct {
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
	}
	for _, c := range cases {
		for _, v := range variants {
			b.Run(fmt.Sprintf("%s/%v-%d/%s", c.family, c.op, c.elem, v.name), func(b *testing.B) {
				b.SetBytes(page)
				for i := 0; i < b.N; i++ {
					v.run(c.op, c.elem)
				}
			})
		}
	}

	b.Run("select/4/specialized", func(b *testing.B) {
		b.SetBytes(page)
		for i := 0; i < b.N; i++ {
			Select(dst, a, bb, a, 4)
		}
	})
	b.Run("select/4/generic", func(b *testing.B) {
		b.SetBytes(page)
		for i := 0; i < b.N; i++ {
			SelectGeneric(dst, a, bb, a, 4)
		}
	})
	b.Run("broadcast/4/specialized", func(b *testing.B) {
		b.SetBytes(page)
		for i := 0; i < b.N; i++ {
			Broadcast(dst, 4, 0xDEADBEEF)
		}
	})
	b.Run("broadcast/4/generic", func(b *testing.B) {
		b.SetBytes(page)
		for i := 0; i < b.N; i++ {
			BroadcastGeneric(dst, 4, 0xDEADBEEF)
		}
	})
}
