package isa

import (
	"bytes"
	"fmt"
	"testing"

	"conduit/internal/vecmath"
)

// refLane is an independent scalar oracle: the value of output lane i of
// op over n-lane sources, straight from the operation's definition. It
// shares nothing with Apply but the little-endian lane accessors.
func refLane(op Op, srcs [][]byte, elem int, useImm bool, imm uint64, i, n int) uint64 {
	mask := vecmath.Mask(elem)
	lane := func(k, j int) uint64 { return vecmath.Load(srcs[k], j, elem) }
	// last is the final operand: a source lane, or the immediate standing
	// in for it.
	last := func(k int) uint64 {
		if useImm {
			return imm & mask
		}
		return lane(k, i)
	}
	signed := func(v uint64) int64 { return vecmath.ToSigned(v, elem) }
	boolean := func(b bool) uint64 {
		if b {
			return mask
		}
		return 0
	}
	switch op {
	case OpNot:
		return ^lane(0, i) & mask
	case OpShl:
		if imm >= 64 {
			return 0
		}
		return lane(0, i) << imm & mask
	case OpShr:
		if imm >= 64 {
			return 0
		}
		return lane(0, i) >> imm
	case OpSelect:
		if lane(0, i) != 0 {
			return lane(1, i)
		}
		return last(2)
	case OpCopy:
		return lane(0, i)
	case OpBroadcast:
		return imm & mask
	case OpReduceAdd:
		var sum uint64
		for j := 0; j < n; j++ {
			sum += lane(0, j)
		}
		return sum & mask
	case OpShuffle:
		return lane(0, (i+int(imm))%n)
	}
	x, y := lane(0, i), last(1)
	switch op {
	case OpAnd:
		return x & y
	case OpOr:
		return x | y
	case OpXor:
		return x ^ y
	case OpNand:
		return ^(x & y) & mask
	case OpNor:
		return ^(x | y) & mask
	case OpAdd:
		return (x + y) & mask
	case OpSub:
		return (x - y) & mask
	case OpMul:
		return (x * y) & mask
	case OpDiv:
		if y == 0 {
			return mask // division by zero saturates
		}
		return x / y
	case OpLT:
		return boolean(signed(x) < signed(y))
	case OpGT:
		return boolean(signed(x) > signed(y))
	case OpEQ:
		return boolean(x == y)
	case OpMin:
		if signed(x) < signed(y) {
			return x
		}
		return y
	case OpMax:
		if signed(x) > signed(y) {
			return x
		}
		return y
	}
	panic(fmt.Sprintf("refLane: no definition for %v", op))
}

// TestApplyMatchesLaneOracle drives the one evaluator against the scalar
// oracle: all 22 vector operations, every element width, every operand
// shape the table admits (with and without a replacing immediate), over
// data that exercises signs, zeros (division) and carries.
func TestApplyMatchesLaneOracle(t *testing.T) {
	const page = 96 // a multiple of every element width, not a power of two
	pages := make([][]byte, 3)
	state := uint64(0x9E3779B97F4A7C15)
	for k := range pages {
		pages[k] = make([]byte, page)
		for i := range pages[k] {
			state = state*6364136223846793005 + 1442695040888963407
			pages[k][i] = byte(state >> 56)
			if i%7 == 3 {
				pages[k][i] = 0 // zero lanes: division by zero, false masks
			}
		}
	}
	imms := []uint64{0, 1, 3, 7, 9, 31, 33, 0x80, 0xFFFF, 0x12345678, 1 << 40}
	for op := Op(0); op < OpScalar; op++ {
		for _, elem := range []int{1, 2, 4} {
			n := page / elem
			for _, useImm := range []bool{false, true} {
				srcs := pages[:op.Sources(useImm)]
				for _, imm := range imms {
					if op == OpShuffle && imm >= uint64(n) {
						continue // a rotation names a lane
					}
					got := make([]byte, page)
					if err := Apply(op, got, srcs, elem, useImm, imm); err != nil {
						t.Fatalf("%v elem %d useImm %v: %v", op, elem, useImm, err)
					}
					for i := 0; i < n; i++ {
						want := refLane(op, srcs, elem, useImm && op.ImmReplacesSrc(), imm, i, n)
						if g := vecmath.Load(got, i, elem); g != want {
							t.Fatalf("%v elem %d useImm %v imm %#x lane %d = %#x, oracle says %#x",
								op, elem, useImm, imm, i, g, want)
						}
					}
				}
			}
		}
	}
}

// TestEveryValidShapeEvaluates: Program.Validate and the evaluator read one
// rule for operand shapes, so every (op, UseImm, NSrc) Validate accepts
// evaluates, and every shape it rejects is refused with an error — never an
// index panic. The parent accepted {NOT|COPY|REDUCE_ADD, UseImm, no sources}
// and the shared evaluator indexed srcs[0] on them.
func TestEveryValidShapeEvaluates(t *testing.T) {
	const page = 64
	bufs := [][]byte{make([]byte, page), make([]byte, page), make([]byte, page), make([]byte, page)}
	for op := Op(0); op < OpScalar; op++ {
		for _, useImm := range []bool{false, true} {
			for n := 0; n <= 4; n++ {
				p := &Program{Pages: 5, Insts: []Inst{
					{Op: op, Dst: 4, Src: [MaxSrcs]PageID{0, 1, 2}, NSrc: uint8(n), UseImm: useImm, Imm: 5, Elem: 1, Lanes: page},
				}}
				valid := p.Validate() == nil
				err := Apply(op, make([]byte, page), bufs[:n], 1, useImm, 5)
				if valid != (err == nil) {
					t.Errorf("%v useImm=%v with %d sources: Validate accepts=%v but Apply err=%v", op, useImm, n, valid, err)
				}
			}
		}
	}
	// The reproduced panic, by name.
	if err := Apply(OpNot, make([]byte, page), nil, 1, true, 5); err == nil {
		t.Error("NOT of no sources must be refused")
	}
	p := &Program{Pages: 1, Insts: []Inst{{Op: OpNot, Dst: 0, UseImm: true, Imm: 5, Elem: 1, Lanes: page}}}
	if p.Validate() == nil {
		t.Error("Validate accepts a single-source op whose source was replaced by an immediate")
	}
	if err := Apply(OpScalar, nil, nil, 1, false, 0); err == nil {
		t.Error("a scalar region computes no page")
	}
}

// TestTableColumnsAgree pins the cross-column invariants of the operation
// table that the accessors and the evaluator rely on.
func TestTableColumnsAgree(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		_, kernel := op.Kernel()
		switch {
		case op.ImmReplacesSrc() && op.Arity() < 2:
			t.Errorf("%v: a replacing immediate needs a second source to replace", op)
		case op.Commutative() && op.Arity() != 2:
			t.Errorf("%v: commutative but arity %d", op, op.Arity())
		case kernel && (op.Arity() < 1 || op.Arity() > 2):
			t.Errorf("%v: elementwise kernel at arity %d", op, op.Arity())
		case op.Sources(true) != op.Sources(false) && !op.ImmReplacesSrc():
			t.Errorf("%v: Sources disagrees with ImmReplacesSrc", op)
		}
	}
	// Commutativity is observable: swapping operands leaves the result.
	a, b := []byte{1, 0x80, 7, 0xFF}, []byte{9, 3, 7, 0}
	for op := Op(0); op < OpScalar; op++ {
		if !op.Commutative() {
			continue
		}
		ab, ba := make([]byte, 4), make([]byte, 4)
		if err := Apply(op, ab, [][]byte{a, b}, 1, false, 0); err != nil {
			t.Fatal(err)
		}
		if err := Apply(op, ba, [][]byte{b, a}, 1, false, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab, ba) {
			t.Errorf("%v marked commutative: a∘b=%v b∘a=%v", op, ab, ba)
		}
	}
}
