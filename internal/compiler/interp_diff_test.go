package compiler

import (
	"bytes"
	"testing"
	"testing/quick"

	"conduit/internal/sim"
	"conduit/internal/vecmath"
)

// interpretLaneSerial is the original lane-serial interpreter loop, built
// on the retained evalLane oracle. The block-vectorized Interpret must
// reproduce it bit for bit.
func interpretLaneSerial(t *testing.T, src *Source, pageSize int) map[string][]byte {
	t.Helper()
	if err := src.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	elem := src.Elem()
	lanes := pageSize / elem
	mem := make(map[string][]byte, len(src.Arrays))
	for _, a := range src.Arrays {
		blocks := (a.Len + lanes - 1) / lanes
		buf := make([]byte, blocks*pageSize)
		if a.Fill != nil {
			a.Fill(0, buf[:a.Len*a.Elem])
		}
		mem[a.Name] = buf
	}
	mask := vecmath.Mask(elem)
	for _, st := range src.Stmts {
		l, ok := st.(Loop)
		if !ok {
			continue
		}
		blocks := (l.N + lanes - 1) / lanes
		for b := 0; b < blocks; b++ {
			base := b * lanes
			for _, a := range l.Body {
				out := make([]uint64, lanes)
				for i := 0; i < lanes; i++ {
					v, err := evalLane(src, mem, a.Value, base, i, lanes, elem)
					if err != nil {
						t.Fatalf("evalLane: %v", err)
					}
					out[i] = v
				}
				tgt := mem[a.Target]
				if a.Reduce {
					var sum uint64
					for _, v := range out {
						sum += v
					}
					sum &= mask
					for i := 0; i < lanes; i++ {
						vecmath.Store(tgt, base+i, elem, sum)
					}
					continue
				}
				for i := 0; i < lanes; i++ {
					vecmath.Store(tgt, base+i, elem, out[i])
				}
			}
		}
	}
	return mem
}

func diffInterp(t *testing.T, src *Source, pageSize int) {
	t.Helper()
	got, err := Interpret(src, pageSize)
	if err != nil {
		t.Fatalf("Interpret: %v", err)
	}
	want := interpretLaneSerial(t, src, pageSize)
	for name, w := range want {
		if !bytes.Equal(got[name], w) {
			for i := range w {
				if got[name][i] != w[i] {
					t.Fatalf("array %q byte %d: vectorized %#02x != lane-serial %#02x",
						name, i, got[name][i], w[i])
				}
			}
		}
	}
}

// TestInterpretMatchesLaneReference drives the vectorized interpreter
// against the lane-serial oracle over every expression shape: literals,
// offset references (positive and negative), unary NOT, all binary
// operations including division by zero and variable shifts, nested
// conditionals, and reductions, at every element width.
func TestInterpretMatchesLaneReference(t *testing.T) {
	for _, elem := range []int{1, 2, 4} {
		n := 3*testPage/elem + 5 // odd tail block
		r := sim.NewRNG(uint64(elem))
		da := make([]byte, n*elem)
		db := make([]byte, n*elem)
		r.Bytes(da)
		r.Bytes(db)
		src := &Source{
			Name: "diff",
			Arrays: []*Array{
				{Name: "a", Elem: elem, Len: n, Input: true, Fill: Bytes(da)},
				{Name: "b", Elem: elem, Len: n, Input: true, Fill: Bytes(db)},
				{Name: "c", Elem: elem, Len: n},
				{Name: "d", Elem: elem, Len: n},
				{Name: "s", Elem: elem, Len: n},
			},
			Stmts: []Stmt{Loop{Name: "l", N: n, Body: []Assign{
				{Target: "c", Value: Bin{OpDiv, Ref{Name: "a"}, Ref{Name: "b"}}},
				{Target: "c", Value: Bin{OpShl, Ref{Name: "c"}, Bin{OpAnd, Ref{Name: "b"}, Lit{Value: 7}}}},
				{Target: "d", Value: Cond{
					Mask: Bin{OpLT, Ref{Name: "a", Offset: -3}, Ref{Name: "b", Offset: 2}},
					A:    Bin{OpMul, Ref{Name: "c"}, Lit{Value: 0x81}},
					B:    Un{Op: OpNot, X: Bin{OpMax, Ref{Name: "a"}, Ref{Name: "b"}}},
				}},
				{Target: "d", Value: Bin{OpShr, Ref{Name: "d"}, Lit{Value: 3}}},
				{Target: "s", Value: Bin{OpAdd, Ref{Name: "d"}, Ref{Name: "c"}}, Reduce: true},
			}}},
		}
		diffInterp(t, src, testPage)
	}
}

// TestInterpretQuickProperty fuzzes random expression trees over random
// inputs and element widths against the lane-serial oracle.
func TestInterpretQuickProperty(t *testing.T) {
	ops := []OpCode{OpAdd, OpSub, OpMul, OpDiv, OpAnd, OpOr, OpXor,
		OpShl, OpShr, OpLT, OpGT, OpEQ, OpMin, OpMax}
	f := func(seed uint64, o1, o2, o3 uint8, off int8, lit uint64, elemSel uint8, reduce bool) bool {
		elem := []int{1, 2, 4}[int(elemSel)%3]
		lanes := testPage / elem
		n := 2*lanes + lanes/2 // partial final block
		r := sim.NewRNG(seed)
		da := make([]byte, n*elem)
		db := make([]byte, n*elem)
		r.Bytes(da)
		r.Bytes(db)
		expr := Cond{
			Mask: Bin{ops[int(o3)%len(ops)], Ref{Name: "b", Offset: int(off % 5)}, Lit{Value: lit}},
			A:    Bin{ops[int(o1)%len(ops)], Ref{Name: "a", Offset: int(off % 11)}, Ref{Name: "b"}},
			B:    Bin{ops[int(o2)%len(ops)], Ref{Name: "a"}, Lit{Value: lit >> 3}},
		}
		src := &Source{
			Name: "quick",
			Arrays: []*Array{
				{Name: "a", Elem: elem, Len: n, Input: true, Fill: Bytes(da)},
				{Name: "b", Elem: elem, Len: n, Input: true, Fill: Bytes(db)},
				{Name: "c", Elem: elem, Len: n},
			},
			Stmts: []Stmt{Loop{Name: "l", N: n, Body: []Assign{
				{Target: "c", Value: expr, Reduce: reduce},
			}}},
		}
		got, err := Interpret(src, testPage)
		if err != nil {
			t.Logf("Interpret: %v", err)
			return false
		}
		want := interpretLaneSerial(t, src, testPage)
		return bytes.Equal(got["c"], want["c"])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
