package compiler

import (
	"bytes"
	"testing"
	"testing/quick"

	"conduit/internal/isa"
	"conduit/internal/sim"
	"conduit/internal/vecmath"
)

const testPage = 256 // small pages keep tests fast

// irRun executes a compiled program with a functional map interpreter (the
// same semantics every device substrate implements).
func irRun(t *testing.T, c *Compiled) map[isa.PageID][]byte {
	t.Helper()
	mem := make(map[isa.PageID][]byte)
	load := func(p isa.PageID) []byte {
		if b, ok := mem[p]; ok {
			return b
		}
		b := make([]byte, c.pageSize)
		c.InputPage(p, b)
		mem[p] = b
		return b
	}
	for i := range c.Prog.Insts {
		in := &c.Prog.Insts[i]
		if in.Op == isa.OpScalar {
			continue
		}
		srcs := make([][]byte, 0, len(in.Srcs))
		for _, s := range in.Srcs {
			srcs = append(srcs, load(s))
		}
		out := make([]byte, c.pageSize)
		if err := isa.Apply(in.Op, out, srcs, int(in.Elem), in.UseImm, in.Imm); err != nil {
			t.Fatalf("ir inst %d (%v): %v", i, in.Op, err)
		}
		mem[in.Dst] = out
	}
	return mem
}

// checkEquivalence compiles src, runs both the scalar interpreter and the
// vectorized IR, and compares every array.
func checkEquivalence(t *testing.T, src *Source) *Compiled {
	t.Helper()
	c, err := Compile(src, testPage)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	want, err := Interpret(src, testPage)
	if err != nil {
		t.Fatalf("interpret: %v", err)
	}
	got := irRun(t, c)
	for _, a := range src.Arrays {
		pages := c.ArrayPages(a.Name)
		for i, p := range pages {
			gp, ok := got[p]
			if !ok {
				gp = make([]byte, testPage)
				c.InputPage(p, gp)
			}
			wp := want[a.Name][i*testPage : (i+1)*testPage]
			if !bytes.Equal(gp, wp) {
				t.Fatalf("array %q page %d: vectorized != scalar", a.Name, i)
			}
		}
	}
	return c
}

func bytesOf(vals []uint8) []byte { return append([]byte(nil), vals...) }

func seqData(n int, f func(i int) byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

func TestCompileSimpleElementwise(t *testing.T) {
	n := 3 * (testPage / 1) // three blocks of int8 lanes
	src := &Source{
		Name: "axpy",
		Arrays: []*Array{
			{Name: "a", Elem: 1, Len: n, Input: true, Fill: Bytes(seqData(n, func(i int) byte { return byte(i) }))},
			{Name: "b", Elem: 1, Len: n, Input: true, Fill: Bytes(seqData(n, func(i int) byte { return byte(3 * i) }))},
			{Name: "c", Elem: 1, Len: n},
		},
		Stmts: []Stmt{
			Loop{Name: "axpy", N: n, Body: []Assign{
				{Target: "c", Value: Bin{OpAdd, Bin{OpMul, Ref{Name: "a"}, Lit{2}}, Ref{Name: "b"}}},
			}},
		},
	}
	c := checkEquivalence(t, src)
	if got := c.Report.VectorizablePercent(); got != 100 {
		t.Errorf("vectorizable%% = %v, want 100", got)
	}
	// Immediate folding: the multiply by 2 must use an immediate, not a
	// broadcast temp.
	sawImmMul := false
	for _, in := range c.Prog.Insts {
		if in.Op == isa.OpMul && in.UseImm {
			sawImmMul = true
		}
	}
	if !sawImmMul {
		t.Error("literal multiplier should fold into an immediate operand")
	}
}

func TestStencilShufflesAndMatches(t *testing.T) {
	n := 2 * testPage
	src := &Source{
		Name: "jacobi-like",
		Arrays: []*Array{
			{Name: "x", Elem: 1, Len: n, Input: true, Fill: Bytes(seqData(n, func(i int) byte { return byte(i * 7) }))},
			{Name: "y", Elem: 1, Len: n},
		},
		Stmts: []Stmt{
			Loop{Name: "stencil", N: n, Body: []Assign{
				{Target: "y", Value: Bin{OpAdd,
					Bin{OpAdd, Ref{Name: "x", Offset: -1}, Ref{Name: "x"}},
					Ref{Name: "x", Offset: 1}}},
			}},
		},
	}
	c := checkEquivalence(t, src)
	shuffles := 0
	for _, in := range c.Prog.Insts {
		if in.Op == isa.OpShuffle {
			shuffles++
		}
	}
	if shuffles == 0 {
		t.Error("neighbor accesses must lower to shuffles")
	}
}

func TestPredicationLowersToSelect(t *testing.T) {
	n := testPage
	src := &Source{
		Name: "clamp",
		Arrays: []*Array{
			{Name: "x", Elem: 1, Len: n, Input: true, Fill: Bytes(seqData(n, func(i int) byte { return byte(i) }))},
			{Name: "y", Elem: 1, Len: n},
		},
		Stmts: []Stmt{
			Loop{Name: "clamp", N: n, Body: []Assign{
				{Target: "y", Value: Cond{
					Mask: Bin{OpGT, Ref{Name: "x"}, Lit{100}},
					A:    Lit{100},
					B:    Ref{Name: "x"},
				}},
			}},
		},
	}
	c := checkEquivalence(t, src)
	found := false
	for _, in := range c.Prog.Insts {
		if in.Op == isa.OpSelect {
			found = true
		}
	}
	if !found {
		t.Error("conditional must lower to a select")
	}
}

func TestReductionLowering(t *testing.T) {
	n := 2 * (testPage / 4)
	src := &Source{
		Name: "dot",
		Arrays: []*Array{
			{Name: "a", Elem: 4, Len: n, Input: true, Fill: Bytes(seqData(4*n, func(i int) byte { return byte(i % 5) }))},
			{Name: "b", Elem: 4, Len: n, Input: true, Fill: Bytes(seqData(4*n, func(i int) byte { return byte(i % 3) }))},
			{Name: "dot", Elem: 4, Len: n},
		},
		Stmts: []Stmt{
			Loop{Name: "dot", N: n, Body: []Assign{
				{Target: "dot", Reduce: true, Value: Bin{OpMul, Ref{Name: "a"}, Ref{Name: "b"}}},
			}},
		},
	}
	c := checkEquivalence(t, src)
	found := false
	for _, in := range c.Prog.Insts {
		if in.Op == isa.OpReduceAdd {
			found = true
		}
	}
	if !found {
		t.Error("reduction must lower to reduce_add")
	}
}

func TestLoopCarriedDependenceRejected(t *testing.T) {
	n := 2 * testPage
	src := &Source{
		Name: "prefix",
		Arrays: []*Array{
			{Name: "x", Elem: 1, Len: n, Input: true, Fill: Bytes(seqData(n, func(i int) byte { return byte(i) }))},
		},
		Stmts: []Stmt{
			// x[i] = x[i-1] + x[i]: classic recurrence.
			Loop{Name: "prefix", N: n, Body: []Assign{
				{Target: "x", Value: Bin{OpAdd, Ref{Name: "x", Offset: -1}, Ref{Name: "x"}}},
			}},
		},
	}
	c, err := Compile(src, testPage)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Report.Loops) != 1 || c.Report.Loops[0].Vectorized {
		t.Fatalf("recurrence must not vectorize: %+v", c.Report.Loops)
	}
	if c.Report.Loops[0].Reason == "" {
		t.Error("rejection must carry a reason (vectorization remark)")
	}
	// Every emitted data instruction must be marked un-vectorized.
	for _, in := range c.Prog.Insts {
		if in.Op != isa.OpScalar && !in.Meta.Unvectorized {
			t.Fatalf("inst %v from a scalar loop not marked un-vectorized", in.Op)
		}
	}
	if c.Report.VectorizablePercent() != 0 {
		t.Error("vectorizable%% must be 0")
	}
}

func TestForceScalarAndShortLoops(t *testing.T) {
	n := 4 * testPage
	src := &Source{
		Name: "mixed",
		Arrays: []*Array{
			{Name: "x", Elem: 1, Len: n, Input: true, Fill: Bytes(seqData(n, func(i int) byte { return byte(i) }))},
			{Name: "y", Elem: 1, Len: n},
		},
		Stmts: []Stmt{
			Loop{Name: "vec", N: n, Body: []Assign{
				{Target: "y", Value: Bin{OpXor, Ref{Name: "x"}, Lit{0xFF}}},
			}},
			Loop{Name: "forced", N: n, ForceScalar: true, Body: []Assign{
				{Target: "y", Value: Bin{OpAdd, Ref{Name: "y"}, Lit{1}}},
			}},
			Loop{Name: "short", N: 8, Body: []Assign{
				{Target: "y", Value: Bin{OpAdd, Ref{Name: "y"}, Lit{1}}},
			}},
			ScalarWork{Name: "bookkeeping", Cycles: 10000},
		},
	}
	c := checkEquivalence(t, src)
	if len(c.Report.Loops) != 3 {
		t.Fatalf("loop reports = %d", len(c.Report.Loops))
	}
	if !c.Report.Loops[0].Vectorized || c.Report.Loops[1].Vectorized || c.Report.Loops[2].Vectorized {
		t.Fatalf("vectorization outcomes wrong: %+v", c.Report.Loops)
	}
	pct := c.Report.VectorizablePercent()
	if pct <= 0 || pct >= 100 {
		t.Fatalf("mixed program vectorizable%% = %v, want strictly between 0 and 100", pct)
	}
	// The control region must appear as an OpScalar instruction.
	sawScalar := false
	for _, in := range c.Prog.Insts {
		if in.Op == isa.OpScalar {
			sawScalar = true
		}
	}
	if !sawScalar {
		t.Error("ScalarWork must lower to an OpScalar instruction")
	}
}

func TestCompileErrors(t *testing.T) {
	base := func() *Source {
		return &Source{
			Name: "bad",
			Arrays: []*Array{
				{Name: "x", Elem: 1, Len: testPage, Input: true},
				{Name: "short", Elem: 1, Len: 8},
			},
			Stmts: []Stmt{
				Loop{Name: "l", N: testPage, Body: []Assign{
					{Target: "x", Value: Bin{OpAdd, Ref{Name: "x"}, Lit{1}}},
				}},
			},
		}
	}
	// Loop over an array shorter than its range.
	s := base()
	s.Stmts = []Stmt{Loop{Name: "l", N: testPage, Body: []Assign{
		{Target: "short", Value: Bin{OpAdd, Ref{Name: "x"}, Lit{1}}},
	}}}
	if _, err := Compile(s, testPage); err == nil {
		t.Error("loop exceeding array bounds must fail")
	}
	// Undeclared array.
	s = base()
	s.Stmts = []Stmt{Loop{Name: "l", N: 8, Body: []Assign{
		{Target: "nope", Value: Lit{1}},
	}}}
	if _, err := Compile(s, testPage); err == nil {
		t.Error("undeclared target must fail")
	}
	// Mixed element sizes.
	s = base()
	s.Arrays = append(s.Arrays, &Array{Name: "wide", Elem: 4, Len: 8})
	if _, err := Compile(s, testPage); err == nil {
		t.Error("mixed element sizes must fail")
	}
	// Variable shift amount.
	s = base()
	s.Stmts = []Stmt{Loop{Name: "l", N: testPage, Body: []Assign{
		{Target: "x", Value: Bin{OpShl, Ref{Name: "x"}, Ref{Name: "x"}}},
	}}}
	if _, err := Compile(s, testPage); err == nil {
		t.Error("non-literal shift amount must fail")
	}
	// Bad page size.
	s = base()
	if _, err := Compile(s, 0); err == nil {
		t.Error("zero page size must fail")
	}
	// Initial data on an array that is not an input (it would start
	// zeroed regardless).
	s = base()
	s.Arrays[1].Fill = Random(1)
	if _, err := Compile(s, testPage); err == nil {
		t.Error("a filler on a non-input array must fail")
	}
	if _, err := Interpret(s, testPage); err == nil {
		t.Error("Interpret must refuse a filler on a non-input array")
	}
}

// Property: for random elementwise expressions over two arrays, the
// vectorized program matches the scalar interpreter bit-for-bit.
func TestVectorizerEquivalenceProperty(t *testing.T) {
	ops := []OpCode{OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpMin, OpMax, OpLT}
	f := func(seed uint64, o1, o2 uint8, off int8) bool {
		r := sim.NewRNG(seed)
		n := 2 * testPage
		da := make([]byte, n)
		db := make([]byte, n)
		r.Bytes(da)
		r.Bytes(db)
		src := &Source{
			Name: "prop",
			Arrays: []*Array{
				{Name: "a", Elem: 1, Len: n, Input: true, Fill: Bytes(da)},
				{Name: "b", Elem: 1, Len: n, Input: true, Fill: Bytes(db)},
				{Name: "c", Elem: 1, Len: n},
			},
			Stmts: []Stmt{Loop{Name: "l", N: n, Body: []Assign{
				{Target: "c", Value: Bin{
					ops[int(o1)%len(ops)],
					Bin{ops[int(o2)%len(ops)], Ref{Name: "a", Offset: int(off % 8)}, Ref{Name: "b"}},
					Ref{Name: "a"},
				}},
			}}},
		}
		c, err := Compile(src, testPage)
		if err != nil {
			return false
		}
		want, err := Interpret(src, testPage)
		if err != nil {
			return false
		}
		got := irRun(t, c)
		for i, p := range c.ArrayPages("c") {
			if !bytes.Equal(got[p], want["c"][i*testPage:(i+1)*testPage]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMetadataEmbedded(t *testing.T) {
	n := testPage
	src := &Source{
		Name: "meta",
		Arrays: []*Array{
			{Name: "x", Elem: 1, Len: n, Input: true, Fill: Bytes(seqData(n, func(i int) byte { return byte(i) }))},
			{Name: "y", Elem: 1, Len: n},
		},
		Stmts: []Stmt{Loop{Name: "l", N: n, Body: []Assign{
			{Target: "y", Value: Bin{OpMul, Ref{Name: "x"}, Ref{Name: "x"}}},
		}}},
	}
	c, err := Compile(src, testPage)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range c.Prog.Insts {
		if in.Op == isa.OpScalar {
			continue
		}
		if in.Meta.OperandFootprint == 0 {
			t.Fatalf("inst %v missing operand-size metadata", in.Op)
		}
		if in.Meta.Class != in.Op.Class() {
			t.Fatalf("inst %v metadata class mismatch", in.Op)
		}
		if in.Lanes != testPage || in.Elem != 1 {
			t.Fatalf("inst %v geometry wrong", in.Op)
		}
	}
	_ = vecmath.Mask // anchor import
}
