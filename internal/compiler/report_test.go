package compiler

import "testing"

func TestScalarWorkCodeUnits(t *testing.T) {
	src := &Source{
		Name: "units",
		Arrays: []*Array{
			{Name: "x", Elem: 1, Len: testPage, Input: true},
		},
		Stmts: []Stmt{
			Loop{Name: "v", N: testPage, Body: []Assign{
				{Target: "x", Value: Bin{OpAdd, Ref{Name: "x"}, Lit{1}}},
			}},
			// Tiny runtime, but declared as a big share of the code.
			ScalarWork{Name: "ctl", Cycles: 100, CodeUnits: 6},
		},
	}
	c, err := Compile(src, testPage)
	if err != nil {
		t.Fatal(err)
	}
	// Vector work = 2 static ops (add + store); scalar = 6 units.
	if got := c.Report.VectorizablePercent(); got < 20 || got > 30 {
		t.Fatalf("vectorizable%% = %v, want 2/(2+6) = 25%%", got)
	}
	// Without CodeUnits the same cycles are nearly invisible statically.
	src.Stmts[1] = ScalarWork{Name: "ctl", Cycles: 100}
	c2, err := Compile(src, testPage)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Report.VectorizablePercent() <= c.Report.VectorizablePercent() {
		t.Fatal("estimated scalar units should be smaller than explicit CodeUnits here")
	}
}

func TestStaticWorkIndependentOfDataSize(t *testing.T) {
	build := func(n int) *Source {
		return &Source{
			Name: "sized",
			Arrays: []*Array{
				{Name: "x", Elem: 1, Len: n, Input: true},
			},
			Stmts: []Stmt{
				Loop{Name: "v", N: n, Body: []Assign{
					{Target: "x", Value: Bin{OpXor, Ref{Name: "x"}, Lit{1}}},
				}},
			},
		}
	}
	small, err := Compile(build(testPage), testPage)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Compile(build(8*testPage), testPage)
	if err != nil {
		t.Fatal(err)
	}
	// Table 3 characterizes code: the metric must not change with the
	// dataset size, even though the instruction count does.
	if small.Report.TotalWork != big.Report.TotalWork {
		t.Fatalf("static work changed with data size: %d vs %d",
			small.Report.TotalWork, big.Report.TotalWork)
	}
	if len(big.Prog.Insts) <= len(small.Prog.Insts) {
		t.Fatal("instruction count must scale with data size")
	}
}

func TestInterpretRejectsBadInput(t *testing.T) {
	src := &Source{
		Name:   "bad",
		Arrays: []*Array{{Name: "x", Elem: 1, Len: 8}},
	}
	if _, err := Interpret(src, 0); err == nil {
		t.Fatal("zero page size must fail")
	}
	src.Arrays = nil
	if _, err := Interpret(src, testPage); err == nil {
		t.Fatal("array-less source must fail")
	}
}

func TestTempPoolsAreChunkDisjoint(t *testing.T) {
	n := 4 * testPage // four chunks
	src := &Source{
		Name: "temps",
		Arrays: []*Array{
			{Name: "x", Elem: 1, Len: n, Input: true},
			{Name: "y", Elem: 1, Len: n},
		},
		Stmts: []Stmt{
			Loop{Name: "v", N: n, Body: []Assign{
				{Target: "y", Value: Bin{OpAdd,
					Bin{OpMul, Ref{Name: "x"}, Lit{3}},
					Bin{OpXor, Ref{Name: "x"}, Lit{9}}}},
			}},
		},
	}
	c, err := Compile(src, testPage)
	if err != nil {
		t.Fatal(err)
	}
	// Collect the temp pages used per chunk (loop iteration block) from
	// the emitted stream; no temp page may appear in two chunks.
	lastArray := c.ArrayPages("y")[len(c.ArrayPages("y"))-1]
	chunkOf := map[int]int{}
	chunk := 0
	for _, in := range c.Prog.Insts {
		if in.Dst > lastArray { // a temp page
			if prev, ok := chunkOf[int(in.Dst)]; ok && prev != chunk {
				t.Fatalf("temp page %d reused across chunks %d and %d", in.Dst, prev, chunk)
			}
			chunkOf[int(in.Dst)] = chunk
		}
		if in.Dst == c.ArrayPages("y")[min(chunk, len(c.ArrayPages("y"))-1)] {
			chunk++
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
