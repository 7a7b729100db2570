package compiler

import (
	"testing"
)

// TestArrayNamesStableAcrossCompiles pins the symbol-table ordering that
// every report path inherits: ArrayNames must come back in the same
// (page-layout) order on every fresh compile, even though the symbol
// table itself is a map. Without the explicit sort this fails within a
// handful of iterations — Go randomizes map iteration per loop.
func TestArrayNamesStableAcrossCompiles(t *testing.T) {
	build := func() *Source {
		n := testPage
		arrays := []*Array{
			{Name: "in0", Elem: 1, Len: n, Input: true, Fill: Bytes(seqData(n, func(i int) byte { return byte(i) }))},
			{Name: "zz", Elem: 1, Len: n, Input: true, Fill: Bytes(seqData(n, func(i int) byte { return byte(2 * i) }))},
			{Name: "mid", Elem: 1, Len: n},
			{Name: "aa", Elem: 1, Len: n},
			{Name: "out", Elem: 1, Len: n},
		}
		return &Source{
			Name:   "order-probe",
			Arrays: arrays,
			Stmts: []Stmt{
				Loop{Name: "l0", N: n, Body: []Assign{
					{Target: "mid", Value: Bin{OpAdd, Ref{Name: "in0"}, Ref{Name: "zz"}}},
					{Target: "aa", Value: Bin{OpMul, Ref{Name: "mid"}, Lit{3}}},
					{Target: "out", Value: Bin{OpXor, Ref{Name: "aa"}, Ref{Name: "in0"}}},
				}},
			},
		}
	}
	first, err := Compile(build(), testPage)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	want := first.ArrayNames()
	if len(want) != 5 {
		t.Fatalf("ArrayNames = %v, want 5 names", want)
	}
	for run := 0; run < 20; run++ {
		c, err := Compile(build(), testPage)
		if err != nil {
			t.Fatalf("compile %d: %v", run, err)
		}
		got := c.ArrayNames()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d: ArrayNames = %v, want %v (order drifted)", run, got, want)
			}
		}
		// The documented contract, not just run-to-run agreement: names
		// are ordered by their first backing page.
		for i := 1; i < len(got); i++ {
			if c.arrays[got[i-1]][0] >= c.arrays[got[i]][0] {
				t.Fatalf("run %d: %q (page %d) not before %q (page %d)",
					run, got[i-1], c.arrays[got[i-1]][0], got[i], c.arrays[got[i]][0])
			}
		}
	}
}
