package conduit_test

import (
	"fmt"
	"log"

	"conduit"
)

// Example is the minimal end-to-end use: declare the data and the loops
// over it, Compile them into vector instructions, and run the program on
// a freshly deployed simulated drive under an offloading policy.
func Example() {
	const n = 4 * 16384 // four 16 KiB pages of INT8 lanes
	a, b := make([]byte, n), make([]byte, n)
	for i := range a {
		a[i], b[i] = byte(i), byte(i*7)
	}
	src := &conduit.Source{
		Name: "xor",
		Arrays: []*conduit.Array{
			{Name: "a", Elem: 1, Len: n, Input: true, Fill: conduit.Bytes(a)},
			{Name: "b", Elem: 1, Len: n, Input: true, Fill: conduit.Bytes(b)},
			{Name: "out", Elem: 1, Len: n},
		},
		Stmts: []conduit.Stmt{
			conduit.Loop{Name: "xor", N: n, Body: []conduit.Assign{
				{Target: "out", Value: conduit.Bin{Op: conduit.OpXor, X: conduit.Ref{Name: "a"}, Y: conduit.Ref{Name: "b"}}},
			}},
		},
	}
	cfg := conduit.DefaultConfig()
	compiled, err := conduit.Compile(src, &cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := conduit.NewSystem(cfg).RunCompiled(compiled, "Conduit")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d instructions in %v\n", res.Policy, len(res.Decisions), res.Elapsed)
	// Output: Conduit: 8 instructions in 111.77µs
}
