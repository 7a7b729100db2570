// Quickstart: write a small data-parallel kernel as loop nests, let
// Conduit's compiler auto-vectorize it, and run it on the simulated SSD
// under the Conduit offloading policy — then compare against the host CPU.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	conduit "conduit"
)

func main() {
	const n = 8 * 16384 // eight 16 KiB pages of INT8 lanes

	// Application data: a table of scores and a bitmask of valid entries.
	scores := make([]byte, n)
	valid := make([]byte, n)
	for i := range scores {
		scores[i] = byte(i * 37)
		if i%3 != 0 {
			valid[i] = 0xFF
		}
	}

	// The application, written as plain loops over arrays — no Conduit
	// API beyond declaring the data. This is the programmer-transparency
	// claim: the same code shape an auto-vectorizer sees.
	src := &conduit.Source{
		Name: "quickstart",
		Arrays: []*conduit.Array{
			{Name: "scores", Elem: 1, Len: n, Input: true, Fill: conduit.Bytes(scores)},
			{Name: "valid", Elem: 1, Len: n, Input: true, Fill: conduit.Bytes(valid)},
			{Name: "boosted", Elem: 1, Len: n},
		},
		Stmts: []conduit.Stmt{
			// boosted[i] = valid[i] ? min(scores[i]*2+1, 200) : 0
			conduit.Loop{Name: "boost", N: n, Body: []conduit.Assign{
				{Target: "boosted", Value: conduit.Cond{
					Mask: conduit.Ref{Name: "valid"},
					A: conduit.Bin{Op: conduit.OpMin,
						X: conduit.Bin{Op: conduit.OpAdd,
							X: conduit.Bin{Op: conduit.OpMul, X: conduit.Ref{Name: "scores"}, Y: conduit.Lit{Value: 2}},
							Y: conduit.Lit{Value: 1}},
						Y: conduit.Lit{Value: 200}},
					B: conduit.Lit{Value: 0},
				}},
			}},
		},
	}

	cfg := conduit.DefaultConfig()
	compiled, err := conduit.Compile(src, &cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %d vector instructions (%.0f%% of the code vectorized)\n",
		len(compiled.Prog.Insts), compiled.Report.VectorizablePercent())

	sys := conduit.NewSystem(cfg)
	for _, policy := range []string{"CPU", "Conduit"} {
		res, err := sys.RunCompiled(compiled, policy)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s elapsed=%-10v energy=%.2gJ", policy, res.Elapsed, res.TotalEnergy())
		if len(res.Decisions) > 0 {
			fr := conduit.Fractions(res.Decisions)
			fmt.Printf("  offloaded: ISP %.0f%%  PuD-SSD %.0f%%  IFP %.0f%%",
				100*fr[0], 100*fr[1], 100*fr[2])
		}
		fmt.Println()
	}
}
