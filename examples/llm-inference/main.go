// LLM inference example: the INT8 LLaMA2-style decode workload whose
// execution trace the paper dissects in §6.5/Fig. 10. This example runs it
// under the three dynamic offloading policies and renders the
// instruction-to-resource strips, showing how Conduit routes
// multiplication-heavy attention phases differently from the priors.
//
//	go run ./examples/llm-inference
package main

import (
	"fmt"
	"log"

	conduit "conduit"
)

func main() {
	e := conduit.NewExperiments(conduit.DefaultConfig(), 2)

	fmt.Println("running LLaMA2 inference under BW-Offloading, DM-Offloading, Conduit...")
	tab, err := e.Fig10(6000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(tab)
	fmt.Println("strip legend: I = ISP core, P = PuD-SSD, F = in-flash;")
	fmt.Println("op strip:     a = arithmetic, b = bitwise, p = predication, m = move, c = control")

	fmt.Println()
	for _, p := range []string{"CPU", "GPU", "DM-Offloading", "Conduit"} {
		r, err := e.Run("LlaMA2 Inference", p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-15s elapsed=%-10v p99=%-10v p99.99=%v\n",
			p, r.Elapsed, r.InstLatencies.P99(), r.InstLatencies.P9999())
	}
}
