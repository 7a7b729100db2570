// Command conduit-sim runs one workload under one execution policy on the
// simulated Conduit-capable SSD and prints timing, energy, offloading
// fractions, and tail latencies.
//
// Usage:
//
//	conduit-sim -workload aes -policy Conduit -scale 4
//	conduit-sim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	conduit "conduit"
	"conduit/internal/stats"
	"conduit/internal/workloads"
)

func main() {
	workload := flag.String("workload", "aes", "workload: aes, xor-filter, heat-3d, jacobi-1d, llama2-inference, llm-training")
	policy := flag.String("policy", "Conduit", "execution policy (see -list)")
	scale := flag.Int("scale", 2, "workload scale factor")
	list := flag.Bool("list", false, "list workloads and policies, then exit")
	flag.Parse()

	if *list {
		fmt.Println("workloads:")
		for _, name := range workloads.Names() {
			fmt.Printf("  %-18s (%s)\n", workloads.Canonical(name), name)
		}
		fmt.Println("policies: ", strings.Join(conduit.Policies(), ", "))
		fmt.Println("ablations:", strings.Join(conduit.AblationPolicies(), ", "))
		return
	}

	w, ok := workloads.Find(*workload, *scale)
	if !ok {
		fmt.Fprintf(os.Stderr, "conduit-sim: unknown workload %q (try -list)\n", *workload)
		os.Exit(2)
	}
	src := w.Source

	cfg := conduit.DefaultConfig()
	sys := conduit.NewSystem(cfg)
	c, err := conduit.Compile(src, &cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "conduit-sim: compile: %v\n", err)
		os.Exit(1)
	}
	res, err := sys.RunCompiled(c, *policy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "conduit-sim: run: %v\n", err)
		os.Exit(1)
	}

	t := stats.NewTable(fmt.Sprintf("%s under %s (scale %d)", src.Name, *policy, *scale),
		"metric", "value")
	t.AddRowf("instructions", len(c.Prog.Insts))
	t.AddRowf("vectorizable_%", c.Report.VectorizablePercent())
	t.AddRowf("elapsed", res.Elapsed)
	t.AddRowf("energy_J", fmt.Sprintf("%.3g", res.TotalEnergy()))
	t.AddRowf("movement_energy_share",
		res.MovementEnergy/nonzero(res.TotalEnergy()))
	if len(res.Decisions) > 0 {
		fr := conduit.Fractions(res.Decisions)
		t.AddRowf("frac_ISP", fr[0])
		t.AddRowf("frac_PuD", fr[1])
		t.AddRowf("frac_IFP", fr[2])
		t.AddRowf("offloader_overhead", res.OverheadTime)
	}
	t.AddRowf("p99_latency", res.InstLatencies.P99())
	t.AddRowf("p99.99_latency", res.InstLatencies.P9999())
	t.Render(os.Stdout)
}

func nonzero(f float64) float64 {
	if f == 0 {
		return 1
	}
	return f
}
