package main

import (
	"fmt"

	conduit "conduit"
	"conduit/internal/loadgen"
	"conduit/internal/offload"
	"conduit/internal/sim"
	"conduit/internal/workloads"
)

// kind selects how a workload's requests reach the program.
type kind int

const (
	kindServe kind = iota // in-process conduit.Server.Do
	kindFleet             // router.Router.Do over loopback TCP to two targets
	kindSweep             // Experiments.RunGrid on a fresh harness per call
)

// workload is one named traffic mix. Mix x Policies at Scale is its
// request space: the serving workloads draw their requests from it, and
// the trace pass replays it through the ladder.
type workload struct {
	Name     string
	Kind     kind
	Mix      []string
	Scale    int
	Policies []string
}

const tenantCount = 4

var (
	heavyMix      = []string{"AES", "LlaMA2 Inference", "LLM Training"}
	lightMix      = []string{"jacobi-1d", "XOR Filter", "heat-3d"}
	servePolicies = []string{"Conduit", "DM-Offloading", "BW-Offloading"}
)

// devicePolicies are the in-SSD policies in conduit.Policies order, with
// the constructor the ladder's innermost depth needs to call
// ssd.Device.Run directly. The host baselines and Ideal take no
// offload.Policy and are absent.
var devicePolicies = []struct {
	name string
	make func() offload.Policy
}{
	{"ISP", func() offload.Policy { return offload.ISPOnly{} }},
	{"PuD-SSD", func() offload.Policy { return offload.PuDSSD{} }},
	{"Flash-Cosmos", func() offload.Policy { return offload.FlashCosmos{} }},
	{"Ares-Flash", func() offload.Policy { return offload.AresFlash{} }},
	{"BW-Offloading", func() offload.Policy { return offload.BWOffloading{} }},
	{"DM-Offloading", func() offload.Policy { return offload.DMOffloading{} }},
	{"Conduit", func() offload.Policy { return offload.Conduit{} }},
}

func devicePolicy(name string) offload.Policy {
	for _, p := range devicePolicies {
		if p.name == name {
			return p.make()
		}
	}
	return nil
}

func devicePolicyNames() []string {
	names := make([]string, len(devicePolicies))
	for i, p := range devicePolicies {
		names[i] = p.name
	}
	return names
}

// suite names the six evaluated workloads in figure order.
var suite = func() []string {
	var names []string
	for _, w := range workloads.All(1) {
		names = append(names, w.Name)
	}
	return names
}()

// allWorkloads lists the benchmark's workloads in the order a round runs
// them; BENCHMARK.json and the README say why each exists.
func allWorkloads() []*workload {
	return []*workload{
		{
			Name:     "serve_heavy",
			Kind:     kindServe,
			Mix:      heavyMix,
			Scale:    2,
			Policies: servePolicies,
		},
		{
			Name:     "serve_light",
			Kind:     kindServe,
			Mix:      lightMix,
			Scale:    1,
			Policies: servePolicies,
		},
		{
			Name:     "fleet_light",
			Kind:     kindFleet,
			Mix:      lightMix,
			Scale:    1,
			Policies: servePolicies,
		},
		{
			Name:     "sweep_grid",
			Kind:     kindSweep,
			Mix:      suite,
			Scale:    1,
			Policies: devicePolicyNames(),
		},
	}
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range allWorkloads() {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// request is one generated serving request.
type request struct {
	Tenant   string
	Workload string
	Policy   string
}

// generator is client c's request stream for a workload: an RNG seeded
// with loadgen.Stream(seed, c) and nothing else. Requests come in blocks
// that hold every (workload, policy) pair of the request space exactly
// once in a shuffled order, so any whole number of blocks has the same
// composition under every seed and only the order differs — what keeps
// per-request cost comparable across seeds.
type generator struct {
	rng   *sim.RNG
	w     *workload
	block []request
	pos   int
}

func newGenerator(seed uint64, client int, w *workload) *generator {
	return &generator{rng: sim.NewRNG(loadgen.Stream(seed, uint64(client))), w: w}
}

// blockSize is the number of requests in one balanced block.
func (w *workload) blockSize() int { return len(w.Mix) * len(w.Policies) }

func (g *generator) next() request {
	if g.pos == len(g.block) {
		n := g.w.blockSize()
		g.block = g.block[:0]
		for _, i := range g.rng.Perm(n) {
			g.block = append(g.block, request{
				Workload: g.w.Mix[i/len(g.w.Policies)],
				Policy:   g.w.Policies[i%len(g.w.Policies)],
			})
		}
		g.pos = 0
	}
	r := g.block[g.pos]
	g.pos++
	r.Tenant = fmt.Sprintf("tenant-%02d", g.rng.Intn(tenantCount))
	return r
}

// take returns the next n requests.
func (g *generator) take(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// grid returns the row and column order of the next sweep_grid call: all
// six workloads by all ten policies, each permuted.
func (g *generator) grid() (rows, cols []string) {
	pols := conduit.Policies()
	for _, i := range g.rng.Perm(len(suite)) {
		rows = append(rows, suite[i])
	}
	for _, i := range g.rng.Perm(len(pols)) {
		cols = append(cols, pols[i])
	}
	return rows, cols
}
