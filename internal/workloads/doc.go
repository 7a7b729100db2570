// Package workloads builds the six data-intensive applications the paper
// evaluates (§5.4, Table 3) as compiler sources: AES encryption, an XOR
// membership filter, the heat-3d and jacobi-1d polybench stencils, and
// INT8 LLaMA2-style inference and training. Each builder is parameterized
// by a scale factor so unit tests stay fast while benchmarks approach the
// paper's instruction-stream sizes (Fig. 10 analyzes a 12,000-instruction
// window of LLaMA2 inference).
//
// All workloads are INT8-quantized (§5.4: floating point is quantized to
// INT8 so the SSD computation resources can execute everything), and are
// sized so Characterize reproduces the qualitative structure of Table 3:
// AES is bitwise-dominated with high reuse; the XOR filter is barely
// vectorizable; the stencils vectorize almost fully with medium/high
// arithmetic; the LLM workloads mix multiplication-heavy attention with
// control regions.
//
// Each workload also carries shardability metadata (Partition) for the
// cluster layer: which arrays slice row-block-wise across a multi-device
// deployment and which are broadcast — replicated whole to every shard —
// the way the real application distributes (AES key schedules, XOR-filter
// probe banks, and transformer weights broadcast; data arrays partition).
//
// Datasets are declared, not built: every input array carries a
// compiler.Random filler with its own seed, so building a workload costs
// its structure alone, and a page's bytes exist only once a functional
// consumer asks for them (compiler.Compiled.InputPage). The timing-only
// stack never does.
package workloads
