package workloads

import (
	"fmt"
	"strings"

	"conduit/internal/compiler"
	"conduit/internal/isa"
)

// Named couples a workload with its display name (figure row order).
type Named struct {
	Name   string
	Source *compiler.Source
}

// builders lists the evaluated workloads in the order the paper's figures
// present them, each paired with its source constructor.
var builders = []struct {
	name  string
	build func(scale int) *compiler.Source
}{
	{"AES", AES},
	{"XOR Filter", XORFilter},
	{"heat-3d", Heat3D},
	{"jacobi-1d", Jacobi1D},
	{"LlaMA2 Inference", LlamaInference},
	{"LLM Training", LLMTraining},
}

// All returns the six evaluated workloads at the given scale, in the order
// the paper's figures list them.
func All(scale int) []Named {
	out := make([]Named, 0, len(builders))
	for _, b := range builders {
		out = append(out, Named{b.name, b.build(scale)})
	}
	return out
}

// Names lists the six evaluated workloads' display names in figure order
// without building any of them.
func Names() []string {
	names := make([]string, len(builders))
	for i, b := range builders {
		names[i] = b.name
	}
	return names
}

// Canonical normalizes a workload name for command-line lookup: lowercase
// with spaces as dashes ("LlaMA2 Inference" -> "llama2-inference").
func Canonical(s string) string {
	return strings.ReplaceAll(strings.ToLower(s), " ", "-")
}

// index returns the position in builders of the workload whose name
// matches name under Canonical, or -1.
func index(name string) int {
	want := Canonical(name)
	for i, b := range builders {
		if Canonical(b.name) == want {
			return i
		}
	}
	return -1
}

// Find returns the evaluation workload whose name matches name under
// Canonical, built at the given scale. Only the matching workload's
// source is constructed.
func Find(name string, scale int) (Named, bool) {
	i := index(name)
	if i < 0 {
		return Named{}, false
	}
	return Named{builders[i].name, builders[i].build(scale)}, true
}

// Resolve turns a requested workload mix into the display names the
// serving stack registers and requests workloads under: each entry is
// matched under Canonical (surrounding space ignored, duplicates dropped,
// first mention wins the position), and an empty mix selects the whole
// evaluation suite in figure order. An unknown name is an error.
func Resolve(mix []string) ([]string, error) {
	if len(mix) == 0 {
		return Names(), nil
	}
	names, seen := []string(nil), make(map[int]bool)
	for _, raw := range mix {
		i := index(strings.TrimSpace(raw))
		if i < 0 {
			return nil, fmt.Errorf("unknown workload %q", raw)
		}
		if !seen[i] {
			seen[i] = true
			names = append(names, builders[i].name)
		}
	}
	return names, nil
}

// broadcastPrefixes records, per canonical workload name, the array-name
// prefixes that are *broadcast* when the workload is sharded across a
// multi-device cluster: replicated whole to every shard instead of sliced
// row-block-wise. The choice mirrors how each application distributes in
// practice — AES replicates the key schedule, the XOR filter replicates
// its probe banks (a shared lookup structure), and the transformer
// workloads replicate weights while sharding activations (classic data
// parallelism). Every array not matching a prefix partitions. The
// stencils have no broadcast state at all: both grids slice cleanly.
var broadcastPrefixes = map[string][]string{
	"aes":              {"rk"},
	"xor-filter":       {"bank"},
	"heat-3d":          nil,
	"jacobi-1d":        nil,
	"llama2-inference": {"wq_", "wk_", "wv_", "wo_", "wff_"},
	"llm-training":     {"wq_", "wk_", "wv_", "wo_", "wff_"},
}

// Partition returns the cluster-sharding predicate for the named workload
// (matched under Canonical): it reports whether a given array is
// partitionable — sliced row-block-wise across shards — as opposed to
// broadcast, replicated whole to every shard. Unknown workloads default
// to partitioning every array, which is exact for any kernel whose array
// references stay page-local (the compiler lowers Ref offsets to in-page
// rotations, so block-aligned slices compute the same bytes per page).
func Partition(name string) func(array string) bool {
	prefixes := broadcastPrefixes[Canonical(name)]
	return func(array string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(array, p) {
				return false
			}
		}
		return true
	}
}

// lanes is the INT8 vector width of one 16 KiB page.
const lanes = 16 << 10

func clampScale(scale int) int {
	if scale < 1 {
		return 1
	}
	return scale
}

// AES builds an AES-256-structured encryption kernel: 14 rounds of
// AddRoundKey (XOR), a bitsliced affine S-box approximation (AND/XOR/NOT/
// shift network — the lowering in-flash AES implementations use), and a
// MixColumns-style diffusion layer (xtime via shift+conditional XOR). The
// key schedule and block chaining run as a non-vectorized control loop,
// which keeps vectorization coverage near Table 3's 65%.
//
// State pages are reused every round, giving the high data reuse (≈15)
// that makes AES latch-friendly in flash.
func AES(scale int) *compiler.Source {
	scale = clampScale(scale)
	n := scale * 4 * lanes // plaintext lanes; footprint exceeds SSD DRAM (§5.4)
	const rounds = 14
	arrays := []*compiler.Array{
		{Name: "state", Elem: 1, Len: n, Input: true, Fill: compiler.Random(0xAE5)},
		{Name: "tmp", Elem: 1, Len: n},
	}
	for r := 0; r <= rounds; r++ {
		arrays = append(arrays, &compiler.Array{
			Name: keyName(r), Elem: 1, Len: n, Input: true,
			Fill: compiler.Random(0x6E7 + uint64(r)),
		})
	}
	var stmts []compiler.Stmt
	state := func() compiler.Ref { return compiler.Ref{Name: "state"} }
	// Initial whitening.
	stmts = append(stmts, compiler.Loop{Name: "whiten", N: n, Body: []compiler.Assign{
		{Target: "state", Value: compiler.Bin{Op: compiler.OpXor, X: state(), Y: compiler.Ref{Name: keyName(0)}}},
	}})
	for r := 1; r <= rounds; r++ {
		// Bitsliced affine S-box approximation: x ^= (x<<1 & 0xAA) ^ ~(x>>1).
		stmts = append(stmts, compiler.Loop{Name: fmt.Sprintf("sbox%d", r), N: n, Body: []compiler.Assign{
			{Target: "tmp", Value: compiler.Bin{Op: compiler.OpAnd,
				X: compiler.Bin{Op: compiler.OpShl, X: state(), Y: compiler.Lit{Value: 1}},
				Y: compiler.Lit{Value: 0xAA}}},
			{Target: "state", Value: compiler.Bin{Op: compiler.OpXor,
				X: compiler.Bin{Op: compiler.OpXor, X: state(), Y: compiler.Ref{Name: "tmp"}},
				Y: compiler.Un{Op: compiler.OpNot, X: compiler.Bin{Op: compiler.OpShr, X: state(), Y: compiler.Lit{Value: 1}}}}},
		}})
		if r < rounds {
			// MixColumns-style diffusion: xtime(x) = (x<<1) ^ (0x1B when
			// the high bit was set), merged with the round key.
			stmts = append(stmts, compiler.Loop{Name: fmt.Sprintf("mix%d", r), N: n, Body: []compiler.Assign{
				{Target: "tmp", Value: compiler.Cond{
					Mask: compiler.Bin{Op: compiler.OpAnd, X: state(), Y: compiler.Lit{Value: 0x80}},
					A:    compiler.Bin{Op: compiler.OpXor, X: compiler.Bin{Op: compiler.OpShl, X: state(), Y: compiler.Lit{Value: 1}}, Y: compiler.Lit{Value: 0x1B}},
					B:    compiler.Bin{Op: compiler.OpShl, X: state(), Y: compiler.Lit{Value: 1}},
				}},
				{Target: "state", Value: compiler.Bin{Op: compiler.OpXor,
					X: compiler.Bin{Op: compiler.OpXor, X: state(), Y: compiler.Ref{Name: "tmp"}},
					Y: compiler.Ref{Name: keyName(r)}}},
			}})
		} else {
			stmts = append(stmts, compiler.Loop{Name: "final", N: n, Body: []compiler.Assign{
				{Target: "state", Value: compiler.Bin{Op: compiler.OpXor, X: state(), Y: compiler.Ref{Name: keyName(r)}}},
			}})
		}
	}
	// Key schedule and block chaining: inherently sequential (each word
	// depends on the previous), so these loops never vectorize. They run
	// over the key material (a small fraction of the data), but as code
	// they are a third of the kernel — which is how Table 3's AES sits at
	// 65% vectorizable while the non-vectorized work stays modest.
	keyLanes := n / 16
	for r := 0; r < rounds; r++ {
		k := keyName(r)
		stmts = append(stmts, compiler.Loop{
			Name: fmt.Sprintf("keymix%d", r), N: keyLanes, ForceScalar: true,
			Body: []compiler.Assign{
				{Target: "tmp", Value: compiler.Bin{Op: compiler.OpAdd,
					X: compiler.Bin{Op: compiler.OpAdd, X: compiler.Ref{Name: k, Offset: -1}, Y: compiler.Ref{Name: k}},
					Y: compiler.Lit{Value: uint64(r + 1)}}},
				{Target: "tmp", Value: compiler.Bin{Op: compiler.OpAdd,
					X: compiler.Ref{Name: "tmp"}, Y: compiler.Ref{Name: keyName(r + 1)}}},
			}})
	}
	stmts = append(stmts, compiler.ScalarWork{Name: "block-chaining", Cycles: int64(n) / 8})
	return &compiler.Source{Name: "aes", Arrays: arrays, Stmts: stmts}
}

func keyName(r int) string { return fmt.Sprintf("rk%d", r) }

// XORFilter builds an XOR-filter membership structure and queries it:
// three multiplicative hashes locate filter slots whose XOR must equal the
// key fingerprint. The slot gathers are data-dependent random accesses, so
// the bulk of the work is a non-vectorizable probe loop (Table 3:
// 16% vectorizable, almost entirely medium-latency operations).
func XORFilter(scale int) *compiler.Source {
	scale = clampScale(scale)
	n := scale * 6 * lanes // streamed keys+banks exceed SSD DRAM (§5.4)
	arrays := []*compiler.Array{
		{Name: "keys", Elem: 1, Len: n, Input: true, Fill: compiler.Random(0xF117E2)},
		{Name: "fp", Elem: 1, Len: n},
		{Name: "member", Elem: 1, Len: n},
	}
	// Three filter banks, each probed at a hashed location.
	for b := 0; b < 3; b++ {
		arrays = append(arrays, &compiler.Array{
			Name: fmt.Sprintf("bank%d", b), Elem: 1, Len: n, Input: true,
			Fill: compiler.Random(0xBA7C + uint64(b)),
		})
	}
	stmts := []compiler.Stmt{
		// Fingerprint: one multiplicative hash (the only vector-friendly
		// phase — Table 3: 16% vectorizable).
		compiler.Loop{Name: "fingerprint", N: n, Body: []compiler.Assign{
			{Target: "fp", Value: compiler.Bin{Op: compiler.OpXor,
				X: compiler.Bin{Op: compiler.OpMul, X: compiler.Ref{Name: "keys"}, Y: compiler.Lit{Value: 0x9D}},
				Y: compiler.Bin{Op: compiler.OpShr, X: compiler.Ref{Name: "keys"}, Y: compiler.Lit{Value: 3}}}},
		}},
	}
	// Probe loops: gather-style slot accesses defeat vectorization; they
	// lower lane-serially, and their adds and equality tests are Table 3's
	// 98% medium-latency operations. Each bank is streamed twice — the
	// low (≈2) data reuse of the workload.
	for probe := 0; probe < 3; probe++ {
		bank := fmt.Sprintf("bank%d", probe)
		stmts = append(stmts, compiler.Loop{
			Name: fmt.Sprintf("probe%d", probe), N: n / 8, ForceScalar: true,
			Body: []compiler.Assign{
				{Target: "member", Value: compiler.Bin{Op: compiler.OpAdd,
					X: compiler.Ref{Name: "member"},
					Y: compiler.Bin{Op: compiler.OpEQ,
						X: compiler.Bin{Op: compiler.OpAdd,
							X: compiler.Ref{Name: bank, Offset: probe*61 + 1},
							Y: compiler.Bin{Op: compiler.OpAdd, X: compiler.Ref{Name: bank}, Y: compiler.Lit{Value: uint64(probe*37 + 1)}}},
						Y: compiler.Ref{Name: "fp"}}}},
			}})
	}
	stmts = append(stmts, compiler.ScalarWork{Name: "bucket-bookkeeping", Cycles: int64(n) / 8})
	return &compiler.Source{Name: "xor-filter", Arrays: arrays, Stmts: stmts}
}

// Heat3D is the polybench heat-3d stencil: each point mixes its six
// neighbors and itself with coefficient multiplies across time steps,
// INT8-quantized. Nearly everything vectorizes (Table 3: 95%); the op mix
// combines medium-latency adds/shuffles with high-latency multiplies, and
// grid pages are reused across time steps (reuse ≈ steps).
func Heat3D(scale int) *compiler.Source {
	scale = clampScale(scale)
	nx := 64 // lane stride between z-planes: kept inside one vector block
	n := scale * 2 * lanes
	steps := 8
	arrays := []*compiler.Array{
		{Name: "A", Elem: 1, Len: n, Input: true, Fill: compiler.Random(0x3EA7)},
		{Name: "B", Elem: 1, Len: n},
	}
	var stmts []compiler.Stmt
	mix := func(src string, dst string, step int) compiler.Stmt {
		s := func(off int) compiler.Expr { return compiler.Ref{Name: src, Offset: off} }
		return compiler.Loop{Name: fmt.Sprintf("step%d", step), N: n, Body: []compiler.Assign{
			{Target: dst, Value: compiler.Bin{Op: compiler.OpAdd,
				X: compiler.Bin{Op: compiler.OpMul, X: s(0), Y: compiler.Lit{Value: 3}},
				Y: compiler.Bin{Op: compiler.OpAdd,
					X: compiler.Bin{Op: compiler.OpMul,
						X: compiler.Bin{Op: compiler.OpAdd, X: s(-1), Y: s(1)},
						Y: compiler.Lit{Value: 5}},
					Y: compiler.Bin{Op: compiler.OpMul,
						X: compiler.Bin{Op: compiler.OpAdd,
							X: compiler.Bin{Op: compiler.OpAdd, X: s(-nx), Y: s(nx)},
							Y: compiler.Bin{Op: compiler.OpAdd, X: s(-nx * nx), Y: s(nx * nx)}},
						Y: compiler.Lit{Value: 7}}}}},
		}}
	}
	for t := 0; t < steps; t++ {
		if t%2 == 0 {
			stmts = append(stmts, mix("A", "B", t))
		} else {
			stmts = append(stmts, mix("B", "A", t))
		}
	}
	stmts = append(stmts, compiler.ScalarWork{Name: "boundary-conditions", Cycles: int64(n) / 64})
	return &compiler.Source{Name: "heat-3d", Arrays: arrays, Stmts: stmts}
}

// Jacobi1D is the polybench jacobi-1d solver: a three-point stencil with a
// relaxation multiply, ping-ponging between two vectors (Table 3: 95%
// vectorizable, reuse ≈ 3, one third high-latency multiplies).
func Jacobi1D(scale int) *compiler.Source {
	scale = clampScale(scale)
	n := scale * 2 * lanes
	steps := 3
	arrays := []*compiler.Array{
		{Name: "A", Elem: 1, Len: n, Input: true, Fill: compiler.Random(0x1ACB1)},
		{Name: "B", Elem: 1, Len: n},
	}
	var stmts []compiler.Stmt
	relax := func(src, dst string, step int) compiler.Stmt {
		s := func(off int) compiler.Expr { return compiler.Ref{Name: src, Offset: off} }
		return compiler.Loop{Name: fmt.Sprintf("sweep%d", step), N: n, Body: []compiler.Assign{
			{Target: dst, Value: compiler.Bin{Op: compiler.OpMul,
				X: compiler.Bin{Op: compiler.OpAdd,
					X: compiler.Bin{Op: compiler.OpAdd, X: s(-1), Y: s(0)},
					Y: s(1)},
				Y: compiler.Lit{Value: 85}}}, // ~1/3 in Q8 fixed point
		}}
	}
	for t := 0; t < steps; t++ {
		if t%2 == 0 {
			stmts = append(stmts, relax("A", "B", t))
		} else {
			stmts = append(stmts, relax("B", "A", t))
		}
	}
	stmts = append(stmts, compiler.ScalarWork{Name: "convergence-check", Cycles: int64(n) / 64})
	return &compiler.Source{Name: "jacobi-1d", Arrays: arrays, Stmts: stmts}
}

// llmConfig shapes the transformer kernels.
type llmConfig struct {
	layers  int
	dModel  int // lanes per activation page set
	weights int // weight pages streamed per projection
}

// LlamaInference is INT8 decode of a LLaMA2-style transformer: per layer,
// RMSNorm-approximation, Q/K/V projections (multiply-accumulate sweeps
// over streamed weight pages), attention scores with shuffles and a
// softmax approximation (max/sub/shift), and the FFN. Sampling and KV
// bookkeeping run as control regions. Weights are touched once per token
// (reuse ≈ 2, Table 3), and roughly half the operations are high-latency
// multiplies.
func LlamaInference(scale int) *compiler.Source {
	scale = clampScale(scale)
	cfg := llmConfig{layers: 2 * scale, dModel: 4 * lanes, weights: 3}
	return buildTransformer("llama2-inference", cfg, false)
}

// LLMTraining is the INT8 training counterpart: the forward pass plus
// backpropagated gradient accumulation and optimizer updates. The
// update-heavy phases push the op mix toward medium-latency adds and raise
// weight reuse (forward, backward, and update all touch each weight page).
func LLMTraining(scale int) *compiler.Source {
	scale = clampScale(scale)
	cfg := llmConfig{layers: 2 * scale, dModel: 4 * lanes, weights: 2}
	return buildTransformer("llm-training", cfg, true)
}

func buildTransformer(name string, cfg llmConfig, training bool) *compiler.Source {
	n := cfg.dModel
	arrays := []*compiler.Array{
		{Name: "x", Elem: 1, Len: n, Input: true, Fill: compiler.Random(0x11A)},
		{Name: "norm", Elem: 1, Len: n},
		{Name: "q", Elem: 1, Len: n},
		{Name: "k", Elem: 1, Len: n},
		{Name: "v", Elem: 1, Len: n},
		{Name: "score", Elem: 1, Len: n},
		{Name: "smax", Elem: 1, Len: n},
		{Name: "attn", Elem: 1, Len: n},
		{Name: "ffn", Elem: 1, Len: n},
	}
	if training {
		arrays = append(arrays,
			&compiler.Array{Name: "grad", Elem: 1, Len: n},
			&compiler.Array{Name: "m", Elem: 1, Len: n},
		)
	}
	for l := 0; l < cfg.layers; l++ {
		for w := 0; w < cfg.weights; w++ {
			for _, proj := range []string{"wq", "wk", "wv", "wo", "wff"} {
				arrays = append(arrays, &compiler.Array{
					Name: wName(proj, l, w),
					Elem: 1, Len: n, Input: true,
					Fill: compiler.Random(uint64(l*131+w*17) + hashName(proj)),
				})
			}
		}
	}

	var stmts []compiler.Stmt
	xr := compiler.Ref{Name: "x"}
	for l := 0; l < cfg.layers; l++ {
		// RMSNorm approximation: norm = (x + (x>>2)) (scale folding).
		stmts = append(stmts, compiler.Loop{Name: lName("rmsnorm", l), N: n, Body: []compiler.Assign{
			{Target: "norm", Value: compiler.Bin{Op: compiler.OpAdd, X: xr,
				Y: compiler.Bin{Op: compiler.OpShr, X: xr, Y: compiler.Lit{Value: 2}}}},
		}})
		// Q/K/V projections: multiply-accumulate over streamed weights.
		for _, proj := range []struct{ dst, w string }{{"q", "wq"}, {"k", "wk"}, {"v", "wv"}} {
			for w := 0; w < cfg.weights; w++ {
				acc := compiler.Expr(compiler.Bin{Op: compiler.OpMul,
					X: compiler.Ref{Name: "norm"}, Y: compiler.Ref{Name: wName(proj.w, l, w)}})
				if w > 0 {
					acc = compiler.Bin{Op: compiler.OpAdd, X: compiler.Ref{Name: proj.dst}, Y: acc}
				}
				stmts = append(stmts, compiler.Loop{Name: lName(proj.dst, l*10+w), N: n, Body: []compiler.Assign{
					{Target: proj.dst, Value: acc},
				}})
			}
		}
		// Attention scores: q x shifted k (head interleave via shuffle),
		// then a softmax approximation (max-subtract, shift as exp2).
		stmts = append(stmts, compiler.Loop{Name: lName("scores", l), N: n, Body: []compiler.Assign{
			{Target: "score", Value: compiler.Bin{Op: compiler.OpMul,
				X: compiler.Ref{Name: "q"},
				Y: compiler.Ref{Name: "k", Offset: 64}}},
		}})
		stmts = append(stmts, compiler.Loop{Name: lName("rowmax", l), N: n, Body: []compiler.Assign{
			{Target: "smax", Value: compiler.Bin{Op: compiler.OpMax,
				X: compiler.Ref{Name: "score"}, Y: compiler.Ref{Name: "score", Offset: 128}}},
		}})
		stmts = append(stmts, compiler.Loop{Name: lName("softmax", l), N: n, Body: []compiler.Assign{
			{Target: "score", Value: compiler.Bin{Op: compiler.OpSub,
				X: compiler.Ref{Name: "score"}, Y: compiler.Ref{Name: "smax"}}},
			{Target: "attn", Value: compiler.Bin{Op: compiler.OpMul,
				X: compiler.Bin{Op: compiler.OpShr, X: compiler.Ref{Name: "score"}, Y: compiler.Lit{Value: 4}},
				Y: compiler.Ref{Name: "v"}}},
		}})
		// Output projection + FFN.
		for w := 0; w < cfg.weights; w++ {
			stmts = append(stmts, compiler.Loop{Name: lName("ffn", l*10+w), N: n, Body: []compiler.Assign{
				{Target: "ffn", Value: compiler.Bin{Op: compiler.OpAdd,
					X: compiler.Bin{Op: compiler.OpMul, X: compiler.Ref{Name: "attn"}, Y: compiler.Ref{Name: wName("wo", l, w)}},
					Y: compiler.Bin{Op: compiler.OpMul, X: compiler.Ref{Name: "ffn"}, Y: compiler.Ref{Name: wName("wff", l, w)}}}},
			}})
		}
		// Residual.
		stmts = append(stmts, compiler.Loop{Name: lName("residual", l), N: n, Body: []compiler.Assign{
			{Target: "x", Value: compiler.Bin{Op: compiler.OpAdd, X: xr, Y: compiler.Ref{Name: "ffn"}}},
		}})
		if training {
			// Backward: gradient accumulation and optimizer update —
			// addition-dominated (Table 3: 88% medium).
			stmts = append(stmts, compiler.Loop{Name: lName("backward", l), N: n, Body: []compiler.Assign{
				{Target: "grad", Value: compiler.Bin{Op: compiler.OpAdd,
					X: compiler.Ref{Name: "grad"},
					Y: compiler.Bin{Op: compiler.OpAdd, X: compiler.Ref{Name: "ffn"}, Y: compiler.Ref{Name: "attn"}}}},
				{Target: "m", Value: compiler.Bin{Op: compiler.OpAdd,
					X: compiler.Ref{Name: "m"},
					Y: compiler.Bin{Op: compiler.OpShr, X: compiler.Ref{Name: "grad"}, Y: compiler.Lit{Value: 3}}}},
			}})
			for w := 0; w < cfg.weights; w++ {
				stmts = append(stmts, compiler.Loop{Name: lName("update", l*10+w), N: n, Body: []compiler.Assign{
					{Target: wName("wq", l, w), Value: compiler.Bin{Op: compiler.OpSub,
						X: compiler.Ref{Name: wName("wq", l, w)},
						Y: compiler.Bin{Op: compiler.OpShr, X: compiler.Ref{Name: "m"}, Y: compiler.Lit{Value: 5}}}},
					{Target: wName("wff", l, w), Value: compiler.Bin{Op: compiler.OpSub,
						X: compiler.Ref{Name: wName("wff", l, w)},
						Y: compiler.Bin{Op: compiler.OpShr, X: compiler.Ref{Name: "m"}, Y: compiler.Lit{Value: 5}}}},
				}})
			}
		}
		// KV-cache management / sampling control: little runtime, but a
		// substantial share of the code (Table 3: 70%/60% vectorizable).
		ctrl := int64(n) / 4
		units := int64(24)
		if training {
			ctrl = int64(n) / 2 // data loading + loss bookkeeping
			units = 48
		}
		stmts = append(stmts, compiler.ScalarWork{Name: lName("control", l), Cycles: ctrl, CodeUnits: units})
	}
	return &compiler.Source{Name: name, Arrays: arrays, Stmts: stmts}
}

func wName(kind string, layer, w int) string { return fmt.Sprintf("%s_%d_%d", kind, layer, w) }
func lName(kind string, i int) string        { return fmt.Sprintf("%s%d", kind, i) }

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// Characteristics summarizes a compiled workload the way Table 3 does.
type Characteristics struct {
	Name            string
	VectorizablePct float64
	AvgReuse        float64
	LowPct          float64 // bitwise/logical operations
	MediumPct       float64 // adds, predication, shuffles
	HighPct         float64 // multiplication and longer
	Instructions    int
}

// Characterize computes Table 3's workload characteristics from a
// compiled program: vectorization coverage from the compiler report,
// average data reuse (reads of each page version before it is overwritten),
// and the latency-band mix of the data-processing instructions.
func Characterize(name string, c *compiler.Compiled) Characteristics {
	ch := Characteristics{
		Name:            name,
		VectorizablePct: c.Report.VectorizablePercent(),
		Instructions:    len(c.Prog.Insts),
	}
	// Reuse: operations consuming each page before it is replaced —
	// approximated as total source reads over distinct pages read
	// (temporaries excluded: they are register-like, not data).
	pageReads := make(map[isa.PageID]int64)
	var bands [3]int64
	for i := range c.Prog.Insts {
		in := &c.Prog.Insts[i]
		if in.Op == isa.OpScalar {
			continue
		}
		for _, s := range in.Srcs() {
			pageReads[s]++
		}
		switch in.Op {
		case isa.OpCopy, isa.OpBroadcast:
			// Data movement, not computation: excluded from the op mix.
		default:
			bands[in.Op.Band()]++
		}
	}
	// Restrict to declared-array pages (drop the temp pool).
	var totalReads, distinct int64
	for _, arr := range c.ArrayNames() {
		for _, p := range c.ArrayPages(arr) {
			if r, ok := pageReads[p]; ok && r > 0 {
				totalReads += r
				distinct++
			}
		}
	}
	if distinct > 0 {
		ch.AvgReuse = float64(totalReads) / float64(distinct)
	}
	total := bands[0] + bands[1] + bands[2]
	if total > 0 {
		ch.LowPct = 100 * float64(bands[0]) / float64(total)
		ch.MediumPct = 100 * float64(bands[1]) / float64(total)
		ch.HighPct = 100 * float64(bands[2]) / float64(total)
	}
	return ch
}
