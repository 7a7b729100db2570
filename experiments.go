package conduit

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"conduit/internal/compiler"
	"conduit/internal/isa"
	"conduit/internal/serve"
	"conduit/internal/stats"
	"conduit/internal/workloads"
)

// Experiments regenerates every table and figure of the paper's
// motivation and evaluation sections (docs/REPRO.md "Figure / table index"
// has the per-experiment index). Runs are memoized, so figures sharing the same sweeps (Figs. 5,
// 7a, 7b, 9) execute each workload x policy pair once. Each workload is
// compiled and NVMe-deployed once; every policy run restores the
// post-deploy snapshot instead of re-driving the deploy path, and RunGrid
// executes whole workload x policy grids across a worker pool. A result is
// shared by every caller of its cell, so it carries no device: the cell's
// drive goes back to the workload's Deployment, which restores it for the
// next cell. All methods are safe for concurrent use.
type Experiments struct {
	sys     *System
	scale   int
	workers int

	// Memoization shares the serving layer's singleflight machinery
	// (internal/serve): concurrent callers of one cell share a single
	// execution and successes are cached for the harness lifetime.
	compiles serve.FlightGroup[string, *Compiled]   // by workload
	deploys  serve.FlightGroup[string, *Deployment] // by workload
	runs     serve.FlightGroup[cell, *RunResult]
}

// cell names one (workload, policy) run of the grid.
type cell struct{ workload, policy string }

// NewExperiments builds a harness at the given workload scale factor
// (1 = smoke-test sizes; larger approaches the paper's stream lengths).
func NewExperiments(cfg Config, scale int) *Experiments {
	if scale < 1 {
		scale = 1
	}
	return &Experiments{
		sys:     NewSystem(cfg),
		scale:   scale,
		workers: runtime.GOMAXPROCS(0),
	}
}

// NewReferenceExperiments builds the same harness on a functional
// reference system (NewReferenceSystem): every run computes real page
// payloads instead of eliding them. Figure outputs are required to be
// byte-identical to the timing-only harness — the golden identity tests
// enforce it — so this exists for those tests and for debugging, not
// for routine use.
func NewReferenceExperiments(cfg Config, scale int) *Experiments {
	e := NewExperiments(cfg, scale)
	e.sys = NewReferenceSystem(cfg)
	return e
}

// SetWorkers bounds the number of concurrent runs RunGrid (and the figure
// sweeps built on it) may execute. n < 1 selects GOMAXPROCS.
func (e *Experiments) SetWorkers(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	e.workers = n
}

// Workloads lists the six evaluated workload names in figure order.
func (e *Experiments) Workloads() []string { return workloads.Names() }

func (e *Experiments) compiled(workload string) (*Compiled, error) {
	c, _, err := e.compiles.Do(workload, func() (*Compiled, error) {
		w, ok := workloads.Find(workload, e.scale)
		if !ok {
			return nil, fmt.Errorf("conduit: unknown workload %q", workload)
		}
		return Compile(w.Source, &e.sys.cfg)
	})
	return c, err
}

// deployment returns workload's reusable post-deploy image, deploying at
// most once per workload.
func (e *Experiments) deployment(workload string) (*Deployment, error) {
	dep, _, err := e.deploys.Do(workload, func() (*Deployment, error) {
		c, err := e.compiled(workload)
		if err != nil {
			return nil, err
		}
		return e.sys.Deploy(c)
	})
	return dep, err
}

// Run executes (workload, policy), memoized. Concurrent callers of the
// same cell share one execution; distinct cells run independently.
func (e *Experiments) Run(workload, policy string) (*RunResult, error) {
	r, _, err := e.runs.Do(cell{workload, policy}, func() (*RunResult, error) {
		var r *RunResult
		var err error
		if p := lookupPolicy(policy); p.run == onHost {
			// Host baselines need no drive: run from the compiled program.
			var c *Compiled
			if c, err = e.compiled(workload); err == nil {
				r, err = e.sys.runHost(c, p)
			}
		} else {
			var dep *Deployment
			if dep, err = e.deployment(workload); err == nil {
				r, err = dep.runParked(p)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%s under %s: %w", workload, policy, err)
		}
		return r, nil
	})
	return r, err
}

// RunGrid executes every (workload, policy) cell of the grid across a
// pool of e.workers goroutines, memoizing each cell, and returns the
// results in workload-major order: out[i][j] is workloads[i] under
// policies[j]. Output ordering and values are deterministic — identical
// to running the same cells serially — because every cell executes on its
// own restored device and results are placed by index, not completion
// order. On failure the error of the first cell in grid order is
// returned.
func (e *Experiments) RunGrid(workloads, policies []string) ([][]*RunResult, error) {
	out := make([][]*RunResult, len(workloads))
	errs := make([][]error, len(workloads))
	for i := range workloads {
		out[i] = make([]*RunResult, len(policies))
		errs[i] = make([]error, len(policies))
	}
	type cell struct{ i, j int }
	jobs := make(chan cell)
	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				out[c.i][c.j], errs[c.i][c.j] = e.Run(workloads[c.i], policies[c.j])
			}
		}()
	}
	for i := range workloads {
		for j := range policies {
			jobs <- cell{i, j}
		}
	}
	close(jobs)
	wg.Wait()
	for i := range errs {
		for _, err := range errs[i] {
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Speedup reports workload's speedup under policy, normalized to CPU.
func (e *Experiments) Speedup(workload, policy string) (float64, error) {
	cpu, err := e.Run(workload, "CPU")
	if err != nil {
		return 0, err
	}
	r, err := e.Run(workload, policy)
	if err != nil {
		return 0, err
	}
	return float64(cpu.Elapsed) / float64(r.Elapsed), nil
}

// walkGrid fills the workloads x policies grid across the worker pool, then
// visits it one workload at a time in the order given — the deterministic
// order every figure emits its rows in. row[j] is the workload's run under
// policies[j].
func (e *Experiments) walkGrid(workloads, policies []string, visit func(w string, row []*RunResult)) error {
	grid, err := e.RunGrid(workloads, policies)
	if err != nil {
		return err
	}
	for i, w := range workloads {
		visit(w, grid[i])
	}
	return nil
}

// GridTable runs the full workload x policy grid through the concurrent
// sweep engine and reports every cell's end-to-end execution time — the
// raw material the individual figures slice.
func (e *Experiments) GridTable() (*Table, error) {
	ps := Policies()
	t := stats.NewTable("Grid: execution time (ms) per workload x policy", append([]string{"workload"}, ps...)...)
	err := e.walkGrid(e.Workloads(), ps, func(w string, row []*RunResult) {
		cells := []interface{}{w}
		for _, r := range row {
			cells = append(cells, float64(r.Elapsed)/1e6)
		}
		t.AddRowf(cells...)
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// --- Fig. 4: case study ------------------------------------------------------

// caseStudyClass builds the three §3.1 workload classes as sources.
func caseStudyClass(class string, scale int) *Source {
	n := scale * 16 * (16 << 10) // streaming-sized: exceeds host cache and SSD DRAM
	data := func(seed uint64) compiler.Fill {
		return func(off int, dst []byte) {
			for i := range dst {
				dst[i] = byte(uint64(off+i)*seed + seed)
			}
		}
	}
	switch class {
	case "I/O-Intensive":
		// Bitmap-scan style: bulk bitwise operations over streamed data.
		return &Source{
			Name: "io-intensive",
			Arrays: []*Array{
				{Name: "a", Elem: 1, Len: n, Input: true, Fill: data(3)},
				{Name: "b", Elem: 1, Len: n, Input: true, Fill: data(5)},
				{Name: "out", Elem: 1, Len: n},
			},
			Stmts: []compiler.Stmt{
				Loop{Name: "scan", N: n, Body: []Assign{
					{Target: "out", Value: Bin{Op: OpAnd, X: Ref{Name: "a"}, Y: Ref{Name: "b"}}},
					{Target: "out", Value: Bin{Op: OpOr, X: Ref{Name: "out"}, Y: Bin{Op: OpXor, X: Ref{Name: "a"}, Y: Ref{Name: "b"}}}},
				}},
			},
		}
	case "More Compute-Intensive":
		// Encryption/matmul style: multiply-heavy with reuse.
		src := &Source{
			Name: "compute-intensive",
			Arrays: []*Array{
				{Name: "x", Elem: 1, Len: n, Input: true, Fill: data(7)},
				{Name: "w", Elem: 1, Len: n, Input: true, Fill: data(11)},
				{Name: "acc", Elem: 1, Len: n},
			},
		}
		for k := 0; k < 6; k++ {
			src.Stmts = append(src.Stmts, Loop{Name: fmt.Sprintf("mac%d", k), N: n, Body: []Assign{
				{Target: "acc", Value: Bin{Op: OpAdd,
					X: Ref{Name: "acc"},
					Y: Bin{Op: OpMul, X: Ref{Name: "x"}, Y: Ref{Name: "w"}}}},
			}})
		}
		src.Stmts = append(src.Stmts, ScalarWork{Name: "control", Cycles: int64(n)})
		return src
	default: // "Mixed"
		// Aggregation/sort style: arithmetic plus predication plus
		// control.
		return &Source{
			Name: "mixed",
			Arrays: []*Array{
				{Name: "v", Elem: 1, Len: n, Input: true, Fill: data(13)},
				{Name: "k", Elem: 1, Len: n, Input: true, Fill: data(17)},
				{Name: "agg", Elem: 1, Len: n},
			},
			Stmts: []compiler.Stmt{
				Loop{Name: "filter", N: n, Body: []Assign{
					{Target: "agg", Value: Cond{
						Mask: Bin{Op: OpGT, X: Ref{Name: "k"}, Y: Lit{Value: 64}},
						A:    Bin{Op: OpAdd, X: Ref{Name: "agg"}, Y: Ref{Name: "v"}},
						B:    Ref{Name: "agg"},
					}},
				}},
				Loop{Name: "merge", N: n / 8, ForceScalar: true, Body: []Assign{
					{Target: "agg", Value: Bin{Op: OpAdd, X: Ref{Name: "agg"}, Y: Ref{Name: "k", Offset: 1}}},
				}},
				Loop{Name: "combine", N: n, Body: []Assign{
					{Target: "agg", Value: Bin{Op: OpXor, X: Ref{Name: "agg"}, Y: Bin{Op: OpAnd, X: Ref{Name: "v"}, Y: Ref{Name: "k"}}}},
				}},
			},
		}
	}
}

// Fig4 reproduces the §3.1 case study: OSP, ISP, IFP, and naive IFP+ISP
// execution time per workload class, normalized to OSP (lower is better).
// The movement column reports each run's data-movement energy share,
// standing in for the stacked breakdown of the original figure.
func (e *Experiments) Fig4() (*Table, error) {
	classes := []string{"I/O-Intensive", "More Compute-Intensive", "Mixed"}
	models := []string{"CPU", "ISP", "Ares-Flash", "IFP+ISP"}
	labels := []string{"OSP", "ISP", "IFP", "IFP+ISP"}
	t := stats.NewTable("Fig 4: case study — execution time normalized to OSP (lower is better)",
		"class", "model", "norm_time", "movement_share")
	for _, class := range classes {
		// One compile and one deploy per class (CPU runs from the program).
		c, err := Compile(caseStudyClass(class, e.scale), &e.sys.cfg)
		if err != nil {
			return nil, err
		}
		dep, err := e.sys.Deploy(c)
		if err != nil {
			return nil, err
		}
		var base float64
		for i, model := range models {
			r, err := dep.runParked(lookupPolicy(model))
			if err != nil {
				return nil, err
			}
			if i == 0 {
				base = float64(r.Elapsed)
			}
			share := 0.0
			if tot := r.TotalEnergy(); tot > 0 {
				share = r.MovementEnergy / tot
			}
			t.AddRowf(class, labels[i], float64(r.Elapsed)/base, share)
		}
	}
	return t, nil
}

// --- Fig. 5 / Fig. 7(a): speedups -------------------------------------------

// fig5Policies is the motivation-study lineup (§3.2, no Conduit).
var fig5Policies = []string{"GPU", "ISP", "PuD-SSD", "Flash-Cosmos", "Ares-Flash",
	"BW-Offloading", "DM-Offloading", "Ideal"}

// fig7Policies adds Conduit (§6.1).
var fig7Policies = []string{"GPU", "ISP", "PuD-SSD", "Flash-Cosmos", "Ares-Flash",
	"BW-Offloading", "DM-Offloading", "Conduit", "Ideal"}

func (e *Experiments) speedupTable(title string, policies []string) (*Table, error) {
	t := stats.NewTable(title, append([]string{"workload"}, policies...)...)
	geo := make([][]float64, len(policies))
	// Column 0 of the grid is the CPU baseline every speedup divides by.
	err := e.walkGrid(e.Workloads(), append([]string{"CPU"}, policies...), func(w string, row []*RunResult) {
		cells := []interface{}{w}
		for j, r := range row[1:] {
			s := float64(row[0].Elapsed) / float64(r.Elapsed)
			cells = append(cells, s)
			geo[j] = append(geo[j], s)
		}
		t.AddRowf(cells...)
	})
	if err != nil {
		return nil, err
	}
	cells := []interface{}{"GMEAN"}
	for j := range policies {
		cells = append(cells, stats.GeoMean(geo[j]))
	}
	t.AddRowf(cells...)
	return t, nil
}

// Fig5 reproduces the motivation study: speedup of the prior techniques
// and the Ideal policy over CPU (§3.2).
func (e *Experiments) Fig5() (*Table, error) {
	return e.speedupTable("Fig 5: speedup over CPU (motivation, prior techniques)", fig5Policies)
}

// Fig7a reproduces the main performance result: speedup over CPU with
// Conduit included (§6.1).
func (e *Experiments) Fig7a() (*Table, error) {
	return e.speedupTable("Fig 7(a): speedup over CPU", fig7Policies)
}

// --- Fig. 7(b): energy --------------------------------------------------------

// Fig7b reproduces the energy result: consumption normalized to CPU with
// the data-movement share of each bar (§6.2).
func (e *Experiments) Fig7b() (*Table, error) {
	policies := append([]string{"CPU"}, fig7Policies...)
	t := stats.NewTable("Fig 7(b): energy normalized to CPU (movement share in parentheses)",
		append([]string{"workload"}, policies...)...)
	err := e.walkGrid(e.Workloads(), policies, func(w string, row []*RunResult) {
		base := row[0].TotalEnergy()
		cells := []interface{}{w}
		for _, r := range row {
			tot := r.TotalEnergy()
			share := 0.0
			if tot > 0 {
				share = r.MovementEnergy / tot
			}
			cells = append(cells, fmt.Sprintf("%.3f (%.0f%%)", tot/base, 100*share))
		}
		t.AddRowf(cells...)
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// --- Fig. 8: tail latency -----------------------------------------------------

// Fig8 reproduces the tail-latency comparison: p99 and p99.99 per-request
// latencies of Ideal, Conduit, BW-Offloading, and DM-Offloading on LLaMA2
// inference and jacobi-1d (§6.3).
func (e *Experiments) Fig8() (*Table, error) {
	ps := []string{"Ideal", "Conduit", "BW-Offloading", "DM-Offloading"}
	t := stats.NewTable("Fig 8: tail latency (µs)",
		"workload", "policy", "p99_us", "p9999_us")
	err := e.walkGrid([]string{"LlaMA2 Inference", "jacobi-1d"}, ps, func(w string, row []*RunResult) {
		for j, r := range row {
			t.AddRowf(w, ps[j],
				float64(r.InstLatencies.P99())/1e3,
				float64(r.InstLatencies.P9999())/1e3)
		}
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// --- Fig. 9: offloading decisions --------------------------------------------

// Fig9 reproduces the resource-utilization breakdown: the fraction of
// instructions each policy offloads to ISP, PuD-SSD, and IFP (§6.4).
func (e *Experiments) Fig9() (*Table, error) {
	ps := []string{"BW-Offloading", "DM-Offloading", "Conduit", "Ideal"}
	t := stats.NewTable("Fig 9: fraction of instructions per computation resource",
		"workload", "policy", "ISP", "PuD-SSD", "IFP")
	err := e.walkGrid(e.Workloads(), ps, func(w string, row []*RunResult) {
		for j, r := range row {
			fr := Fractions(r.Decisions)
			t.AddRowf(w, ps[j], fr[isa.ResISP], fr[isa.ResPuD], fr[isa.ResIFP])
		}
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// --- Fig. 10: instruction-to-resource timeline --------------------------------

// Fig10 reproduces the execution-trace analysis: for a window of LLaMA2
// inference instructions, the operation stream and the resource each
// policy chose, rendered as per-bucket strips (I = ISP, P = PuD, F = IFP;
// the op strip shows the dominant operation class per bucket; 72 buckets
// per strip).
func (e *Experiments) Fig10(window int) (*Table, error) {
	const buckets = 72
	policies := []string{"BW-Offloading", "DM-Offloading", "Conduit"}
	t := stats.NewTable(
		fmt.Sprintf("Fig 10: LLaMA2 inference instruction->resource map (%d-instruction window)", window),
		"series", "strip")
	var opsRow string
	for i, p := range policies {
		r, err := e.Run("LlaMA2 Inference", p)
		if err != nil {
			return nil, err
		}
		ds := r.Decisions
		if window > 0 && len(ds) > window {
			ds = ds[:window]
		}
		if i == 0 {
			opsRow = opClassStrip(ds, buckets)
			t.AddRow("operations", opsRow)
		}
		t.AddRow(p, resourceStrip(ds, buckets))
	}
	return t, nil
}

// opClassStrip samples the instruction stream evenly and renders one
// glyph per sampled instruction's operation class: b=bitwise,
// a=arithmetic, p=predication, m=move/shuffle, r=reduction, c=control.
func opClassStrip(ds []Decision, samples int) string {
	if len(ds) == 0 {
		return ""
	}
	glyphs := map[isa.Class]byte{
		isa.ClassBitwise: 'b', isa.ClassArithmetic: 'a', isa.ClassPredication: 'p',
		isa.ClassMove: 'm', isa.ClassReduction: 'r', isa.ClassControl: 'c',
	}
	var b strings.Builder
	for i := 0; i < samples; i++ {
		b.WriteByte(glyphs[ds[i*len(ds)/samples].Op.Class()])
	}
	return b.String()
}

// resourceStrip samples the stream evenly and renders the chosen resource
// per sampled instruction, preserving the interleaving texture Fig. 10
// visualizes.
func resourceStrip(ds []Decision, samples int) string {
	if len(ds) == 0 {
		return ""
	}
	glyphs := [NumResources]byte{'I', 'P', 'F'}
	var b strings.Builder
	for i := 0; i < samples; i++ {
		b.WriteByte(glyphs[ds[i*len(ds)/samples].Resource])
	}
	return b.String()
}

// --- Table 3 -------------------------------------------------------------------

// Table3 reproduces the workload-characteristics table: vectorizable code
// percentage, average reuse, and the latency-band operation mix.
func (e *Experiments) Table3() (*Table, error) {
	t := stats.NewTable("Table 3: workload characteristics",
		"workload", "vectorizable_%", "avg_reuse", "low_%", "medium_%", "high_%", "instructions")
	for _, w := range e.Workloads() {
		c, err := e.compiled(w)
		if err != nil {
			return nil, err
		}
		ch := workloads.Characterize(w, c)
		t.AddRowf(ch.Name, ch.VectorizablePct, ch.AvgReuse, ch.LowPct, ch.MediumPct, ch.HighPct, ch.Instructions)
	}
	return t, nil
}

// --- §4.5 overheads --------------------------------------------------------------

// Overhead reproduces the runtime-overhead analysis: mean and max
// per-instruction offloader latency and the metadata storage footprint.
func (e *Experiments) Overhead() (*Table, error) {
	t := stats.NewTable("§4.5: Conduit runtime overheads",
		"workload", "mean_us_per_inst", "translation_table_bytes")
	tab := isa.BuildTranslationTable()
	for _, w := range e.Workloads() {
		r, err := e.Run(w, "Conduit")
		if err != nil {
			return nil, err
		}
		n := len(r.Decisions)
		if n == 0 {
			continue
		}
		t.AddRowf(w, float64(r.OverheadTime)/float64(n)/1e3, tab.SizeBytes())
	}
	return t, nil
}

// --- Ablations -------------------------------------------------------------------

// AblationCostFeatures quantifies each cost-function term by removing it
// (queueing delay, dependence delay, movement latency) on the two most
// contention-sensitive workloads.
func (e *Experiments) AblationCostFeatures() (*Table, error) {
	t := stats.NewTable("Ablation: cost-function features (speedup over CPU)",
		"workload", "Conduit", "no_queue", "no_dep", "no_move")
	for _, w := range []string{"heat-3d", "LlaMA2 Inference"} {
		row := []interface{}{w}
		for _, p := range []string{"Conduit", "Conduit-noqueue", "Conduit-nodep", "Conduit-nomove"} {
			s, err := e.Speedup(w, p)
			if err != nil {
				return nil, err
			}
			row = append(row, s)
		}
		t.AddRowf(row...)
	}
	return t, nil
}

// heat3dUnder compiles heat-3d for, and runs it under Conduit on, a system
// configured as the harness's with tweak applied: one point of a
// sensitivity sweep.
func (e *Experiments) heat3dUnder(tweak func(*Config)) (*Compiled, *RunResult, error) {
	cfg := e.sys.cfg
	tweak(&cfg)
	w, _ := workloads.Find("heat-3d", e.scale)
	c, err := Compile(w.Source, &cfg)
	if err != nil {
		return nil, nil, err
	}
	r, err := NewSystem(cfg).RunCompiled(c, "Conduit")
	return c, r, err
}

// AblationVectorWidth sweeps the vector width — equivalently the page
// size the compiler aligns vectors to (the paper's
// -force-vector-width=4096 maps one 16 KiB page; §4.3.1) — under Conduit
// on heat-3d. Wider vectors amortize the per-instruction offloading
// overhead; narrower ones expose more scheduling freedom.
func (e *Experiments) AblationVectorWidth() (*Table, error) {
	t := stats.NewTable("Ablation: vector width / page size (Conduit on heat-3d)",
		"page_KiB", "lanes_int8", "instructions", "elapsed_ms")
	for _, kib := range []int{4, 8, 16, 32} {
		c, r, err := e.heat3dUnder(func(cfg *Config) { cfg.SSD.PageSize = kib << 10 })
		if err != nil {
			return nil, err
		}
		t.AddRowf(kib, kib<<10, len(c.Prog.Insts), float64(r.Elapsed)/1e6)
	}
	return t, nil
}

// --- Cluster scaling ---------------------------------------------------------

// ShardCounts expands a maximum shard count into the sweep points the
// scaling experiment visits: powers of two up to max, plus max itself.
func ShardCounts(maxShards int) []int {
	if maxShards < 1 {
		maxShards = 1
	}
	var out []int
	for n := 1; n < maxShards; n *= 2 {
		out = append(out, n)
	}
	return append(out, maxShards)
}

// ClusterScaling sweeps each evaluation workload across multi-device
// cluster sizes under Conduit: one row per (workload, shards)
// point with the merged elapsed time, the scale-out speedup against the
// same workload's 1-shard cluster (byte-identical to a single device),
// total energy, and the partition shape (partitioned/broadcast array
// counts). Shard counts are normalized first — sorted, deduplicated,
// and the 1-shard baseline added if absent — so the speedup column
// always has its denominator. Shard counts a workload cannot reach —
// more shards than it has vector blocks — are skipped rather than
// failed, so one sweep serves workloads of different footprints. With
// -csv this is the scale-out scaling curve as data.
func (e *Experiments) ClusterScaling(shardCounts []int) (*Table, error) {
	const policy = "Conduit"
	counts := map[int]bool{1: true}
	for _, n := range shardCounts {
		if n > 1 {
			counts[n] = true
		}
	}
	shardCounts = make([]int, 0, len(counts))
	for n := range counts {
		shardCounts = append(shardCounts, n)
	}
	sort.Ints(shardCounts)
	t := stats.NewTable(
		fmt.Sprintf("Cluster scaling: %s across multi-device shards", policy),
		"workload", "shards", "elapsed_ms", "speedup_vs_1shard", "energy_j", "partitioned", "broadcast")
	for _, w := range workloads.All(e.scale) {
		var base float64
		for _, n := range shardCounts {
			cl, err := e.sys.DeployCluster(w.Source, ClusterOptions{Shards: n})
			if errors.Is(err, ErrTooManyShards) {
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("%s at %d shards: %w", w.Name, n, err)
			}
			r, err := cl.Run(policy)
			cl.Close()
			if err != nil {
				return nil, fmt.Errorf("%s at %d shards: %w", w.Name, n, err)
			}
			if n == 1 {
				base = float64(r.Elapsed)
			}
			speedup := 0.0
			if base > 0 {
				speedup = base / float64(r.Elapsed)
			}
			plan := cl.Plan()
			t.AddRowf(w.Name, n, float64(r.Elapsed)/1e6, speedup, r.TotalEnergy(),
				len(plan.Partitioned), len(plan.Broadcast))
		}
	}
	return t, nil
}

// AblationChannels sweeps the flash channel count under Conduit on
// heat-3d, showing sensitivity to internal parallelism.
func (e *Experiments) AblationChannels() (*Table, error) {
	t := stats.NewTable("Ablation: flash channels (Conduit on heat-3d)",
		"channels", "elapsed_ms")
	for _, ch := range []int{2, 4, 8, 16} {
		_, r, err := e.heat3dUnder(func(cfg *Config) { cfg.SSD.Channels = ch })
		if err != nil {
			return nil, err
		}
		t.AddRowf(ch, float64(r.Elapsed)/1e6)
	}
	return t, nil
}
