package host

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"conduit/internal/compiler"
	"conduit/internal/config"
	"conduit/internal/energy"
	"conduit/internal/isa"
	"conduit/internal/sim"
	"conduit/internal/stats"
	"conduit/internal/workloads"
)

// pageSource serves explicit input pages the way Compiled.InputPage does.
func pageSource(pages map[isa.PageID][]byte) func(isa.PageID, []byte) bool {
	return func(p isa.PageID, dst []byte) bool {
		b, ok := pages[p]
		copy(dst, b)
		return ok
	}
}

func streamProg(t *testing.T, nPages int, op isa.Op) (*isa.Program, map[isa.PageID][]byte) {
	t.Helper()
	cfg := config.TestScale()
	ps := cfg.SSD.PageSize
	inputs := map[isa.PageID][]byte{}
	var ids []isa.PageID
	var insts []isa.Inst
	r := sim.NewRNG(11)
	for i := 0; i < nPages; i++ {
		p := make([]byte, ps)
		r.Bytes(p)
		inputs[isa.PageID(i)] = p
		ids = append(ids, isa.PageID(i))
	}
	for i := 0; i < nPages; i++ {
		insts = append(insts, isa.Inst{ID: int32(i), Op: op,
			Dst:  isa.PageID(nPages + i),
			Srcs: []isa.PageID{isa.PageID(i), isa.PageID((i + 1) % nPages)},
			Elem: 1, Lanes: int32(ps)})
	}
	prog := &isa.Program{Name: "stream", Pages: 2 * nPages, Insts: insts, InputPages: ids}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	return prog, inputs
}

func TestCPUFunctionalCorrectness(t *testing.T) {
	cfg := config.TestScale()
	prog, inputs := streamProg(t, 8, isa.OpAdd)
	m := New(&cfg, CPU)
	res, mem, err := m.Run(prog, pageSource(inputs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatal("CPU run must take time")
	}
	// Independent check of one output page.
	want := make([]byte, cfg.SSD.PageSize)
	if err := isa.Apply(isa.OpAdd, want, [][]byte{inputs[0], inputs[1]}, 1, false, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mem[isa.PageID(8)], want) {
		t.Fatal("CPU functional result wrong")
	}
}

func TestGPUFasterThanCPUOnParallelCompute(t *testing.T) {
	cfg := config.TestScale()
	prog, inputs := streamProg(t, 8, isa.OpMul)
	cpuRes, _, err := New(&cfg, CPU).Run(prog, pageSource(inputs))
	if err != nil {
		t.Fatal(err)
	}
	gpuRes, _, err := New(&cfg, GPU).Run(prog, pageSource(inputs))
	if err != nil {
		t.Fatal(err)
	}
	if gpuRes.Elapsed > cpuRes.Elapsed {
		t.Fatalf("GPU (%v) should not lose to CPU (%v) on data-parallel mul", gpuRes.Elapsed, cpuRes.Elapsed)
	}
}

func TestStreamingIsPCIeBound(t *testing.T) {
	// With a cold cache and no reuse, every operand crosses PCIe; the
	// movement share of the runtime must dominate compute on the GPU.
	cfg := config.TestScale()
	prog, inputs := streamProg(t, 16, isa.OpXor)
	res, _, err := New(&cfg, GPU).Run(prog, pageSource(inputs))
	if err != nil {
		t.Fatal(err)
	}
	if res.PCIeBytes == 0 {
		t.Fatal("cold-cache run must move data over PCIe")
	}
	if res.MovementEnergy <= 0 || res.ComputeEnergy <= 0 {
		t.Fatal("both energy components must be recorded")
	}
}

func TestCacheReuseReducesPCIeTraffic(t *testing.T) {
	cfg := config.TestScale()
	ps := cfg.SSD.PageSize
	// 3 input pages reused 32 times: with the destination they fit the
	// minimum cache, so only the first touches miss.
	inputs := map[isa.PageID][]byte{}
	var ids []isa.PageID
	for i := 0; i < 3; i++ {
		inputs[isa.PageID(i)] = make([]byte, ps)
		ids = append(ids, isa.PageID(i))
	}
	var insts []isa.Inst
	for i := 0; i < 32; i++ {
		insts = append(insts, isa.Inst{ID: int32(i), Op: isa.OpAdd, Dst: 3,
			Srcs: []isa.PageID{isa.PageID(i % 3), isa.PageID((i + 1) % 3)},
			Elem: 1, Lanes: int32(ps)})
	}
	prog := &isa.Program{Name: "reuse", Pages: 16, Insts: insts, InputPages: ids}
	reuse, _, err := New(&cfg, CPU).Run(prog, pageSource(inputs))
	if err != nil {
		t.Fatal(err)
	}
	stream, inputsS := streamProg(t, 32, isa.OpAdd)
	streamRes, _, err := New(&cfg, CPU).Run(stream, pageSource(inputsS))
	if err != nil {
		t.Fatal(err)
	}
	if reuse.PCIeBytes >= streamRes.PCIeBytes {
		t.Fatalf("high-reuse PCIe traffic (%d) should undercut streaming (%d)",
			reuse.PCIeBytes, streamRes.PCIeBytes)
	}
}

func TestScalarRegions(t *testing.T) {
	cfg := config.TestScale()
	prog := &isa.Program{Name: "scalar", Pages: 1, Insts: []isa.Inst{
		{ID: 0, Op: isa.OpScalar, Dst: isa.NoPage, ScalarCycles: 3200},
	}}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	cpuRes, _, err := New(&cfg, CPU).Run(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 3200 cycles at 3.2 GHz = 1 µs.
	if cpuRes.Elapsed != sim.Microsecond {
		t.Fatalf("CPU scalar = %v, want 1µs", cpuRes.Elapsed)
	}
	gpuRes, _, err := New(&cfg, GPU).Run(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gpuRes.Elapsed <= cpuRes.Elapsed {
		t.Fatal("GPU must pay a launch penalty on control regions")
	}
}

func TestKindString(t *testing.T) {
	if CPU.String() != "CPU" || GPU.String() != "GPU" {
		t.Fatal("kind names wrong")
	}
}

func TestGPUBenefitsFromHBMOnResidentData(t *testing.T) {
	// With data resident (high reuse, small set), the GPU's HBM term is
	// far below the CPU's host-DRAM term, so the GPU pulls ahead even on
	// bandwidth-bound single-cycle ops.
	cfg := config.TestScale()
	ps := cfg.SSD.PageSize
	inputs := map[isa.PageID][]byte{0: make([]byte, ps), 1: make([]byte, ps)}
	var insts []isa.Inst
	for i := 0; i < 64; i++ {
		insts = append(insts, isa.Inst{ID: int32(i), Op: isa.OpAdd, Dst: 2,
			Srcs: []isa.PageID{0, 1}, Elem: 1, Lanes: int32(ps)})
	}
	prog := &isa.Program{Name: "hot", Pages: 3, Insts: insts, InputPages: []isa.PageID{0, 1}}
	cpu, _, err := New(&cfg, CPU).Run(prog, pageSource(inputs))
	if err != nil {
		t.Fatal(err)
	}
	gpu, _, err := New(&cfg, GPU).Run(prog, pageSource(inputs))
	if err != nil {
		t.Fatal(err)
	}
	if gpu.Elapsed >= cpu.Elapsed {
		t.Fatalf("GPU on resident data (%v) should beat CPU (%v): HBM vs DDR4", gpu.Elapsed, cpu.Elapsed)
	}
}

func TestHostEnergyIsPowerTimesElapsed(t *testing.T) {
	cfg := config.TestScale()
	prog, inputs := streamProg(t, 8, isa.OpAdd)
	res, _, err := New(&cfg, CPU).Run(prog, pageSource(inputs))
	if err != nil {
		t.Fatal(err)
	}
	want := res.Elapsed.Seconds() * cfg.Host.CPUPowerWatts
	if diff := res.ComputeEnergy - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("CPU compute energy %v, want power x elapsed = %v", res.ComputeEnergy, want)
	}
}

// TestLatenciesOnDemandMatchEager: for the six workloads under CPU and
// GPU, the reservoir a timing-only run returns — which derives its samples
// only when queried — holds what an eagerly kept one did: the timing pass's
// per-instruction latencies, charged to an energy account, in program
// order, summing to Elapsed. So every percentile is the eager one.
func TestLatenciesOnDemandMatchEager(t *testing.T) {
	cfg := config.Default()
	cfg.SSD.TimingOnly = true
	for _, w := range workloads.All(1) {
		c, err := compiler.Compile(w.Source, cfg.SSD.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []Kind{CPU, GPU} {
			m := New(&cfg, kind)
			res, _, err := m.Run(c.Prog, c.InputPage)
			if err != nil {
				t.Fatal(err)
			}
			eager := make([]sim.Time, 0, len(c.Prog.Insts))
			cache, en := newPageLRU(c.Prog.Span(), cacheCapacity(c.Prog.Pages)), energy.NewAccount()
			var sum sim.Time
			for i := range c.Prog.Insts {
				lat, _ := m.instTime(&c.Prog.Insts[i], cache, en)
				eager, sum = append(eager, lat), sum+lat
			}
			if sum != res.Elapsed {
				t.Errorf("%s on %v: latencies sum to %v, Elapsed is %v", w.Name, kind, sum, res.Elapsed)
			}
			// Before any percentile query sorts either side in place.
			if got := stats.MergeReservoirs(res.InstLatencies); !reflect.DeepEqual(got, stats.ReservoirOf(slices.Clone(eager))) {
				t.Errorf("%s on %v: the reservoir's samples are not the eager ones in program order", w.Name, kind)
			}
			want := stats.ReservoirOf(eager)
			if res.InstLatencies.Count() != want.Count() || res.InstLatencies.Mean() != want.Mean() {
				t.Errorf("%s on %v: count and mean differ from the eager reservoir's", w.Name, kind)
			}
			for _, p := range []float64{0, 50, 90, 99, 99.99, 100} {
				if got, want := res.InstLatencies.Percentile(p), want.Percentile(p); got != want {
					t.Errorf("%s on %v: p%v is %v, eager %v", w.Name, kind, p, got, want)
				}
			}
		}
	}
}
