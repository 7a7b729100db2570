package host

import (
	"fmt"

	"conduit/internal/arena"
	"conduit/internal/config"
	"conduit/internal/energy"
	"conduit/internal/isa"
	"conduit/internal/sim"
	"conduit/internal/stats"
)

// Kind selects the OSP engine.
type Kind uint8

// Host engines.
const (
	CPU Kind = iota
	GPU
)

// String names the engine.
func (k Kind) String() string {
	if k == CPU {
		return "CPU"
	}
	return "GPU"
}

// kernelLaunchOverhead is the per-offload-region launch cost on the GPU.
const kernelLaunchOverhead = 5 * sim.Microsecond

// Result is the outcome of an OSP run.
type Result struct {
	Kind           Kind
	Elapsed        sim.Time
	ComputeEnergy  float64
	MovementEnergy float64
	PCIeBytes      int64
	InstLatencies  *stats.Reservoir
}

// Model is a functional + timed OSP engine.
type Model struct {
	cfg  *config.Config
	kind Kind
}

// New returns an OSP model of the given kind.
func New(cfg *config.Config, kind Kind) *Model {
	return &Model{cfg: cfg, kind: kind}
}

// computeTime is the pure compute term of the roofline for one vector
// instruction.
func (m *Model) computeTime(inst *isa.Inst) sim.Time {
	h := &m.cfg.Host
	if inst.Op == isa.OpScalar {
		// Control regions run on the CPU in either case; GPU execution
		// additionally pays a kernel-boundary overhead.
		t := sim.Time(float64(inst.ScalarCycles) / h.CPUClockHz * 1e9)
		if m.kind == GPU {
			t += kernelLaunchOverhead
		}
		return t
	}
	if inst.Meta.Unvectorized {
		// Loops the vectorizer rejected run lane-serially on the host
		// CPU too (the dependence is a property of the code, not the
		// machine); GPU execution falls back through the host core.
		t := sim.Time(float64(int64(inst.Lanes)*isa.ScalarCyclesPerLane) / h.CPUClockHz * 1e9)
		if m.kind == GPU {
			t += kernelLaunchOverhead
		}
		return t
	}
	// The ISP cores' per-beat costs, so op-mix effects carry through to
	// the host models.
	beat := float64(inst.Op.BeatCycles())
	switch m.kind {
	case CPU:
		bytes := float64(inst.VectorBytes())
		perSec := float64(h.CPUCores*h.CPUSIMDBytes) * h.CPUClockHz
		return sim.Time(bytes * beat / perSec * 1e9)
	default:
		lanes := float64(inst.Lanes)
		perSec := float64(h.GPUSMs*h.GPULanesPerSM) * h.GPUClockHz
		return sim.Time(lanes*beat/perSec*1e9) + kernelLaunchOverhead/16
	}
}

// cacheCapacity is the host page cache's size for a program addressing
// pages pages (isa.Program.Pages, the compiler's temporary pool
// included). The paper sizes workload footprints to exceed memory
// capacity (§5.4), so only a small fraction of the dataset is ever
// resident; we model host DRAM as holding 1/16 of the addressed pages,
// preserving that pressure at simulation scale.
func cacheCapacity(pages int) int {
	return max(pages/16, 4)
}

// pageLRU is the host page cache: an exact least-recently-used set over
// the dense page space [0, pages), pages being the program's span (Run
// sizes its capacity by Pages, its arrays by the pages a run can touch).
// Resident pages are nodes of a circular doubly linked list threaded
// through two index slices, most recently used first, with a sentinel at
// index pages, so a hit, a miss and an eviction each cost O(1).
type pageLRU struct {
	prev, next []int32
	resident   []bool
	n, cap     int
}

func newPageLRU(pages, capacity int) *pageLRU {
	c := &pageLRU{prev: make([]int32, pages+1), next: make([]int32, pages+1), resident: make([]bool, pages), cap: capacity}
	c.prev[pages], c.next[pages] = int32(pages), int32(pages)
	return c
}

// touch records a use of p and reports whether p was resident. A miss on
// a full cache first evicts the least recently used page and returns it as
// victim; otherwise victim is isa.NoPage.
func (c *pageLRU) touch(p isa.PageID) (hit bool, victim isa.PageID) {
	victim = isa.NoPage
	if hit = c.resident[p]; hit {
		c.unlink(int32(p))
	} else if c.n >= c.cap {
		victim = isa.PageID(c.prev[len(c.resident)])
		c.unlink(int32(victim))
		c.resident[victim] = false
	} else {
		c.n++
	}
	c.resident[p] = true
	c.pushFront(int32(p))
	return hit, victim
}

func (c *pageLRU) unlink(i int32) {
	c.next[c.prev[i]] = c.next[i]
	c.prev[c.next[i]] = c.prev[i]
}

func (c *pageLRU) pushFront(i int32) {
	s := int32(len(c.resident))
	c.prev[i], c.next[i] = s, c.next[s]
	c.prev[c.next[s]] = i
	c.next[s] = i
}

// Run executes prog on the host, streaming pages from the SSD on demand.
// The functional pass reads an input page's initial bytes through inputs,
// which writes them into a page-sized dst and reports whether the page is
// an input (compiler.Compiled.InputPage); pages it declines read as zero.
// The result's reservoir replays the timing pass when first queried, so m's
// configuration and prog must not change while it may be.
func (m *Model) Run(prog *isa.Program, inputs func(p isa.PageID, dst []byte) bool) (*Result, map[isa.PageID][]byte, error) {
	if err := prog.Validate(); err != nil {
		return nil, nil, err
	}
	cfg := &m.cfg.SSD
	h := &m.cfg.Host
	en := energy.NewAccount()

	span := prog.Span()
	cache := newPageLRU(span, cacheCapacity(prog.Pages))

	// Page buffers are run-local: every mem payload is allocated by this
	// run (inputs are generated into it), so a payload replaced by a later
	// write to the same page is dead and goes back to the pool. Timing-only
	// runs skip the functional pass entirely; every latency above and
	// below is data-independent, so the Result is unchanged.
	var pool *arena.Pool
	var mem map[isa.PageID][]byte
	if !cfg.TimingOnly {
		pool = arena.New(cfg.PageSize)
		mem = make(map[isa.PageID][]byte, span)
	}
	load := func(p isa.PageID) []byte {
		if b, ok := mem[p]; ok {
			return b
		}
		b := pool.Get()
		if !inputs(p, b) {
			clear(b)
		}
		mem[p] = b
		return b
	}

	var elapsed sim.Time
	var pcieBytes int64
	var srcs [][]byte // reused operand-pointer scratch
	for i := range prog.Insts {
		inst := &prog.Insts[i]
		t, faults := m.instTime(inst, cache, en)
		elapsed += t
		pcieBytes += int64(faults) * int64(cfg.PageSize)

		// Functional execution for verification.
		if !cfg.TimingOnly && inst.Op != isa.OpScalar && inst.Dst != isa.NoPage {
			srcs = srcs[:0]
			for _, s := range inst.Srcs {
				srcs = append(srcs, load(s))
			}
			out := pool.Get() // fully overwritten by Apply
			if err := isa.Apply(inst.Op, out, srcs, int(inst.Elem), inst.UseImm, inst.Imm); err != nil {
				return nil, nil, fmt.Errorf("host: inst %d: %w", i, err)
			}
			if old, ok := mem[inst.Dst]; ok {
				pool.Put(old) // replaced value is dead (reads above are done)
			}
			mem[inst.Dst] = out
		}
	}
	// The host burns package/board power for the whole run, stalled or
	// not — which is why OSP loses the energy comparison so badly in the
	// paper (Fig. 7b): data movement keeps an expensive machine waiting.
	power, src := h.CPUPowerWatts, energy.CPU
	if m.kind == GPU {
		power, src = h.GPUPowerWatts, energy.GPU
	}
	en.Compute(src, elapsed.Seconds()*power)

	return &Result{
		Kind:           m.kind,
		Elapsed:        elapsed,
		ComputeEnergy:  en.ComputeTotal(),
		MovementEnergy: en.MovementTotal(),
		PCIeBytes:      pcieBytes,
		// Each instruction's latency is derived only when a query needs
		// it: the timing pass replayed on a fresh cache and account.
		InstLatencies: stats.ReservoirFunc(len(prog.Insts), elapsed, func(dst []sim.Time) {
			cache, en := newPageLRU(span, cacheCapacity(prog.Pages)), energy.NewAccount()
			for i := range prog.Insts {
				dst[i], _ = m.instTime(&prog.Insts[i], cache, en)
			}
		}),
	}, mem, nil
}

// instTime is inst's latency on the host — the longest of its computation,
// its page faults to the SSD and its host-memory traffic — and how many
// pages it faulted in. It touches cache and charges its movement energy to
// en.
func (m *Model) instTime(inst *isa.Inst, cache *pageLRU, en *energy.Account) (t sim.Time, faults int) {
	cfg, h := &m.cfg.SSD, &m.cfg.Host
	var pcie, hostMem sim.Time
	if inst.Op != isa.OpScalar {
		// Resident data streams from host DRAM (CPU) or HBM (GPU).
		memBW := h.MemBandwidth
		if m.kind == GPU {
			memBW = h.HBMBandwidth
		}
		for _, s := range inst.Srcs {
			if hit, _ := cache.touch(s); !hit {
				// Page fault to the SSD: a demand miss overlaps
				// with a limited number of in-flight reads (the I/O
				// queue depth the blocked computation sustains), so
				// the flash sense amortizes over ~8 outstanding
				// requests, plus PCIe and channel bandwidth.
				const lookahead = 8
				pcie += cfg.PCIeTransferTime(cfg.PageSize) +
					cfg.ChannelTransferTime(cfg.PageSize)/sim.Time(cfg.Channels) +
					cfg.TRead/lookahead
				faults++
				en.Move(energy.PCIe, float64(cfg.PageSize)*h.EPCIePerByte)
			}
			hostMem += sim.Time(float64(inst.VectorBytes()) / memBW * 1e9)
			en.Move(energy.HostDRAM, float64(inst.VectorBytes())*h.EHostPerByte)
		}
		if inst.Dst != isa.NoPage {
			cache.touch(inst.Dst)
			hostMem += sim.Time(float64(inst.VectorBytes()) / memBW * 1e9)
			en.Move(energy.HostDRAM, float64(inst.VectorBytes())*h.EHostPerByte)
		}
	}
	return max(m.computeTime(inst), pcie, hostMem), faults
}
