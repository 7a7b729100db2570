package cores

import (
	"fmt"

	"conduit/internal/arena"
	"conduit/internal/config"
	"conduit/internal/energy"
	"conduit/internal/isa"
	"conduit/internal/sim"
)

// loopOverheadCycles is the per-vector-instruction loop and address
// bookkeeping on the scalar pipeline.
const loopOverheadCycles = 16

// Cycles reports the core cycles a full vector instruction takes:
// ceil(bytes/MVE width) beats times the operation's per-beat cost
// (isa.Op.BeatCycles), plus loop overhead.
func Cycles(cfg *config.SSD, op isa.Op, lanes, elem int) int64 {
	if op == isa.OpScalar {
		panic("cores: Cycles of scalar region; use the instruction's ScalarCycles")
	}
	bytes := int64(lanes * elem)
	beats := (bytes + int64(cfg.MVEWidthBytes) - 1) / int64(cfg.MVEWidthBytes)
	return beats*op.BeatCycles() + loopOverheadCycles
}

// UnvectorizedCycles is the lane-serial cycle cost of running a vector
// operation the compiler could not vectorize (§7): one scalar
// load/op/store sequence per lane on the in-order pipeline.
func UnvectorizedCycles(lanes int) int64 {
	return int64(lanes)*isa.ScalarCyclesPerLane + loopOverheadCycles
}

// InstCycles reports the core cycles inst takes over the given number of
// lanes — the ISP entry of the offloader's precomputed computation-latency
// table (§4.5): a control region's own count, the lane-serial cost of a
// loop the vectorizer rejected, the MVE beat count otherwise.
func InstCycles(cfg *config.SSD, inst *isa.Inst, lanes int) int64 {
	switch {
	case inst.Op == isa.OpScalar:
		return inst.ScalarCycles
	case inst.Meta.Unvectorized:
		return UnvectorizedCycles(lanes)
	default:
		return Cycles(cfg, inst.Op, lanes, int(inst.Elem))
	}
}

// Core is the functional + timed ISP compute core. With cfg.TimingOnly
// set results are never computed and Exec returns a nil payload; cycle
// counts are sized by the configured page (device operands are always
// whole pages), so timing, energy, and counters are identical to a
// functional core.
type Core struct {
	cfg    *config.SSD
	en     *energy.Account
	timing bool
	cal    sim.Calendar

	// pool recycles page-sized result buffers. A result returned by Exec
	// is freshly allocated (private) until the caller stores it; callers
	// that copy the result onward (the ssd runtime writes it into DRAM,
	// which copies) hand the buffer back via Recycle.
	pool *arena.Pool

	vecOps, scalarOps, cycles int64
}

// New returns the compute core for cfg, charging energy to en.
func New(cfg *config.SSD, en *energy.Account) *Core {
	return &Core{cfg: cfg, en: en, timing: cfg.TimingOnly, pool: arena.New(cfg.PageSize)}
}

// outBuffer returns a result buffer of the given size, recycling dead
// page-sized buffers. Every operation fully overwrites its result, so
// stale contents are fine.
func (c *Core) outBuffer(size int) []byte {
	if size == c.pool.Size() {
		return c.pool.Get()
	}
	return make([]byte, size)
}

// Recycle returns a dead result buffer to the core's free list. Only call
// it with a buffer obtained from Exec that nothing else references (e.g.
// after copying it into DRAM).
func (c *Core) Recycle(b []byte) { c.pool.Put(b) }

// Calendar exposes the core's timing calendar (for queue-delay observation
// by offloading policies).
func (c *Core) Calendar() *sim.Calendar { return &c.cal }

// Exec executes inst over the operand buffers and returns the result bytes
// and completion time. Operands must already be resident in SSD DRAM; the
// caller models that movement. srcs must hold inst.Op.Sources(inst.UseImm)
// buffers of one length; semantics are isa.Apply's.
//
// A loop the vectorizer rejected (inst.Meta.Unvectorized) runs lane-serially
// on the scalar pipeline: only the cycle count differs. stream additionally
// occupies the core: the in-order Cortex-R8 stalls while loading operands
// from and storing results to the SSD DRAM, so its execution queue must
// reflect that occupancy.
func (c *Core) Exec(now, ready sim.Time, inst *isa.Inst, srcs [][]byte, stream sim.Time) ([]byte, sim.Time, error) {
	if inst.Op == isa.OpScalar {
		return nil, 0, fmt.Errorf("cores: scalar regions go through ExecScalar")
	}
	if want := inst.Op.Sources(inst.UseImm); len(srcs) != want {
		return nil, 0, fmt.Errorf("cores: %v needs %d vector sources, got %d", inst.Op, want, len(srcs))
	}
	size := c.operandSize(srcs)
	if size < 0 {
		return nil, 0, fmt.Errorf("cores: operand size mismatch")
	}

	cyc := InstCycles(c.cfg, inst, size/int(inst.Elem))
	_, done := c.cal.Reserve(now, ready, c.cfg.CoreCycles(cyc)+stream)
	if inst.Meta.Unvectorized {
		c.scalarOps++
	} else {
		c.vecOps++
	}
	c.cycles += cyc
	c.en.Compute(energy.ISP, float64(cyc)*c.cfg.ECorePerCycle)

	if c.timing {
		return nil, done, nil
	}
	out := c.outBuffer(size)
	if err := isa.Apply(inst.Op, out, srcs, int(inst.Elem), inst.UseImm, inst.Imm); err != nil {
		c.pool.Put(out)
		return nil, 0, err
	}
	return out, done, nil
}

// operandSize reports the common operand length, c.cfg.PageSize when
// there are no operands, or -1 on a mismatch. A timing-only core carries
// elided (nil) operands and always sizes by the configured page — which
// is what the device paths stream in a functional run too.
func (c *Core) operandSize(srcs [][]byte) int {
	if c.timing || len(srcs) == 0 {
		return c.cfg.PageSize
	}
	size := len(srcs[0])
	for _, s := range srcs[1:] {
		if len(s) != size {
			return -1
		}
	}
	return size
}

// ExecScalar runs a non-vectorized control region of the given cycle cost.
func (c *Core) ExecScalar(now, ready sim.Time, cyc int64) (sim.Time, error) {
	if cyc <= 0 {
		return 0, fmt.Errorf("cores: scalar region needs positive cycles, got %d", cyc)
	}
	_, done := c.cal.Reserve(now, ready, c.cfg.CoreCycles(cyc))
	c.scalarOps++
	c.cycles += cyc
	c.en.Compute(energy.ISP, float64(cyc)*c.cfg.ECorePerCycle)
	return done, nil
}

// Restore makes c an independent copy of src in place (calendar and
// counters), charging future energy to en. c keeps its own buffer pool —
// free lists hold only dead buffers and are never shared — and gets an
// empty one when it has none: restoring into a zero Core is how a core is
// cloned.
func (c *Core) Restore(src *Core, en *energy.Account) {
	c.cfg, c.en, c.timing, c.cal = src.cfg, en, src.timing, src.cal
	if c.pool == nil {
		c.pool = arena.New(src.cfg.PageSize)
	}
	c.vecOps, c.scalarOps, c.cycles = src.vecOps, src.scalarOps, src.cycles
}

// CounterNames names AppendCounts' values, in order (sorted).
var CounterNames = [...]string{"cycles", "scalar_ops", "vector_ops"}

// AppendCounts appends the operation counts CounterNames names to dst.
func (c *Core) AppendCounts(dst []int64) []int64 {
	return append(dst, c.cycles, c.scalarOps, c.vecOps)
}
