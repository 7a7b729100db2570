package dram

import (
	"fmt"
	"sync/atomic"

	"conduit/internal/arena"
	"conduit/internal/config"
	"conduit/internal/energy"
	"conduit/internal/isa"
	"conduit/internal/sim"
	"conduit/internal/vecmath"
)

// Rounds reports how many bbop rounds (row-activation triples) one
// operation needs on elem-byte lanes: the operation table's PuD-SSD cost
// column (isa.Op.PuDRounds). Rounds x cfg.TBbop is the contention-free
// latency of the operation: the PuD entry of the offloader's precomputed
// computation-latency table (§4.5). It panics when PuD-SSD lacks o.
func Rounds(o isa.Op, elem int) int {
	vecmath.CheckElem(elem)
	r := o.PuDRounds(elem * 8)
	if r == 0 {
		panic(fmt.Sprintf("dram: no bbop sequence for %v", o))
	}
	return r
}

// Module is the functional + timed PuD-SSD substrate. With cfg.TimingOnly
// set the data plane is elided: slots are tracked as populated/empty with
// no payload table at all, results are never computed, and timing, energy,
// counters, and every validation error path stay identical to a functional
// module.
type Module struct {
	cfg    *config.SSD
	en     *energy.Account
	timing bool
	units  sim.Group    // concurrent subarray compute sets (MIMDRAM)
	bus    sim.Calendar // shared LPDDR4 data bus for transfers in/out

	// state is the slot table, one byte per slot and indexed by slot
	// number: slotPopulated once the slot has been written, slotPrivate
	// while its current payload was allocated by this module instance and
	// has not been shared with a clone. payload[slot] holds the contents
	// and exists in functional mode only (nil on a timing-only module,
	// which never sets slotPrivate).
	state   []uint8
	payload [][]byte

	// pool recycles dead page payloads. Payloads are replace-on-write
	// (see Restore), so a slot's payload may be recycled on replacement or
	// invalidation only while its slotPrivate bit holds. shared is raised
	// when another module restores from this one (several may at once,
	// hence the atomic); the next mutation drops every slotPrivate bit,
	// because the copy now references the same payloads.
	pool   *arena.Pool
	shared atomic.Bool

	// valScratch is the reusable operand-pointer slice of Exec.
	valScratch [][]byte

	bbops, reads, writes int64
	bytesMoved           int64
}

// Slot state bits (Module.state).
const (
	slotPopulated uint8 = 1 << iota
	slotPrivate
)

// ComputeUnits is the number of concurrently usable subarray compute sets.
// MIMDRAM executes independent fine-grained operations in different
// subarrays (mats); with 8 banks and two active subarray sets per bank the
// module sustains 16 concurrent bulk operations.
const ComputeUnits = 16

// NewModule builds the PuD substrate for cfg, charging energy to en.
func NewModule(cfg *config.SSD, en *energy.Account) *Module {
	capacity := int(cfg.DRAMSize / int64(cfg.PageSize))
	m := &Module{
		cfg:    cfg,
		en:     en,
		timing: cfg.TimingOnly,
		units:  *sim.NewGroup("pud-unit", ComputeUnits),
		state:  make([]uint8, capacity),
		pool:   arena.New(cfg.PageSize),
	}
	if !m.timing {
		m.payload = make([][]byte, capacity)
	}
	return m
}

// unshare lazily drops payload privacy after a copy was taken: every
// payload that existed then is now referenced by the copy too, so none of
// them may be recycled.
func (m *Module) unshare() {
	if m.shared.Load() {
		m.shared.Store(false)
		dropPrivate(m.state)
	}
}

func dropPrivate(state []uint8) {
	for i := range state {
		state[i] &^= slotPrivate
	}
}

// release recycles slot's payload when it is provably unshared.
func (m *Module) release(slot int) {
	if m.state[slot]&slotPrivate != 0 {
		m.pool.Put(m.payload[slot])
	}
}

// setSlot installs a freshly allocated (private) payload into slot,
// recycling the payload it replaces when that one is provably unshared.
func (m *Module) setSlot(slot int, data []byte) {
	if m.timing {
		m.state[slot] = slotPopulated
		return
	}
	m.unshare()
	m.release(slot)
	m.payload[slot] = data
	m.state[slot] = slotPopulated | slotPrivate
}

// Recycle returns a dead page buffer to the module's free list. Only call
// it with a buffer obtained from Read/Data that nothing else references.
func (m *Module) Recycle(b []byte) { m.pool.Put(b) }

// Capacity reports the number of page-sized slots.
func (m *Module) Capacity() int { return len(m.state) }

// Units exposes the compute-unit calendars (for queue-delay observation).
func (m *Module) Units() *sim.Group { return &m.units }

// Bus exposes the data-bus calendar.
func (m *Module) Bus() *sim.Calendar { return &m.bus }

func (m *Module) checkSlot(s int) {
	if s < 0 || s >= len(m.state) {
		panic(fmt.Sprintf("dram: slot %d out of range [0,%d)", s, len(m.state)))
	}
}

// Write stores data into slot, occupying the DRAM bus. A timing-only
// module accepts an elided (nil) payload and records the slot as
// populated; writes always move whole pages, so the transfer is sized by
// the page, not the payload.
func (m *Module) Write(now, ready sim.Time, slot int, data []byte) sim.Time {
	m.checkSlot(slot)
	if len(data) != m.cfg.PageSize && !(m.timing && data == nil) {
		panic(fmt.Sprintf("dram: write size %d != page size %d", len(data), m.cfg.PageSize))
	}
	_, done := m.bus.Reserve(now, ready, m.cfg.DRAMTransferTime(m.cfg.PageSize))
	var payload []byte
	if !m.timing {
		payload = m.pool.GetCopy(data)
	}
	m.setSlot(slot, payload)
	m.writes++
	m.bytesMoved += int64(m.cfg.PageSize)
	m.en.Move(energy.DRAMBus, float64(m.cfg.PageSize)*m.cfg.EDRAMPerByte)
	return done
}

// Read returns a copy of slot's contents, occupying the DRAM bus.
func (m *Module) Read(now, ready sim.Time, slot int) ([]byte, sim.Time) {
	m.checkSlot(slot)
	_, done := m.bus.Reserve(now, ready, m.cfg.DRAMTransferTime(m.cfg.PageSize))
	m.reads++
	m.bytesMoved += int64(m.cfg.PageSize)
	m.en.Move(energy.DRAMBus, float64(m.cfg.PageSize)*m.cfg.EDRAMPerByte)
	if m.timing {
		return nil, done
	}
	return m.Data(slot), done
}

// Data returns a copy of slot contents without timing effects (test and
// verification hook). Unwritten slots read as zero. A timing-only module
// has no payloads and returns nil.
func (m *Module) Data(slot int) []byte {
	m.checkSlot(slot)
	if m.timing {
		return nil
	}
	if m.Populated(slot) {
		return m.pool.GetCopy(m.payload[slot])
	}
	return m.pool.GetZeroed()
}

// Populated reports whether the slot has been written.
func (m *Module) Populated(slot int) bool { return m.state[slot]&slotPopulated != 0 }

// Invalidate drops slot contents (eviction), recycling the payload when
// it is provably unshared.
func (m *Module) Invalidate(slot int) {
	if !m.timing {
		m.unshare()
		m.release(slot)
		m.payload[slot] = nil
	}
	m.state[slot] = 0
}

// Exec performs op on the source slots, writing the result slot, with the
// operand shapes and semantics of isa.Apply: srcs holds op.Sources(useImm)
// slots, a replacing immediate is consumed by the kernels directly (no
// broadcast page is materialized), and shift counts and rotations arrive
// in imm.
//
// Computation happens inside the DRAM arrays: only the compute units are
// occupied, not the data bus. The work is reserved on unit, a member of
// Units() the caller selected — Units().Earliest() is the FIFO choice. A
// caller that priced a unit's queue before dispatching passes that same
// unit, so the 16-member scan runs once per operation, not twice.
func (m *Module) Exec(now, ready sim.Time, unit *sim.Calendar, op isa.Op, dst int, srcs []int, elem int, useImm bool, imm uint64) (sim.Time, error) {
	vecmath.CheckElem(elem)
	m.checkSlot(dst)
	if !isa.Supports(isa.ResPuD, op) {
		return 0, fmt.Errorf("dram: PuD-SSD does not execute %v", op)
	}
	if want := op.Sources(useImm); len(srcs) != want {
		return 0, fmt.Errorf("dram: %v needs %d sources, got %d", op, want, len(srcs))
	}
	var vals [][]byte
	if !m.timing {
		if cap(m.valScratch) < len(srcs) {
			m.valScratch = make([][]byte, len(srcs))
		}
		vals = m.valScratch[:len(srcs)]
		// Drop the borrowed payload references on every exit (including
		// error returns) so the scratch slice never pins a dead page
		// against GC.
		defer clear(vals)
	}
	for i, s := range srcs {
		m.checkSlot(s)
		if !m.Populated(s) {
			return 0, fmt.Errorf("dram: %v source slot %d not populated", op, s)
		}
		if !m.timing {
			vals[i] = m.payload[s]
		}
	}

	rounds := Rounds(op, elem)
	_, done := unit.Reserve(now, ready, sim.Time(rounds)*m.cfg.TBbop)
	m.bbops += int64(rounds)
	m.en.Compute(energy.PuD, float64(rounds)*m.cfg.EBbop)

	if m.timing {
		m.setSlot(dst, nil)
		return done, nil
	}
	out := m.pool.Get() // fully overwritten by Apply
	if err := isa.Apply(op, out, vals, elem, useImm, imm); err != nil {
		m.pool.Put(out)
		return 0, err
	}
	m.setSlot(dst, out)
	return done, nil
}

// Restore makes m an independent copy of src in place — slot contents,
// calendars, and activity counters — charging future energy to en and
// reusing m's slot tables; m keeps its own buffer pool and operand scratch
// (restoring into a zero Module, which gets an empty pool, is how a module
// is cloned). Copies share only immutable state, so a copy and its
// original can be driven from different goroutines. Slot payloads are
// shared, not copied: every mutation path (Write, Exec, SetSlotForTest)
// replaces the stored slice with a freshly allocated one, so a stored
// payload is immutable for its lifetime.
func (m *Module) Restore(src *Module, en *energy.Account) {
	m.cfg, m.en, m.timing, m.bus = src.cfg, en, src.timing, src.bus
	m.units.Restore(&src.units)
	m.state = append(m.state[:0], src.state...)
	m.payload = append(m.payload[:0], src.payload...) // replace-on-write; see doc comment
	if m.pool == nil {
		m.pool = arena.New(src.cfg.PageSize)
	}
	m.bbops, m.reads, m.writes, m.bytesMoved = src.bbops, src.reads, src.writes, src.bytesMoved
	m.shared.Store(false)
	if m.timing {
		return // no payloads: no slot was ever private, and none is shared
	}
	// Payloads are now referenced from both modules: neither may recycle
	// them on replacement. The flag (not a direct wipe of src's private
	// bits) keeps Restore read-only on src, so concurrent copies of one
	// module stay safe; src applies it at its next mutation.
	dropPrivate(m.state)
	src.shared.Store(true)
}

// SetSlotForTest force-writes slot contents without timing (fixture hook).
func (m *Module) SetSlotForTest(slot int, data []byte) {
	m.checkSlot(slot)
	if len(data) != m.cfg.PageSize {
		panic("dram: SetSlotForTest size mismatch")
	}
	m.setSlot(slot, m.pool.GetCopy(data))
}

// CounterNames names AppendCounts' values, in order (sorted).
var CounterNames = [...]string{"bbops", "bytes_moved", "reads", "writes"}

// AppendCounts appends the operation counts CounterNames names to dst.
func (m *Module) AppendCounts(dst []int64) []int64 {
	return append(dst, m.bbops, m.bytesMoved, m.reads, m.writes)
}
