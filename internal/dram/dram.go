package dram

import (
	"fmt"
	"sync/atomic"

	"conduit/internal/arena"
	"conduit/internal/config"
	"conduit/internal/energy"
	"conduit/internal/sim"
	"conduit/internal/vecmath"
)

// Op enumerates the 16 operations the PuD-SSD substrate supports
// (§4.3.2: "PuD-SSD supports 16 operations, including arithmetic,
// predication, and relational operations").
type Op int

// PuD operation kinds.
const (
	OpAnd Op = iota
	OpOr
	OpNot
	OpXor
	OpNand
	OpNor
	OpAdd
	OpSub
	OpMul
	OpLT
	OpGT
	OpEQ
	OpMin
	OpMax
	OpSelect
	OpCopy
	// OpShuffle is a lane rotation implemented as RowClone/LISA-style
	// shifted inter-subarray copies. It is data movement inside the
	// arrays, not one of the 16 published compute operations.
	OpShuffle
	// OpShl and OpShr shift each lane by an immediate. Under the
	// bit-serial (vertical) data layout these are row renames plus a
	// clearing copy, nearly free (Proteus-style flexible precision).
	OpShl
	OpShr
)

// NumOps is the size of the published PuD compute-operation set.
const NumOps = 16

// String names the operation.
func (o Op) String() string {
	names := [...]string{"and", "or", "not", "xor", "nand", "nor", "add", "sub",
		"mul", "lt", "gt", "eq", "min", "max", "select", "copy", "shuffle", "shl", "shr"}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("dram.Op(%d)", int(o))
}

// Arity reports how many source slots the operation consumes.
func (o Op) Arity() int {
	switch o {
	case OpNot, OpCopy, OpShuffle, OpShl, OpShr:
		return 1
	case OpSelect:
		return 3
	default:
		return 2
	}
}

// Rounds reports how many bbop rounds (row-activation triples) one
// operation needs on elem-byte lanes. These constants follow the published
// SIMDRAM/MIMDRAM cost structure: constant for bulk bitwise operations,
// linear in bit width for addition/comparison, quadratic for
// multiplication.
func Rounds(o Op, elem int) int {
	vecmath.CheckElem(elem)
	bits := elem * 8
	switch o {
	case OpCopy, OpNot: // RowClone / row inversion
		return 2
	case OpShuffle: // LISA-style shifted inter-subarray copy
		return 4
	case OpShl, OpShr: // bit-serial row rename + clearing copy
		return 2
	case OpAnd, OpOr, OpNand, OpNor: // one TRA plus operand/result copies
		return 4
	case OpXor: // two TRAs plus copies
		return 6
	case OpSelect: // mask AND/ANDN/OR composition
		return 10
	case OpAdd, OpSub: // bit-serial full adder chain
		return 4*bits + 1
	case OpLT, OpGT, OpEQ: // bit-serial compare
		return 2*bits + 4
	case OpMin, OpMax: // compare then select
		return 3*bits + 8
	case OpMul: // shift-and-add partial products
		return 2*bits*bits + 3*bits
	default:
		panic(fmt.Sprintf("dram: unknown op %d", o))
	}
}

// ExecLatency is the contention-free latency of one PuD operation — the
// "expected computation latency" entry the offloader precomputes (§4.5).
func ExecLatency(cfg *config.SSD, o Op, elem int) sim.Time {
	return sim.Time(Rounds(o, elem)) * cfg.TBbop
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
	units  *sim.Group    // concurrent subarray compute sets (MIMDRAM)
	bus    *sim.Calendar // shared LPDDR4 data bus for transfers in/out

	// state is the slot table, one byte per slot and indexed by slot
	// number: slotPopulated once the slot has been written, slotPrivate
	// while its current payload was allocated by this module instance and
	// has not been shared with a clone. payload[slot] holds the contents
	// and exists in functional mode only (nil on a timing-only module).
	state   []uint8
	payload [][]byte

	// pool recycles dead page payloads. Payloads are replace-on-write
	// (see Clone), so a slot's payload may be recycled on replacement or
	// invalidation only while its slotPrivate bit holds. shared is raised
	// by Clone (which may run concurrently with other Clones of the same
	// module, hence the atomic); the next mutation drops every
	// slotPrivate bit, because the clone now references the same payloads.
	pool   *arena.Pool
	shared atomic.Bool

	// valScratch is the reusable operand-pointer slice of Exec.
	valScratch [][]byte

	opImm uint64 // rotation/shift amount of the in-flight operation

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
		units:  sim.NewGroup("pud-unit", ComputeUnits),
		bus:    sim.NewCalendar("dram-bus"),
		state:  make([]uint8, capacity),
		pool:   arena.New(cfg.PageSize),
	}
	if !m.timing {
		m.payload = make([][]byte, capacity)
	}
	return m
}

// unshare lazily drops payload privacy after a Clone: every payload that
// existed at clone time is now referenced by the clone too, so none of
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
func (m *Module) Units() *sim.Group { return m.units }

// Bus exposes the data-bus calendar.
func (m *Module) Bus() *sim.Calendar { return m.bus }

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
	m.en.Move("dram-bus", float64(m.cfg.PageSize)*m.cfg.EDRAMPerByte)
	return done
}

// Read returns a copy of slot's contents, occupying the DRAM bus.
func (m *Module) Read(now, ready sim.Time, slot int) ([]byte, sim.Time) {
	m.checkSlot(slot)
	_, done := m.bus.Reserve(now, ready, m.cfg.DRAMTransferTime(m.cfg.PageSize))
	m.reads++
	m.bytesMoved += int64(m.cfg.PageSize)
	m.en.Move("dram-bus", float64(m.cfg.PageSize)*m.cfg.EDRAMPerByte)
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

// Exec performs op on the source slots, writing the result slot. srcs must
// match op.Arity(); for OpSelect the sources are (mask, a, b) and each lane
// of the result is a where the mask lane is non-zero, else b. If useImm is
// set, the final source slot is replaced by a broadcast immediate.
//
// Computation happens inside the DRAM arrays: only the compute units are
// occupied, not the data bus.
func (m *Module) Exec(now, ready sim.Time, op Op, dst int, srcs []int, elem int, useImm bool, imm uint64) (sim.Time, error) {
	vecmath.CheckElem(elem)
	m.checkSlot(dst)
	arity := op.Arity()
	if len(srcs) != arity {
		return 0, fmt.Errorf("dram: %v needs %d sources, got %d", op, arity, len(srcs))
	}
	m.opImm = 0
	if op == OpShuffle || op == OpShl || op == OpShr {
		m.opImm = imm
		useImm = false
	}
	// With useImm the final operand is a broadcast immediate; the kernels
	// consume it directly, so no broadcast page is materialized.
	nvals := arity
	if useImm {
		nvals--
	}
	var vals [][]byte
	if !m.timing {
		if cap(m.valScratch) < nvals {
			m.valScratch = make([][]byte, nvals)
		}
		vals = m.valScratch[:nvals]
		// Drop the borrowed payload references on every exit (including
		// error returns) so the scratch slice never pins a dead page
		// against GC.
		defer func() {
			for i := range vals {
				vals[i] = nil
			}
		}()
	}
	for i, s := range srcs {
		if useImm && i == arity-1 {
			continue
		}
		m.checkSlot(s)
		if !m.Populated(s) {
			return 0, fmt.Errorf("dram: %v source slot %d not populated", op, s)
		}
		if !m.timing {
			vals[i] = m.payload[s]
		}
	}

	rounds := Rounds(op, elem)
	_, done := m.units.Reserve(now, ready, sim.Time(rounds)*m.cfg.TBbop)
	m.bbops += int64(rounds)
	m.en.Compute("pud", float64(rounds)*m.cfg.EBbop)

	if m.timing {
		m.setSlot(dst, nil)
		return done, nil
	}
	out := m.pool.Get() // fully overwritten by apply
	m.apply(op, out, vals, elem, useImm, imm)
	m.setSlot(dst, out)
	return done, nil
}

// kernelOp maps a PuD operation onto the shared vecmath kernel
// vocabulary (binary operations only; movement and unary operations are
// dispatched directly in apply).
func kernelOp(op Op) (vecmath.Op, bool) {
	switch op {
	case OpAnd:
		return vecmath.OpAnd, true
	case OpOr:
		return vecmath.OpOr, true
	case OpXor:
		return vecmath.OpXor, true
	case OpNand:
		return vecmath.OpNand, true
	case OpNor:
		return vecmath.OpNor, true
	case OpAdd:
		return vecmath.OpAdd, true
	case OpSub:
		return vecmath.OpSub, true
	case OpMul:
		return vecmath.OpMul, true
	case OpLT:
		return vecmath.OpLT, true
	case OpGT:
		return vecmath.OpGT, true
	case OpEQ:
		return vecmath.OpEQ, true
	case OpMin:
		return vecmath.OpMin, true
	case OpMax:
		return vecmath.OpMax, true
	default:
		return 0, false
	}
}

// apply computes the functional result of op through the specialized
// vecmath kernels. vals excludes the immediate operand when useImm is
// set. Every path fully overwrites out.
func (m *Module) apply(op Op, out []byte, vals [][]byte, elem int, useImm bool, imm uint64) {
	if k, ok := kernelOp(op); ok {
		if useImm {
			vecmath.ApplyImm(k, out, vals[0], elem, imm)
		} else {
			vecmath.Apply(k, out, vals[0], vals[1], elem)
		}
		return
	}
	switch op {
	case OpCopy:
		if useImm {
			vecmath.Broadcast(out, elem, imm) // isa.OpBroadcast lowers to an immediate copy
		} else {
			copy(out, vals[0])
		}
	case OpNot:
		if useImm {
			vecmath.Broadcast(out, elem, ^imm&vecmath.Mask(elem))
		} else {
			vecmath.ApplyUnary(vecmath.OpNot, out, vals[0], elem, 0)
		}
	case OpSelect:
		if useImm {
			vecmath.SelectImm(out, vals[0], vals[1], elem, imm)
		} else {
			vecmath.Select(out, vals[0], vals[1], vals[2], elem)
		}
	case OpShuffle:
		vecmath.Shuffle(out, vals[0], elem, int(m.opImm))
	case OpShl:
		vecmath.ApplyUnary(vecmath.OpShl, out, vals[0], elem, m.opImm)
	case OpShr:
		vecmath.ApplyUnary(vecmath.OpShr, out, vals[0], elem, m.opImm)
	default:
		panic(fmt.Sprintf("dram: unknown op %d", op))
	}
}

// Clone returns an independent copy of the module — slot contents,
// calendars, and activity counters — charging future energy to en. Clones
// share only immutable state, so a clone and its original can be driven
// from different goroutines. Slot payloads are shared, not copied: every
// mutation path (Write, Exec, SetSlotForTest) replaces the stored slice
// with a freshly allocated one, so a stored payload is immutable for its
// lifetime.
func (m *Module) Clone(en *energy.Account) *Module {
	c := &Module{
		cfg:        m.cfg,
		en:         en,
		timing:     m.timing,
		units:      m.units.Clone(),
		bus:        m.bus.Clone(),
		state:      append([]uint8(nil), m.state...),
		payload:    append([][]byte(nil), m.payload...), // replace-on-write; see doc comment
		pool:       arena.New(m.cfg.PageSize),
		opImm:      m.opImm,
		bbops:      m.bbops,
		reads:      m.reads,
		writes:     m.writes,
		bytesMoved: m.bytesMoved,
	}
	// Payloads are now referenced from both modules: neither may recycle
	// them on replacement. The flag (not a direct wipe of m's private bits)
	// keeps Clone read-only on m, so concurrent Clones of one module stay
	// safe; m applies it at its next mutation.
	dropPrivate(c.state)
	m.shared.Store(true)
	return c
}

// SetSlotForTest force-writes slot contents without timing (fixture hook).
func (m *Module) SetSlotForTest(slot int, data []byte) {
	m.checkSlot(slot)
	if len(data) != m.cfg.PageSize {
		panic("dram: SetSlotForTest size mismatch")
	}
	m.setSlot(slot, m.pool.GetCopy(data))
}

// AppendCounts appends Stats' values to dst in sorted key order.
func (m *Module) AppendCounts(dst []int64) []int64 {
	return append(dst, m.bbops, m.bytesMoved, m.reads, m.writes)
}

// Stats reports operation counts for experiment tables.
func (m *Module) Stats() map[string]int64 {
	return map[string]int64{
		"bbops":       m.bbops,
		"reads":       m.reads,
		"writes":      m.writes,
		"bytes_moved": m.bytesMoved,
	}
}
