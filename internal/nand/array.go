package nand

import (
	"fmt"
	"maps"

	"conduit/internal/config"
	"conduit/internal/cow"
	"conduit/internal/energy"
	"conduit/internal/isa"
	"conduit/internal/sim"
	"conduit/internal/vecmath"
)

// pageState tracks the lifecycle of one physical page.
type pageState uint8

const (
	pageErased pageState = iota
	pageProgrammed
)

// Operand names one input to an in-flash operation: a programmed flash
// page (sensed), the current contents of the plane's page buffer (chained
// result reuse), or data loaded into a spare page-buffer latch over the
// channel (ParaBit/Ares-Flash style latch operands — how DRAM-resident or
// cross-plane data participates without a flash program).
type Operand struct {
	Addr     Addr
	InBuffer bool   // take the plane buffer instead of sensing Addr
	Data     []byte // latch-loaded data; Addr is ignored when set
	// Latched marks a latch-loaded operand independently of Data, so a
	// timing-only array (config.SSD.TimingOnly) classifies operands
	// identically with the payload elided. Functional callers may leave it
	// unset; a non-nil Data implies it.
	Latched bool
}

// Array is the functional + timed NAND flash subsystem. With
// cfg.TimingOnly set it elides the data plane: page payloads are never
// stored and results never computed, while timing, energy, counters, and
// every validation error path stay identical to a functional array.
type Array struct {
	cfg    *config.SSD
	geo    Geometry
	en     *energy.Account
	timing bool
	dies   []sim.Calendar // one per die: senses/programs/erases/latch ops serialize here
	bus    []sim.Calendar // one per channel: data transfers serialize here

	data   map[int][]byte       // flat page index -> bytes (lazy; erased pages read as 0xFF)
	state  cow.Table[pageState] // per page; shared copy-on-write with clones
	erases cow.Table[int32]     // per block; shared copy-on-write with clones

	// The per-plane page-buffer latch sets. IFP primitives leave their
	// result in the plane's latches; it stays until the next operation on
	// the plane overwrites it, it is flushed to a flash page, or it is read
	// out over the channel. latched[plane] says a result is there and
	// latch[plane] holds its bytes, nil on a timing-only array: the
	// validity slab holds no pointer, so a timing-only restore copies it
	// without write barriers.
	latched []bool
	latch   [][]byte

	// Counters for experiment reporting.
	senses, programs, eraseOps, mwsOps, latchRounds, fcTransfers int64
	bytesOut, bytesIn                                            int64

	eProg, eErase float64 // derived energies (see NewArray)
}

// NewArray builds the flash subsystem for cfg, charging energy to en.
func NewArray(cfg *config.SSD, en *energy.Account) *Array {
	geo := NewGeometry(cfg)
	a := &Array{
		cfg:     cfg,
		geo:     geo,
		en:      en,
		timing:  cfg.TimingOnly,
		data:    make(map[int][]byte),
		state:   cow.New(cfg.TotalPages(), pageErased),
		erases:  cow.New[int32](geo.TotalBlocks(), 0),
		latched: make([]bool, cfg.Channels*cfg.DiesPerChannel*cfg.PlanesPerDie),
		dies:    make([]sim.Calendar, cfg.TotalDies()),
		bus:     make([]sim.Calendar, cfg.Channels),
	}
	if !a.timing {
		a.latch = make([][]byte, len(a.latched))
	}
	// Table 2 gives no program/erase energies; scale the sense energy by
	// the latency ratio, which matches published NAND power envelopes.
	a.eProg = cfg.EReadPerChannel * float64(cfg.TProg) / float64(cfg.TRead)
	a.eErase = cfg.EReadPerChannel * float64(cfg.TErase) / float64(cfg.TRead)
	return a
}

// Geometry exposes the address arithmetic of the array.
func (a *Array) Geometry() Geometry { return a.geo }

// DieCalendar returns the timing calendar of die d (flattened index), used
// by offloading policies to observe IFP queueing delay.
func (a *Array) DieCalendar(d int) *sim.Calendar { return &a.dies[d] }

// BusCalendar returns the timing calendar of channel c.
func (a *Array) BusCalendar(c int) *sim.Calendar { return &a.bus[c] }

// PlaneBuffer returns the contents of the page buffer of the plane holding
// addr (nil on a timing-only array) and whether it holds a result.
func (a *Array) PlaneBuffer(addr Addr) (data []byte, valid bool) {
	plane := a.geo.PlaneIndex(addr)
	if a.timing {
		return nil, a.latched[plane]
	}
	return a.latch[plane], a.latched[plane]
}

// setLatch leaves a result in plane's buffer: out, or no payload on a
// timing-only array.
func (a *Array) setLatch(plane int, out []byte) {
	a.latched[plane] = true
	if !a.timing {
		a.latch[plane] = out
	}
}

// EraseCount reports how many times block b (flat index) has been erased.
func (a *Array) EraseCount(b int) int { return int(a.erases.At(b)) }

// PageData returns the stored bytes of addr without timing effects (test
// and verification hook). Erased pages read as 0xFF.
func (a *Array) PageData(addr Addr) []byte {
	return append([]byte(nil), a.raw(addr)...)
}

// IsProgrammed reports whether addr holds data.
func (a *Array) IsProgrammed(addr Addr) bool {
	return a.state.At(a.geo.PageIndex(addr)) == pageProgrammed
}

func (a *Array) raw(addr Addr) []byte {
	idx := a.geo.PageIndex(addr)
	if d, ok := a.data[idx]; ok {
		return d
	}
	erased := make([]byte, a.cfg.PageSize)
	for i := range erased {
		erased[i] = 0xFF
	}
	return erased
}

// --- Basic I/O operations -------------------------------------------------

// Read senses addr and transfers the page to the flash controller. It
// returns a copy of the data and the completion time. ready constrains the
// earliest start (operand availability).
func (a *Array) Read(now, ready sim.Time, addr Addr) ([]byte, sim.Time) {
	die := &a.dies[a.geo.DieIndex(addr)]
	_, sensed := die.Reserve(now, ready, a.cfg.TRead)
	_, done := a.bus[addr.Channel].Reserve(now, sensed, a.cfg.ChannelTransferTime(a.cfg.PageSize))
	a.senses++
	a.bytesOut += int64(a.cfg.PageSize)
	a.en.Compute(energy.IFP, a.cfg.EReadPerChannel)
	a.en.Move(energy.FlashChannel, a.cfg.EDMAPerChannel)
	if a.timing {
		return nil, done
	}
	return a.PageData(addr), done
}

// Program writes data to the erased page addr, transferring it over the
// channel first. It panics on a program to a non-erased page: the FTL must
// erase first, and violating that is always a bug above us.
func (a *Array) Program(now, ready sim.Time, addr Addr, data []byte) sim.Time {
	idx := a.geo.PageIndex(addr)
	if a.state.At(idx) == pageProgrammed {
		panic(fmt.Sprintf("nand: program to programmed page %v", addr))
	}
	// A timing-only array accepts an elided (nil) payload; any payload
	// actually supplied must still be page-sized.
	if len(data) != a.cfg.PageSize && !(a.timing && data == nil) {
		panic(fmt.Sprintf("nand: program size %d != page size %d", len(data), a.cfg.PageSize))
	}
	// Programs always move whole pages, so the transfer is sized by the
	// page, not the payload — identical with the payload elided.
	_, moved := a.bus[addr.Channel].Reserve(now, ready, a.cfg.ChannelTransferTime(a.cfg.PageSize))
	die := &a.dies[a.geo.DieIndex(addr)]
	_, done := die.Reserve(now, moved, a.cfg.TProg)
	if !a.timing {
		a.data[idx] = append([]byte(nil), data...)
	}
	a.state.Set(idx, pageProgrammed)
	a.programs++
	a.bytesIn += int64(a.cfg.PageSize)
	a.en.Compute(energy.IFP, a.eProg)
	a.en.Move(energy.FlashChannel, a.cfg.EDMAPerChannel)
	return done
}

// Erase erases the block containing addr, resetting all its pages.
func (a *Array) Erase(now sim.Time, addr Addr) sim.Time {
	die := &a.dies[a.geo.DieIndex(addr)]
	_, done := die.Reserve(now, now, a.cfg.TErase)
	base := addr
	for p := 0; p < a.cfg.PagesPerBlock; p++ {
		base.Page = p
		idx := a.geo.PageIndex(base)
		delete(a.data, idx)
		a.state.Set(idx, pageErased)
	}
	blk := a.geo.BlockIndex(addr)
	a.erases.Set(blk, a.erases.At(blk)+1)
	a.eraseOps++
	a.en.Compute(energy.IFP, a.eErase)
	return done
}

// --- In-flash processing primitives ---------------------------------------

// MaxAndOperands is the Flash-Cosmos limit on simultaneously sensed
// wordlines within a block (48-WL-layer 3D NAND).
const MaxAndOperands = 48

// MaxOrOperands is the Flash-Cosmos limit on simultaneously sensed blocks
// within a plane.
const MaxOrOperands = 4

// gather is the shared front of bitwise and arith: it classifies ops for
// timing (placement rules of op, see profileOperands), finds the plane
// buffer and die they execute in, verifies that flash operands are
// programmed and buffer operands actually latched, and collects the
// operand values. Validation is identical in timing-only mode; only the
// payload references (vals) are skipped.
func (a *Array) gather(op isa.Op, ops []Operand) (prof OperandProfile, plane int, die *sim.Calendar, vals [][]byte, err error) {
	if prof, err = profileOperands(a.geo, op, ops); err != nil {
		return prof, 0, nil, nil, err
	}
	home := homeAddr(ops)
	plane = a.geo.PlaneIndex(home)
	die = &a.dies[a.geo.DieIndex(home)]
	if !a.timing {
		vals = make([][]byte, len(ops))
	}
	for i, o := range ops {
		var val []byte
		switch {
		case o.Latched || o.Data != nil:
			if o.Data != nil && len(o.Data) != a.cfg.PageSize {
				return prof, 0, nil, nil, fmt.Errorf("nand: latch operand %d is %d bytes", i, len(o.Data))
			}
			val = o.Data
		case o.InBuffer:
			if !a.latched[plane] {
				return prof, 0, nil, nil, fmt.Errorf("nand: operand %d expects plane buffer, which is empty", i)
			}
			if !a.timing {
				val = a.latch[plane]
			}
		default:
			if !a.IsProgrammed(o.Addr) {
				return prof, 0, nil, nil, fmt.Errorf("nand: operand %d page %v not programmed", i, o.Addr)
			}
			if !a.timing {
				val = a.raw(o.Addr)
			}
		}
		if !a.timing {
			vals[i] = val
		}
	}
	return prof, plane, die, vals, nil
}

// bitwise performs an IFPBitwise operation across the operands and leaves
// the result in the plane's page buffer. Flash-resident operands must share
// one plane; AND/NAND within one block (or OR/NOR across up to four blocks)
// complete in a single multi-wordline sense, other flash operands are
// sensed serially into the latches. InBuffer operands consume the current
// plane buffer; Data operands were latch-loaded over the channel.
//
// The returned time is when the result is latched; no data leaves the chip.
func (a *Array) bitwise(now, ready sim.Time, op isa.Op, ops []Operand) (sim.Time, error) {
	if op == isa.OpNot && len(ops) != 1 {
		return 0, fmt.Errorf("nand: NOT takes one operand, got %d", len(ops))
	}
	prof, plane, die, vals, err := a.gather(op, ops)
	if err != nil {
		return 0, err
	}

	dur := estimateBitwise(a.cfg, op, prof)
	perKB := a.cfg.EAndOrPerKB
	if op == isa.OpXor {
		perKB = a.cfg.EXorPerKB
	}
	a.en.Compute(energy.IFP, float64(prof.Senses)*a.cfg.EReadPerChannel+perKB*float64(a.cfg.PageSize)/1024)
	a.senses += int64(prof.Senses)
	a.fcTransfers += int64(prof.Loads)
	if prof.Loads > 0 {
		a.en.Move(energy.FlashChannel, float64(prof.Loads)*a.cfg.EDMAPerChannel)
	}
	a.mwsOps++
	_, done := die.Reserve(now, ready, dur)
	if a.timing {
		a.setLatch(plane, nil)
		return done, nil
	}

	// Functional result: the sensed operands fold through one word-parallel
	// vecmath kernel (bitwise operations are element-width independent),
	// and NAND, NOR and NOT invert the fold.
	fold := vecmath.OpAnd
	switch op {
	case isa.OpOr, isa.OpNor:
		fold = vecmath.OpOr
	case isa.OpXor:
		fold = vecmath.OpXor
	}
	out := make([]byte, a.cfg.PageSize)
	copy(out, vals[0])
	for _, v := range vals[1:] {
		vecmath.Apply(fold, out, out, v, 1)
	}
	if op == isa.OpNand || op == isa.OpNor || op == isa.OpNot {
		vecmath.ApplyUnary(vecmath.OpNot, out, out, 1, 0)
	}
	a.setLatch(plane, out)
	return done, nil
}

// arith performs an IFPArith or IFPShift operation elementwise in the
// page-buffer latches (Ares-Flash shift-and-add) and leaves the result in
// the plane buffer. elem is the element size in bytes (1, 2 or 4); imm is
// the shift count of a shift, which reads x alone.
//
// Multiplication is deliberately expensive: each of the elem*8 partial-
// product rounds needs a shift through the flash controller (one DMA
// round-trip), which is why the paper's policies avoid IFP for
// multiplication-heavy phases (§6.4/§6.5).
func (a *Array) arith(now, ready sim.Time, op isa.Op, x, y Operand, elem int, imm uint64) (sim.Time, error) {
	if elem != 1 && elem != 2 && elem != 4 {
		return 0, fmt.Errorf("nand: unsupported element size %d", elem)
	}
	operands := []Operand{x, y}[:op.Arity()] // on the stack
	prof, plane, die, vals, err := a.gather(op, operands)
	if err != nil {
		return 0, err
	}

	dur, rounds, fcTransfers := estimateArith(a.cfg, op, elem, prof)
	if fcTransfers > 0 {
		a.fcTransfers += fcTransfers
		a.en.Move(energy.FlashChannel, float64(fcTransfers)*a.cfg.EDMAPerChannel)
	}
	a.latchRounds += rounds
	a.senses += int64(prof.Senses)
	a.en.Compute(energy.IFP,
		float64(prof.Senses)*a.cfg.EReadPerChannel+
			float64(rounds)*a.cfg.ELatchPerKB*float64(a.cfg.PageSize)/1024)
	_, done := die.Reserve(now, ready, dur)
	if a.timing {
		a.setLatch(plane, nil)
		return done, nil
	}
	out := make([]byte, a.cfg.PageSize)
	if err := isa.Apply(op, out, vals, elem, false, imm); err != nil {
		return 0, err
	}
	a.setLatch(plane, out)
	return done, nil
}

// Exec runs IR operation op in the flash arrays through the mechanism the
// operation table's IFP kind names: bitwise over all operands for
// multi-wordline sensing, arith over the first two (a shift takes its count
// from imm) for the latch mechanisms.
func (a *Array) Exec(now, ready sim.Time, op isa.Op, ops []Operand, elem int, imm uint64) (sim.Time, error) {
	switch {
	case op.IFP() == isa.IFPNone || len(ops) == 0:
		return 0, fmt.Errorf("nand: no in-flash primitive for %v over %d operands", op, len(ops))
	case op.IFP() == isa.IFPBitwise:
		return a.bitwise(now, ready, op, ops)
	}
	var y Operand
	if len(ops) > 1 {
		y = ops[1]
	}
	return a.arith(now, ready, op, ops[0], y, elem, imm)
}

// FlushBuffer programs the plane buffer into the erased page dst.
func (a *Array) FlushBuffer(now, ready sim.Time, dst Addr) (sim.Time, error) {
	data, valid := a.PlaneBuffer(dst)
	if !valid {
		return 0, fmt.Errorf("nand: flush of empty plane buffer at %v", dst)
	}
	idx := a.geo.PageIndex(dst)
	if a.state.At(idx) == pageProgrammed {
		return 0, fmt.Errorf("nand: flush to programmed page %v", dst)
	}
	die := &a.dies[a.geo.DieIndex(dst)]
	_, done := die.Reserve(now, ready, a.cfg.TProg)
	if !a.timing {
		a.data[idx] = append([]byte(nil), data...)
	}
	a.state.Set(idx, pageProgrammed)
	a.programs++
	a.en.Compute(energy.IFP, a.eProg)
	return done, nil
}

// ReadBuffer transfers the plane buffer out over the channel to the flash
// controller, returning a copy and the completion time.
func (a *Array) ReadBuffer(now, ready sim.Time, plane Addr) ([]byte, sim.Time, error) {
	data, valid := a.PlaneBuffer(plane)
	if !valid {
		return nil, 0, fmt.Errorf("nand: read of empty plane buffer at %v", plane)
	}
	_, done := a.bus[plane.Channel].Reserve(now, ready, a.cfg.ChannelTransferTime(a.cfg.PageSize))
	a.bytesOut += int64(a.cfg.PageSize)
	a.en.Move(energy.FlashChannel, a.cfg.EDMAPerChannel)
	if a.timing {
		return nil, done, nil
	}
	return append([]byte(nil), data...), done, nil
}

// SetPageForTest force-writes page contents without timing, for building
// test fixtures. It marks the page programmed.
func (a *Array) SetPageForTest(addr Addr, data []byte) {
	if len(data) != a.cfg.PageSize {
		panic("nand: SetPageForTest size mismatch")
	}
	idx := a.geo.PageIndex(addr)
	a.data[idx] = append([]byte(nil), data...)
	a.state.Set(idx, pageProgrammed)
}

// Restore makes a an independent copy of src in place — page contents,
// page states, erase counts, plane buffers, calendars, and activity
// counters — charging future energy to en and reusing a's
// tables, maps and slabs. Restoring into a zero Array is how an array is
// cloned. Copies share only immutable state, so a copy and its original
// can be driven from different goroutines.
//
// Page payloads (the []byte values in data and latch) are
// shared, not copied: every mutation path in this package (Program,
// Erase, FlushBuffer, bitwise, arith, SetPageForTest) replaces the stored
// slice with a freshly allocated one rather than writing into it, so a
// stored payload is immutable for its lifetime.
//
// Cost: the per-page state and per-block erase tables are copy-on-write
// (internal/cow), so a copy of a frozen array takes one pointer per node,
// pays for a node and a leaf only when it first writes them, and from then
// on overwrites that leaf in place each time it is restored; copying an
// array that is not frozen copies the nodes and leaves it owns. The data
// map costs one entry per stored payload — nothing on a timing-only array,
// which stores none — and the plane
// buffers' validity slab, their payloads (none on a timing-only array) and
// the calendars are one flat copy each. Restore never writes to src.
func (a *Array) Restore(src *Array, en *energy.Account) {
	a.cfg, a.geo, a.en, a.timing = src.cfg, src.geo, en, src.timing
	a.dies = append(a.dies[:0], src.dies...)
	a.bus = append(a.bus[:0], src.bus...)
	if a.data == nil {
		a.data = make(map[int][]byte, len(src.data))
	}
	clear(a.data)
	maps.Copy(a.data, src.data) // payloads are replace-on-write; see doc comment
	a.state.Restore(&src.state)
	a.erases.Restore(&src.erases)
	a.latched = append(a.latched[:0], src.latched...)
	a.latch = append(a.latch[:0], src.latch...) // replace-on-write; empty on a timing-only array
	a.senses, a.programs, a.eraseOps, a.mwsOps, a.latchRounds, a.fcTransfers =
		src.senses, src.programs, src.eraseOps, src.mwsOps, src.latchRounds, src.fcTransfers
	a.bytesOut, a.bytesIn = src.bytesOut, src.bytesIn
	a.eProg, a.eErase = src.eProg, src.eErase
}

// Freeze releases ownership of the copy-on-write tables so subsequent
// copies alias their nodes and leaves (see cow.Table.Freeze).
func (a *Array) Freeze() {
	a.state.Freeze()
	a.erases.Freeze()
}

// CounterNames names AppendCounts' values, in order (sorted). The model
// has no ECC: ecc_corrections and ecc_failures read 0 in every run and
// stay only because the benchmark's golden counter table names them.
var CounterNames = [...]string{
	"bytes_in", "bytes_out", "ecc_corrections", "ecc_failures", "erases",
	"fc_transfers", "latch_rounds", "mws_ops", "programs", "senses",
}

// AppendCounts appends the operation counts CounterNames names to dst.
func (a *Array) AppendCounts(dst []int64) []int64 {
	return append(dst, a.bytesIn, a.bytesOut, 0, 0, a.eraseOps,
		a.fcTransfers, a.latchRounds, a.mwsOps, a.programs, a.senses)
}
