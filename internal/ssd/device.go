package ssd

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"conduit/internal/coherence"
	"conduit/internal/config"
	"conduit/internal/cores"
	"conduit/internal/dram"
	"conduit/internal/energy"
	"conduit/internal/ftl"
	"conduit/internal/isa"
	"conduit/internal/nand"
	"conduit/internal/offload"
	"conduit/internal/sim"
	"conduit/internal/stats"
)

// Mode is the drive's operating mode (§4.4, host-SSD communication).
type Mode uint8

// Operating modes.
const (
	// ModeIO serves regular host I/O; computation dispatch is refused.
	ModeIO Mode = iota
	// ModeComputation dedicates all resources to NDP; host I/O is
	// suspended until the host switches the drive back.
	ModeComputation
)

// Device is the simulated Conduit-capable SSD.
type Device struct {
	Cfg   *config.Config
	En    *energy.Account
	Flash *nand.Array
	DRAM  *dram.Module
	Core  *cores.Core
	FTL   *ftl.FTL
	Dir   *coherence.Directory

	mode  Mode
	prog  *isa.Program
	table *isa.TranslationTable

	// DRAM slot management. A fraction of the DRAM is reserved for FTL
	// metadata (the mapping cache); the rest caches/holds logical pages.
	// slotOwner is the table (slot -> page, NoPage when free) and dramSlot
	// its inverse (page -> slot, noSlot when not resident), one entry per
	// page of the program's span; bindSlot and freeSlot are the only
	// writers of either. The slot tables stop at the span: a program that
	// names fewer pages than there are usable slots never fills them, and
	// allocSlot takes the lowest free slot either way: the lowest set bit
	// of freeSlots (bit s%64 of word s/64 is set while slot s is free).
	// slotWords backs slotClock, the LRU stamps, and freeSlots: one array.
	dramSlot  []int32
	slotOwner []isa.PageID
	slotWords []uint64
	slotClock []uint64
	freeSlots []uint64
	clock     uint64

	// Plane page-buffer tags: bufferTag[plane] is the logical page the
	// plane's buffer holds (NoPage when invalid/untracked) and pagePlane
	// its inverse (page -> plane, noPlane when no buffer holds it), one
	// entry per page of the span; tagBuffer is the only writer of either.
	bufferTag []isa.PageID
	pagePlane []int16

	// Per-page availability time of the latest version, one entry per
	// page of the span.
	pageReady []sim.Time

	// Liveness, from compiler metadata: accessesOf(p) is the ordered list
	// of instruction indices touching page p, with reads and writes
	// distinguished, a window of accesses that accessAt[p] and
	// accessAt[p+1] bound. A page version is dead once its next access is
	// a write (the value can never be read again); output pages stay live
	// at end of program (the host may read them back). All three are
	// immutable after LoadProgram and shared by every fork; output, like
	// every page-indexed table, is as long as the program's span
	// (isa.Program.Span), and accessAt one longer.
	accesses []access
	accessAt []int32
	output   []bool

	// costs is the per-program cost table, one row per instruction: the
	// static half of feature collection, built by LoadProgram, immutable
	// afterwards and shared by every fork like accesses and output.
	costs []instCost

	// records maps a policy name to the *Result its runs share (recorder):
	// made empty by LoadProgram, shared by every fork, only ever added to.
	records *sync.Map

	firmware sim.Time // in-order decode front of the offloader pipeline

	// offloadCores models the controller cores that run feature
	// collection and instruction transformation (the cores not used for
	// computation or FTL work, §4.3.2 footnote 3).
	offloadCores sim.Group

	// ifpCursor rotates the target plane for IFP work whose operands are
	// nowhere in flash, spreading latch-loaded operations across dies.
	ifpCursor int

	// curInst is the instruction currently being dispatched (liveness
	// queries during eviction).
	curInst int

	// srcScratch and ifpScratch are the reusable operand slices of the
	// ISP and IFP execute paths (cleared after each instruction; never
	// copied: Restore leaves a device its own).
	srcScratch [][]byte
	ifpScratch []nand.Operand

	// What Run refills for every instruction (never copied): ops, where
	// each operand was resolved to; feat, the feature snapshot (no policy
	// keeps the pointer past Select); plan, the placement feat priced.
	ops  []operand
	feat offload.Features
	plan instPlan

	// baseline holds the substrate counters at the measurement reset.
	baseline [len(counterNames)]int64

	// consumed marks that Run has executed (and mutated) the loaded data
	// image. A consumed device refuses further Runs: reload the program or
	// run on a Clone taken before consumption.
	consumed bool
}

// Absent entries of the page-indexed inverse tables.
const (
	noSlot  int32 = -1
	noPlane int16 = -1
)

// access is one reference to a page in program order, packed into four
// bytes: the instruction's index shifted left once, the low bit set for a
// read. A page's list is sorted by index, reads before the write of the
// same instruction.
type access int32

func (a access) read() bool { return a&1 != 0 }

// maxInsts is the longest program LoadProgram accepts, so that every
// access has an int32 offset in accessAt and (the conversion below fails
// to compile otherwise) a packed index.
const maxInsts = math.MaxInt32 / (isa.MaxSrcs + 1)

var _ = access(maxInsts<<1 | 1)

// accessesOf returns page p's liveness list.
func (d *Device) accessesOf(p isa.PageID) []access {
	return d.accesses[d.accessAt[p]:d.accessAt[p+1]]
}

// Decision records one offloading decision for Figs. 9 and 10. A run keeps
// one per instruction: 24 bytes, InstID packed with Op and Resource.
type Decision struct {
	InstID   int32
	Op       isa.Op
	Resource isa.Resource
	Issue    sim.Time
	Done     sim.Time
}

// New builds a device for cfg.
func New(cfg *config.Config) *Device {
	en := energy.NewAccount()
	arr := nand.NewArray(&cfg.SSD, en)
	planes := cfg.SSD.Channels * cfg.SSD.DiesPerChannel * cfg.SSD.PlanesPerDie
	if planes > math.MaxInt16 {
		panic(fmt.Sprintf("ssd: %d planes overflow the page->plane index", planes))
	}
	d := &Device{
		Cfg:   cfg,
		En:    en,
		Flash: arr,
		DRAM:  dram.NewModule(&cfg.SSD, en),
		Core:  cores.New(&cfg.SSD, en),
		FTL:   ftl.New(&cfg.SSD, arr),
		table: isa.BuildTranslationTable(),

		bufferTag: make([]isa.PageID, planes),
	}
	for i := range d.bufferTag {
		d.bufferTag[i] = isa.NoPage
	}
	offCores := cfg.SSD.Cores - 2 // one compute core, one FTL/host core
	if offCores < 1 {
		offCores = 1
	}
	d.offloadCores = *sim.NewGroup("offload-core", offCores)
	return d
}

// Mode reports the current operating mode.
func (d *Device) Mode() Mode { return d.mode }

// EnterComputationMode suspends host I/O and dedicates all computation
// resources to NDP (§4.4).
func (d *Device) EnterComputationMode() { d.mode = ModeComputation }

// ExitComputationMode resumes regular host I/O service.
func (d *Device) ExitComputationMode() { d.mode = ModeIO }

// LoadProgram installs prog and its input data on the drive. Placement is
// NDP-aware (§4.4): pages that appear together as operands of IFP-capable
// instructions are co-located in one physical block of one plane so that
// multi-wordline operations need no migration; operand groups round-robin
// across planes to expose die-level parallelism.
//
// Loading happens before measurement: timing and energy are reset
// afterwards, matching the paper's assumption that all application data
// resides in the SSD when execution starts.
func (d *Device) LoadProgram(prog *isa.Program, inputs map[isa.PageID][]byte) error {
	if err := prog.Validate(); err != nil {
		return err
	}
	if prog.Pages > d.FTL.Capacity() {
		return fmt.Errorf("ssd: program needs %d pages, drive has %d", prog.Pages, d.FTL.Capacity())
	}
	if len(prog.Insts) > maxInsts {
		return fmt.Errorf("ssd: program has %d instructions, the liveness index holds %d", len(prog.Insts), maxInsts)
	}
	// Copies a previous program left in DRAM slots and plane latches mean
	// nothing to this one; the page-indexed tables are sized by the pages
	// the program names (its span), not by the drive or by Pages.
	d.dropVolatile()
	d.prog = prog
	n := prog.Span()
	d.Dir = coherence.NewDirectory(n)
	d.dramSlot = make([]int32, n)
	d.pagePlane = make([]int16, n)
	for p := range d.dramSlot {
		d.dramSlot[p], d.pagePlane[p] = noSlot, noPlane
	}
	// Reserve 1/8 of DRAM slots for FTL metadata (mapping cache et al.).
	slots := min(d.DRAM.Capacity()-d.DRAM.Capacity()/8, n)
	d.slotOwner = make([]isa.PageID, slots)
	d.slotWords = make([]uint64, slots+(slots+63)/64)
	d.slotClock, d.freeSlots = d.slotWords[:slots:slots], d.slotWords[slots:]
	for i := range d.slotOwner {
		d.slotOwner[i] = isa.NoPage
		d.freeSlots[i/64] |= 1 << (i % 64)
	}
	d.output = make([]bool, n)
	// Pages read before ever being written behave as zero-filled inputs;
	// map them so flash reads are defined. The same walk counts each
	// page's references into at[p+1]; their prefix sum places each page's
	// list in one array, and a second walk fills it, advancing at[p] to
	// the end of page p's list before one shift makes it the start again.
	sets, at := make([]bool, 3*n), make([]int32, n+1)
	inputSet, defined, written := sets[:n:n], sets[n:2*n:2*n], sets[2*n:]
	effectiveInputs := append([]isa.PageID(nil), prog.InputPages...)
	for _, p := range prog.InputPages {
		inputSet[p] = true
	}
	for i := range prog.Insts {
		in := &prog.Insts[i]
		for _, s := range in.Srcs() {
			at[s+1]++
			if !inputSet[s] && !defined[s] {
				inputSet[s] = true
				effectiveInputs = append(effectiveInputs, s)
			}
		}
		if in.Dst != isa.NoPage {
			at[in.Dst+1]++
			defined[in.Dst] = true
		}
	}
	for p := range n {
		at[p+1] += at[p]
	}
	d.accesses = make([]access, at[n])
	for i := range prog.Insts {
		in := &prog.Insts[i]
		for _, s := range in.Srcs() {
			d.accesses[at[s]], at[s] = access(i<<1|1), at[s]+1
		}
		if in.Dst != isa.NoPage {
			d.accesses[at[in.Dst]], at[in.Dst] = access(i<<1), at[in.Dst]+1
		}
	}
	copy(at[1:], at[:n])
	at[0], d.accessAt = 0, at
	if len(prog.OutputPages) == 0 {
		// No liveness metadata: conservatively keep everything live.
		for i := range d.output {
			d.output[i] = true
		}
	}
	for _, p := range prog.OutputPages {
		d.output[p] = true
	}
	var err error
	if d.costs, err = d.buildCosts(); err != nil {
		return err
	}
	d.records = new(sync.Map)

	groups := operandGroups(prog, n, effectiveInputs, d.Cfg.SSD.PagesPerBlock)

	// Write each group contiguously into one block; spread groups across
	// planes round-robin.
	var now sim.Time
	plane := 0
	planes := d.FTL.Planes()
	for _, g := range groups {
		lpns := make([]ftl.LPN, len(g))
		data := make([][]byte, len(g))
		for i, p := range g {
			lpns[i] = ftl.LPN(p)
			data[i] = d.inputPage(inputs, p)
			written[p] = true
		}
		done, err := d.FTL.WriteRun(now, lpns, data, plane)
		if err != nil {
			return fmt.Errorf("ssd: loading operand group: %w", err)
		}
		now = done
		plane = (plane + 1) % planes
	}
	// Remaining input pages go round-robin, one at a time.
	for _, p := range effectiveInputs {
		if written[p] {
			continue
		}
		done, err := d.FTL.Write(now, ftl.LPN(p), d.inputPage(inputs, p), plane)
		if err != nil {
			return fmt.Errorf("ssd: loading input page %d: %w", p, err)
		}
		now = done
		plane = (plane + 1) % planes
	}

	d.resetMeasurement()
	d.consumed = false
	return nil
}

// dropVolatile discards every DRAM-resident copy and every latch tag, in
// page and plane order: what a newly loaded program must not inherit
// from the previous one.
func (d *Device) dropVolatile() {
	for _, slot := range d.dramSlot {
		if slot != noSlot {
			d.freeSlot(int(slot))
		}
	}
	for plane := range d.bufferTag {
		d.tagBuffer(plane, isa.NoPage)
	}
}

// inputPage is the payload LoadProgram programs for input page p: the
// staged page, or a zero page for one staged nil or never staged — none
// at all on a timing-only drive, which stores no payloads.
func (d *Device) inputPage(inputs map[isa.PageID][]byte, p isa.PageID) []byte {
	if data := inputs[p]; data != nil || d.Cfg.SSD.TimingOnly {
		return data
	}
	return make([]byte, d.Cfg.SSD.PageSize)
}

// resetMeasurement zeroes clocks, calendars, energy, and statistics so the
// measured run starts from a quiescent, loaded device.
func (d *Device) resetMeasurement() {
	d.En.Reset()
	d.firmware = 0
	d.pageReady = make([]sim.Time, len(d.output))
	for i := 0; i < d.Cfg.SSD.TotalDies(); i++ {
		d.Flash.DieCalendar(i).Reset()
	}
	for c := 0; c < d.Cfg.SSD.Channels; c++ {
		d.Flash.BusCalendar(c).Reset()
	}
	d.DRAM.Bus().Reset()
	d.DRAM.Units().Reset()
	d.Core.Calendar().Reset()
	d.offloadCores.Reset()
	d.ifpCursor = 0
	d.baseline = d.rawCounters()
}

// counterNames lists Result.Counters' names in the order rawCounters
// records them: each substrate's CounterNames under its prefix. The
// prefixes and every substrate's list are sorted, so the whole list is.
var counterNames = func() (names [len(cores.CounterNames) + len(dram.CounterNames) +
	len(nand.CounterNames) + len(ftl.CounterNames)]string) {
	i := 0
	for _, sub := range [...]struct {
		prefix string
		names  []string
	}{
		{"core.", cores.CounterNames[:]}, {"dram.", dram.CounterNames[:]},
		{"flash.", nand.CounterNames[:]}, {"ftl.", ftl.CounterNames[:]},
	} {
		for _, n := range sub.names {
			names[i], i = sub.prefix+n, i+1
		}
	}
	return names
}()

// rawCounters gathers the substrates' cumulative activity counters in
// counterNames order.
func (d *Device) rawCounters() (c [len(counterNames)]int64) {
	d.FTL.AppendCounts(d.Flash.AppendCounts(d.DRAM.AppendCounts(d.Core.AppendCounts(c[:0]))))
	return c
}

// operandGroups unions the source pages of every IFP-capable instruction
// and chunks each union-find class to at most maxGroup pages (a physical
// block). Only input pages participate; temporaries are produced at run
// time and live wherever their producer leaves them. span is prog.Span().
func operandGroups(prog *isa.Program, span int, inputOrder []isa.PageID, maxGroup int) [][]isa.PageID {
	// The union-find is indexed by page: parent is NoPage for a page no
	// IFP-capable instruction names. A page that enters it as a lone or
	// leading operand keeps size 0 until a union sizes it.
	parent := make([]isa.PageID, span)
	size := make([]int32, span)
	for p := range parent {
		parent[p] = isa.NoPage
	}
	var find func(p isa.PageID) isa.PageID
	find = func(p isa.PageID) isa.PageID {
		if parent[p] != p {
			parent[p] = find(parent[p])
		}
		return parent[p]
	}
	union := func(a, b isa.PageID) {
		for _, p := range [2]isa.PageID{a, b} {
			if parent[p] == isa.NoPage {
				parent[p], size[p] = p, 1
			}
		}
		ra, rb := find(a), find(b)
		// Cap class growth at one physical block: beyond that,
		// co-location is impossible anyway, and unbounded transitive
		// closure (e.g. through a shared activation array) would funnel
		// whole workloads onto a handful of planes.
		if ra != rb && size[ra]+size[rb] <= int32(maxGroup) {
			parent[rb] = ra
			size[ra] += size[rb]
		}
	}
	for i := range prog.Insts {
		in := &prog.Insts[i]
		if !isa.Supports(isa.ResIFP, in.Op) {
			continue
		}
		// Union sources and destination so chains through temporaries
		// keep transitively-related input pages together.
		prev := isa.NoPage
		visit := func(s isa.PageID) {
			if prev != isa.NoPage {
				union(prev, s)
			} else if parent[s] == isa.NoPage {
				parent[s] = s
			}
			prev = s
		}
		for _, s := range in.Srcs() {
			visit(s)
		}
		if in.Dst != isa.NoPage {
			visit(in.Dst)
		}
	}
	// A class lists its input pages in program order, and classes come in
	// the order of their first member. The unions are done, so size now
	// holds each root's rank plus one, and one stable sort groups them.
	clear(size)
	seen := make([]bool, span)
	var members []isa.PageID
	for rank, p := range inputOrder {
		if parent[p] != isa.NoPage && !seen[p] {
			seen[p] = true
			members = append(members, p)
			if r := find(p); size[r] == 0 {
				size[r] = int32(rank + 1)
			}
		}
	}
	slices.SortStableFunc(members, func(a, b isa.PageID) int { return cmp.Compare(size[parent[a]], size[parent[b]]) })
	var groups [][]isa.PageID
	for len(members) > 0 {
		k := 1
		for k < len(members) && parent[members[k]] == parent[members[0]] {
			k++
		}
		g := members[:k:k]
		for members = members[k:]; len(g) > maxGroup; g = g[maxGroup:] {
			groups = append(groups, g[:maxGroup:maxGroup])
		}
		// Singletons gain nothing from co-location; let the round-robin
		// path place them.
		if len(g) > 1 {
			groups = append(groups, g)
		}
	}
	return groups
}

// PageBytes returns the current (coherence-resolved) contents of logical
// page p without timing effects — the verification hook tests use to
// compare against the reference interpreter.
func (d *Device) PageBytes(p isa.PageID) ([]byte, error) {
	if d.Cfg.SSD.TimingOnly {
		return nil, fmt.Errorf("ssd: page contents unavailable in timing-only mode; use a reference (functional) device")
	}
	if d.Dir == nil {
		return nil, fmt.Errorf("ssd: no program loaded")
	}
	if uint(p) >= uint(len(d.output)) {
		// Past the span no table has an entry, and no instruction, input
		// or output names the page: refuse it as the FTL refuses a page
		// nothing was written to.
		return nil, fmt.Errorf("ssd: page %d is unmapped: the program names pages [0,%d)", p, len(d.output))
	}
	switch d.Dir.Owner(int(p)) {
	case coherence.LocDRAM:
		slot, ok := d.slotOf(p)
		if !ok {
			return nil, fmt.Errorf("ssd: page %d owned by DRAM but has no slot", p)
		}
		return d.DRAM.Data(slot), nil
	case coherence.LocBuffer:
		plane, err := d.latchedPlane(p)
		if err != nil {
			return nil, err
		}
		return d.planeBufferData(plane), nil
	default:
		addr, ok := d.FTL.PhysAddr(ftl.LPN(p))
		if !ok {
			// Never written and never loaded: logical zero.
			return make([]byte, d.Cfg.SSD.PageSize), nil
		}
		return d.Flash.PageData(addr), nil
	}
}

func (d *Device) planeBufferData(plane int) []byte {
	data, _ := d.Flash.PlaneBuffer(d.planeAddr(plane))
	return append([]byte(nil), data...)
}

// planeAddr returns an address within the given flat plane index.
func (d *Device) planeAddr(plane int) nand.Addr {
	c := &d.Cfg.SSD
	a := nand.Addr{}
	a.Plane = plane % c.PlanesPerDie
	plane /= c.PlanesPerDie
	a.Die = plane % c.DiesPerChannel
	a.Channel = plane / c.DiesPerChannel
	return a
}

// Result is the outcome of one measured run. InstLatencies and Decisions
// may be shared with other results of the same loaded program and policy:
// read them, never write them.
type Result struct {
	Policy string
	// Elapsed is the end-to-end execution time: from the first dispatch
	// to the completion of the last instruction.
	Elapsed sim.Time
	// InstLatencies holds per-instruction latencies (dispatch to
	// completion) for tail-latency reporting (Fig. 8).
	InstLatencies *stats.Reservoir
	// Decisions is the per-instruction offloading trace (Figs. 9, 10).
	Decisions []Decision
	// Energy totals, split per Fig. 7(b).
	ComputeEnergy  float64
	MovementEnergy float64
	// Counters holds substrate activity (senses, bbops, migrations ...).
	Counters *stats.Counters
	// OverheadTime is the firmware time spent on feature collection and
	// instruction transformation (§4.5).
	OverheadTime sim.Time
}

// Fractions reports the share of instructions offloaded to each resource
// in a decision trace (Fig. 9).
func Fractions(decisions []Decision) [isa.NumResources]float64 {
	var out [isa.NumResources]float64
	if len(decisions) == 0 {
		return out
	}
	for _, d := range decisions {
		out[d.Resource]++
	}
	for i := range out {
		out[i] /= float64(len(decisions))
	}
	return out
}
