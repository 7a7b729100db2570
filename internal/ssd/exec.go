package ssd

import (
	"fmt"
	"slices"

	"conduit/internal/coherence"
	"conduit/internal/energy"
	"conduit/internal/ftl"
	"conduit/internal/isa"
	"conduit/internal/nand"
	"conduit/internal/sim"
)

// execute dispatches inst onto resource r at firmware time issue, performs
// the operand movement the placement rules require, executes functionally,
// updates coherence state, and returns the completion time. It consumes
// the placement features priced (plan) but reads every operand's location
// live: staging one operand can evict and write back a later operand of the
// same instruction, so d.ops no longer says where they are.
func (d *Device) execute(inst *isa.Inst, r isa.Resource, issue sim.Time, plan *instPlan) (sim.Time, error) {
	// Operand availability (dependences resolved through page readiness).
	ready := maxT(issue, plan.ready)

	var done sim.Time
	var err error
	switch {
	case inst.Op == isa.OpScalar:
		done, err = d.Core.ExecScalar(issue, ready, inst.ScalarCycles)
	case r == isa.ResISP:
		done, err = d.executeISP(inst, issue, ready)
	case r == isa.ResPuD:
		done, err = d.executePuD(inst, plan.pudUnit, issue, ready)
	case r == isa.ResIFP:
		done, err = d.executeIFP(inst, &plan.ifp, issue, ready)
	default:
		err = fmt.Errorf("unknown resource %v", r)
	}
	if err != nil {
		return 0, err
	}
	if inst.Dst != isa.NoPage {
		d.pageReady[inst.Dst] = done
	}
	return done, nil
}

// operandsReady reports when the newest versions of inst's operands (and
// of its destination, for WAR/WAW ordering) become available.
func (d *Device) operandsReady(inst *isa.Inst) sim.Time {
	var ready sim.Time
	for _, s := range inst.Srcs {
		if t := d.pageReady[s]; t > ready {
			ready = t
		}
	}
	if inst.Dst != isa.NoPage {
		if t := d.pageReady[inst.Dst]; t > ready {
			ready = t
		}
	}
	return ready
}

// --- shared movement helpers ----------------------------------------------

// ensureInDRAM stages page s into a DRAM slot, returning the slot and the
// time the copy is usable. Clean copies are reused for free.
func (d *Device) ensureInDRAM(now, ready sim.Time, s isa.PageID) (int, sim.Time, error) {
	if slot, ok := d.slotOf(s); ok {
		d.touchSlot(slot)
		return slot, ready, nil
	}
	var data []byte
	var avail sim.Time
	var err error
	switch d.Dir.Owner(int(s)) {
	case coherence.LocFlash:
		data, avail, err = d.FTL.Read(now, ready, ftl.LPN(s))
	case coherence.LocBuffer:
		var plane int
		if plane, err = d.latchedPlane(s); err == nil {
			data, avail, err = d.Flash.ReadBuffer(now, ready, d.planeAddr(plane))
		}
	default:
		err = fmt.Errorf("ssd: page %d owned by DRAM without a slot", s)
	}
	if err != nil {
		return 0, 0, err
	}
	return d.saveToDRAM(now, avail, s, data)
}

// saveToDRAM writes page s's contents, usable at avail, into a newly
// allocated DRAM slot and consumes data (the DRAM write copies it). It
// returns the slot and the time the copy is usable.
func (d *Device) saveToDRAM(now, avail sim.Time, s isa.PageID, data []byte) (int, sim.Time, error) {
	slot, evictDone, err := d.allocSlot(now)
	if err != nil {
		return 0, 0, err
	}
	done := d.DRAM.Write(now, maxT(avail, evictDone), slot, data)
	d.DRAM.Recycle(data)
	d.bindSlot(s, slot)
	return slot, done, nil
}

// slotOf reports the DRAM slot holding page p, if any.
func (d *Device) slotOf(p isa.PageID) (int, bool) {
	slot := d.dramSlot[p]
	return int(slot), slot != noSlot
}

// bindSlot records that slot now holds page p, most recently used.
func (d *Device) bindSlot(p isa.PageID, slot int) {
	d.dramSlot[p] = int32(slot)
	d.slotOwner[slot] = p
	d.touchSlot(slot)
}

// freeSlot drops slot's contents and its owner's residency.
func (d *Device) freeSlot(slot int) {
	d.DRAM.Invalidate(slot)
	d.dramSlot[d.slotOwner[slot]] = noSlot
	d.slotOwner[slot] = isa.NoPage
	d.freeFrom = min(d.freeFrom, slot)
}

// allocSlot returns a free DRAM slot, evicting the least-recently-used
// resident page when full. Evicting a dirty (DRAM-owned) page writes it
// back to flash — the §4.4 eviction synchronization trigger.
func (d *Device) allocSlot(now sim.Time) (int, sim.Time, error) {
	for ; d.freeFrom < len(d.slotOwner); d.freeFrom++ {
		if d.slotOwner[d.freeFrom] == isa.NoPage {
			return d.freeFrom, now, nil
		}
	}
	victim := 0
	for i := range d.slotOwner {
		if d.slotClock[i] < d.slotClock[victim] {
			victim = i
		}
	}
	page := d.slotOwner[victim]
	var done sim.Time = now
	// Dead temporaries are dropped without a write-back: nothing can read
	// them again (compiler liveness metadata). The instruction being
	// dispatched counts among the readers of its own operands — staging
	// one can evict another that is not staged yet.
	after := d.curInst
	if slices.Contains(d.prog.Insts[after].Srcs, page) {
		after--
	}
	if d.Dir.Owner(int(page)) == coherence.LocDRAM && !d.deadAfter(page, after) {
		data, rdone := d.DRAM.Read(now, now, victim)
		wdone, err := d.FTL.Write(rdone, ftl.LPN(page), data, -1)
		if err != nil {
			return 0, 0, fmt.Errorf("ssd: evicting page %d: %w", page, err)
		}
		d.DRAM.Recycle(data) // the flash program copied it
		d.Dir.Sync(int(page))
		if wdone > d.pageReady[page] {
			d.pageReady[page] = wdone
		}
		done = wdone
	}
	d.freeSlot(victim)
	return victim, done, nil
}

func (d *Device) touchSlot(slot int) {
	d.clock++
	d.slotClock[slot] = d.clock
}

// claimDstSlot returns a DRAM slot for a destination page, reusing an
// existing resident copy's slot.
func (d *Device) claimDstSlot(now sim.Time, dst isa.PageID) (int, sim.Time, error) {
	if slot, ok := d.slotOf(dst); ok {
		d.touchSlot(slot)
		return slot, now, nil
	}
	slot, done, err := d.allocSlot(now)
	if err != nil {
		return 0, 0, err
	}
	d.bindSlot(dst, slot)
	return slot, done, nil
}

// markModifiedDRAM records that dst's newest version now lives in DRAM:
// older flash and latch copies become stale.
func (d *Device) markModifiedDRAM(dst isa.PageID, done sim.Time) error {
	if d.Dir.NeedsFlush(int(dst)) {
		if err := d.flushBeforeWrap(dst); err != nil {
			return err
		}
	}
	d.Dir.Modify(int(dst), coherence.LocDRAM)
	d.clearBufferTag(dst)
	d.FTL.Invalidate(ftl.LPN(dst))
	return nil
}

// flushBeforeWrap commits a page whose version counter reached the wrap
// limit (§4.4 footnote 4). Timing is folded into the next operation via
// pageReady.
func (d *Device) flushBeforeWrap(p isa.PageID) error {
	switch d.Dir.Owner(int(p)) {
	case coherence.LocDRAM:
		slot, ok := d.slotOf(p)
		if !ok {
			return fmt.Errorf("ssd: page %d owned by DRAM without a slot", p)
		}
		data, rdone := d.DRAM.Read(d.firmware, d.pageReady[p], slot)
		done, err := d.FTL.Write(rdone, ftl.LPN(p), data, -1)
		if err != nil {
			return err
		}
		d.DRAM.Recycle(data) // the flash program copied it
		d.pageReady[p] = done
	case coherence.LocBuffer:
		plane, err := d.latchedPlane(p)
		if err != nil {
			return err
		}
		done, err := d.FTL.WriteBuffered(d.firmware, d.pageReady[p], ftl.LPN(p), plane)
		if err != nil {
			return err
		}
		d.tagBuffer(plane, isa.NoPage)
		d.pageReady[p] = done
	}
	d.Dir.Sync(int(p))
	return nil
}

// bufferPlane reports the flat index of the plane whose buffer holds page
// p, if any.
func (d *Device) bufferPlane(p isa.PageID) (int, bool) {
	plane := d.pagePlane[p]
	return int(plane), plane != noPlane
}

// latchedPlane is bufferPlane for a page the directory places in a plane
// buffer: finding no tag there is a broken invariant, not plane 0.
func (d *Device) latchedPlane(p isa.PageID) (int, error) {
	plane, ok := d.bufferPlane(p)
	if !ok {
		return 0, fmt.Errorf("ssd: page %d owned by a plane buffer but not tagged", p)
	}
	return plane, nil
}

// tagBuffer records that plane's buffer now holds page p (NoPage: nothing
// tracked) — the one writer of bufferTag and of its inverse, pagePlane. A
// page is latched in at most one plane.
func (d *Device) tagBuffer(plane int, p isa.PageID) {
	if p != isa.NoPage {
		d.clearBufferTag(p)
	}
	if old := d.bufferTag[plane]; old != isa.NoPage {
		d.pagePlane[old] = noPlane
	}
	d.bufferTag[plane] = p
	if p != isa.NoPage {
		d.pagePlane[p] = int16(plane)
	}
}

func (d *Device) clearBufferTag(p isa.PageID) {
	if plane, ok := d.bufferPlane(p); ok {
		d.tagBuffer(plane, isa.NoPage)
	}
}

// --- ISP --------------------------------------------------------------------

func (d *Device) executeISP(inst *isa.Inst, issue, ready sim.Time) (sim.Time, error) {
	srcs := d.srcScratch[:0]
	// Drop buffer references on every exit (including error returns) so
	// the scratch slice never pins a dead operand copy against GC.
	defer func() {
		for i := range srcs {
			srcs[i] = nil
		}
		d.srcScratch = srcs[:0]
	}()
	for _, s := range inst.Srcs {
		slot, avail, err := d.ensureInDRAM(issue, d.pageReady[s], s)
		if err != nil {
			return 0, err
		}
		// The core streams the operand over the DRAM bus.
		data, rdone := d.DRAM.Read(issue, avail, slot)
		srcs = append(srcs, data)
		if rdone > ready {
			ready = rdone
		}
	}
	// A vectorized instruction occupies the in-order core while streaming
	// operands in and the result out over the DRAM bus.
	var stream sim.Time
	if !inst.Meta.Unvectorized {
		stream = sim.Time(len(srcs)+1) * d.Cfg.SSD.DRAMTransferTime(d.Cfg.SSD.PageSize)
	}
	out, done, err := d.Core.Exec(issue, ready, inst, srcs, stream)
	if err != nil {
		return 0, err
	}
	// The operand copies are private to this instruction; the core has
	// consumed them, so they go back to the free list (the deferred
	// cleanup drops the references).
	for i := range srcs {
		d.DRAM.Recycle(srcs[i])
	}
	slot, evictDone, err := d.claimDstSlot(issue, inst.Dst)
	if err != nil {
		return 0, err
	}
	if evictDone > done {
		done = evictDone
	}
	done = d.DRAM.Write(issue, done, slot, out)
	d.Core.Recycle(out) // the DRAM write copied it
	if err := d.markModifiedDRAM(inst.Dst, done); err != nil {
		return 0, err
	}
	return done, nil
}

// --- PuD-SSD -----------------------------------------------------------------

// executePuD runs inst in the DRAM arrays on unit, the compute unit
// feature collection selected and priced.
func (d *Device) executePuD(inst *isa.Inst, unit *sim.Calendar, issue, ready sim.Time) (sim.Time, error) {
	var slotBuf [3]int // no operation takes more sources
	slots := slotBuf[:0]
	for _, s := range inst.Srcs {
		slot, avail, err := d.ensureInDRAM(issue, d.pageReady[s], s)
		if err != nil {
			return 0, err
		}
		slots = append(slots, slot)
		if avail > ready {
			ready = avail
		}
	}
	dstSlot, evictDone, err := d.claimDstSlot(issue, inst.Dst)
	if err != nil {
		return 0, err
	}
	if evictDone > ready {
		ready = evictDone
	}
	// A fresh destination slot must not alias an unpopulated source; the
	// Exec call writes dst last, so aliasing with sources is safe.
	done, err := d.DRAM.Exec(issue, ready, unit, inst.Op, dstSlot, slots, inst.Elem, inst.UseImm, inst.Imm)
	if err != nil {
		return 0, err
	}
	if err := d.markModifiedDRAM(inst.Dst, done); err != nil {
		return 0, err
	}
	return done, nil
}

// --- IFP ---------------------------------------------------------------------

// executeIFP runs inst in the flash arrays. Operand staging follows the
// latch model of the IFP substrates: flash pages in the target plane are
// sensed (one multi-wordline sense when co-located); everything else —
// DRAM-resident pages, pages latched or stored in other planes — is
// fetched and DMA-loaded into a spare page-buffer latch over the channel.
// No flash program is ever needed to stage an operand.
//
// The target plane is the plan's, except that a plane taken from the
// rotating cursor is only what the instruction was priced on: execution
// takes the cursor's next value and advances it again. That skew is part of
// every golden table; docs/ARCHITECTURE.md "Plan once" says why it stays.
func (d *Device) executeIFP(inst *isa.Inst, plan *ifpPlan, issue, ready sim.Time) (sim.Time, error) {
	plane := plan.plane
	if plan.rotated {
		plane = d.ifpCursor
		d.ifpCursor = (d.ifpCursor + 1) % len(d.bufferTag)
	}
	planeAddr := d.planeAddr(plane)
	geo := d.Flash.Geometry()

	operands := d.ifpScratch[:0]
	// Drop the latch-load copies on every exit (including error returns)
	// so the scratch slice never pins a dead operand copy against GC.
	defer func() {
		clear(operands)
		d.ifpScratch = operands[:0]
	}()
	usedBuffer := false
	bufferOperand := isa.NoPage
	for _, s := range inst.Srcs {
		// An operand that is not already in the target plane is fetched —
		// data, readable at fetched — and latch-loaded below.
		var data []byte
		var fetched sim.Time
		switch d.Dir.Owner(int(s)) {
		case coherence.LocFlash:
			addr, ok := d.FTL.PhysAddr(ftl.LPN(s))
			if !ok {
				return 0, fmt.Errorf("flash operand %d unmapped", s)
			}
			if geo.PlaneIndex(addr) == plane {
				operands = append(operands, nand.Operand{Addr: addr})
				continue
			}
			// Cross-plane: read out of the source plane (channel traffic
			// on both sides).
			data, fetched = d.Flash.Read(issue, d.pageReady[s], addr)
		case coherence.LocBuffer:
			p, err := d.latchedPlane(s)
			if err != nil {
				return 0, err
			}
			if p == plane && !usedBuffer {
				// The operation will overwrite the latches, destroying
				// this operand's only copy; preserve it in DRAM first —
				// unless the value is dead after this instruction.
				if _, cached := d.slotOf(s); !cached && !d.deadAfter(s, inst.ID) {
					latched, rdone, err := d.Flash.ReadBuffer(issue, d.pageReady[s], planeAddr)
					if err != nil {
						return 0, err
					}
					_, wdone, err := d.saveToDRAM(issue, rdone, s, latched)
					if err != nil {
						return 0, err
					}
					ready = maxT(ready, wdone)
				}
				operands = append(operands, nand.Operand{Addr: planeAddr, InBuffer: true})
				usedBuffer = true
				bufferOperand = s
				continue
			}
			// Latched in another plane: read it out.
			if data, fetched, err = d.Flash.ReadBuffer(issue, d.pageReady[s], d.planeAddr(p)); err != nil {
				return 0, err
			}
		default:
			// DRAM-resident: stream over the DRAM bus.
			slot, ok := d.slotOf(s)
			if !ok {
				return 0, fmt.Errorf("page %d owned by DRAM without a slot", s)
			}
			data, fetched = d.DRAM.Read(issue, d.pageReady[s], slot)
		}
		ready = maxT(ready, d.latchTransferIn(issue, fetched, plane))
		operands = append(operands, nand.Operand{Addr: planeAddr, Data: data, Latched: true})
	}

	// The target plane's buffer may hold another live page (that is not
	// our latched operand); save it to DRAM before the operation
	// overwrites the latches. A copy-out over the channel is far cheaper
	// than a flash program and keeps coherence lazy.
	if tag := d.bufferTag[plane]; tag != isa.NoPage && tag != inst.Dst && tag != bufferOperand &&
		d.Dir.Owner(int(tag)) == coherence.LocBuffer && !d.deadAfter(tag, inst.ID-1) {
		if _, cached := d.slotOf(tag); !cached {
			data, rdone, err := d.Flash.ReadBuffer(issue, maxT(ready, d.pageReady[tag]), planeAddr)
			if err != nil {
				return 0, err
			}
			_, wdone, err := d.saveToDRAM(issue, rdone, tag, data)
			if err != nil {
				return 0, err
			}
			d.pageReady[tag] = wdone
			if wdone > ready {
				ready = wdone
			}
		}
		d.Dir.Relocate(int(tag), coherence.LocDRAM)
		d.tagBuffer(plane, isa.NoPage)
	} else if tag != isa.NoPage && tag != inst.Dst && tag != bufferOperand {
		// Dead temporary: drop it.
		d.tagBuffer(plane, isa.NoPage)
	}

	done, err := d.Flash.Exec(issue, ready, inst.Op, operands, inst.Elem, inst.Imm)
	if err != nil {
		return 0, err
	}
	// The latch-loaded operand copies are private to this instruction and
	// have been consumed by the in-flash operation.
	for i := range operands {
		d.DRAM.Recycle(operands[i].Data)
	}

	// The consumed latch operand's latest version now lives in its DRAM
	// copy (saved above).
	if bufferOperand != isa.NoPage && bufferOperand != inst.Dst {
		d.Dir.Relocate(int(bufferOperand), coherence.LocDRAM)
	}

	// The result lives in the plane buffer under lazy coherence.
	if d.Dir.NeedsFlush(int(inst.Dst)) {
		if err := d.flushBeforeWrap(inst.Dst); err != nil {
			return 0, err
		}
	}
	if slot, ok := d.slotOf(inst.Dst); ok {
		d.freeSlot(slot)
	}
	d.FTL.Invalidate(ftl.LPN(inst.Dst))
	d.Dir.Modify(int(inst.Dst), coherence.LocBuffer)
	d.tagBuffer(plane, inst.Dst)
	return done, nil
}

// deadAfter reports whether page p's current value is unneeded after
// instruction id: its next access (if any) overwrites it before any read,
// or it is a compiler temporary with no further references. The runtime
// skips write-backs of dead values — the lazy coherence protocol only
// preserves data someone can still request.
func (d *Device) deadAfter(p isa.PageID, id int) bool {
	evs := d.accesses[p]
	// Binary search the first event strictly after id.
	lo, hi := 0, len(evs)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(evs[mid].idx) <= id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for _, ev := range evs[lo:] {
		if ev.read {
			return false // someone still reads this value
		}
		if int(ev.idx) > id {
			return true // overwritten before any read
		}
	}
	// No further access: dead unless the host may read it back.
	return !d.output[p]
}

// latchTransferIn books the channel transfer that carries latch-load data
// into the target plane's die and charges its movement energy. The
// page-buffer DMA itself is timed inside the nand primitives.
func (d *Device) latchTransferIn(now, ready sim.Time, plane int) sim.Time {
	addr := d.planeAddr(plane)
	_, done := d.Flash.BusCalendar(addr.Channel).Reserve(now, ready,
		d.Cfg.SSD.ChannelTransferTime(d.Cfg.SSD.PageSize))
	d.En.Move(energy.FlashChannel, d.Cfg.SSD.EDMAPerChannel)
	return done
}

func maxT(ts ...sim.Time) sim.Time {
	var m sim.Time
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}
