package ssd

import (
	"fmt"

	"conduit/internal/coherence"
	"conduit/internal/ftl"
	"conduit/internal/isa"
	"conduit/internal/sim"
)

// PowerCycle models the fifth §4.4 synchronization trigger: before power
// is lost, every page whose newest version lives in a volatile location
// (SSD DRAM or a plane's page-buffer latches) is committed to NAND flash;
// volatile state is then discarded. It returns the time at which the final
// commit completes.
//
// After a power cycle every page is flash-resident and clean, so a
// subsequent host read (or the next computation-mode run) sees exactly the
// data that was live before the cycle — the durability property the tests
// verify.
func (d *Device) PowerCycle(now sim.Time) (sim.Time, error) {
	if d.prog == nil {
		return now, nil
	}
	done := now
	for p := 0; p < d.Dir.Pages(); p++ {
		switch d.Dir.Owner(p) {
		case coherence.LocDRAM:
			slot, ok := d.dramSlot[isa.PageID(p)]
			if !ok {
				return 0, fmt.Errorf("ssd: page %d owned by DRAM without a slot", p)
			}
			data, rdone := d.DRAM.Read(now, maxT(now, d.pageReady.At(p)), slot)
			wdone, err := d.FTL.Write(rdone, ftl.LPN(p), data, -1)
			if err != nil {
				return 0, fmt.Errorf("ssd: power-cycle flush of page %d: %w", p, err)
			}
			if wdone > done {
				done = wdone
			}
			d.Dir.Sync(p, coherence.SyncPowerCycle)
		case coherence.LocBuffer:
			plane := d.bufferPlane(isa.PageID(p))
			if d.bufferTag[plane] != isa.PageID(p) {
				// The latch copy was already overwritten; the value was
				// dead (liveness) — nothing to preserve.
				d.Dir.Sync(p, coherence.SyncPowerCycle)
				continue
			}
			wdone, err := d.FTL.WriteBuffered(now, maxT(now, d.pageReady.At(p)), ftl.LPN(p), plane)
			if err != nil {
				return 0, fmt.Errorf("ssd: power-cycle flush of latched page %d: %w", p, err)
			}
			if wdone > done {
				done = wdone
			}
			d.Dir.Sync(p, coherence.SyncPowerCycle)
		}
	}
	// Volatile state is lost.
	for p, slot := range d.dramSlot {
		d.DRAM.Invalidate(slot)
		d.slotOwner[slot] = isa.NoPage
		delete(d.dramSlot, p)
	}
	for i := range d.bufferTag {
		d.bufferTag[i] = isa.NoPage
	}
	d.mode = ModeIO
	return done, nil
}
