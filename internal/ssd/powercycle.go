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
		// A page whose slot or latch tag is gone was dropped without a
		// write-back: the value was dead (liveness) — nothing to preserve.
		ready := maxT(now, d.pageReady.At(p))
		var wdone sim.Time
		var err error
		switch d.Dir.Owner(p) {
		case coherence.LocFlash:
			continue
		case coherence.LocDRAM:
			if slot, ok := d.slotOf(isa.PageID(p)); ok {
				data, rdone := d.DRAM.Read(now, ready, slot)
				wdone, err = d.FTL.Write(rdone, ftl.LPN(p), data, -1)
			}
		case coherence.LocBuffer:
			if plane, ok := d.bufferPlane(isa.PageID(p)); ok {
				wdone, err = d.FTL.WriteBuffered(now, ready, ftl.LPN(p), plane)
			}
		}
		if err != nil {
			return 0, fmt.Errorf("ssd: power-cycle flush of page %d: %w", p, err)
		}
		done = maxT(done, wdone)
		d.Dir.Sync(p, coherence.SyncPowerCycle)
	}
	d.dropVolatile()
	d.mode = ModeIO
	return done, nil
}

// dropVolatile discards every DRAM-resident copy and every latch tag, in
// page and plane order: the volatile state lost with power, and what a
// newly loaded program must not inherit from the previous one.
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
