package ssd

import (
	"conduit/internal/coherence"
	"conduit/internal/cores"
	"conduit/internal/dram"
	"conduit/internal/energy"
	"conduit/internal/ftl"
	"conduit/internal/nand"
)

// Freeze marks the device's copy-on-write tables shared (internal/cow):
// the flash array's per-page state and per-block erase counts, and the
// FTL's L2P, P2L, validity, per-block valid-count and free-list tables.
// Subsequent copies (Restore, Clone) alias their nodes and leaves and pay
// only for those they write; the page-indexed tables, sized by the program's
// span, are copied flat. Call it once on a pristine post-deploy master
// that is copied but never run; several goroutines may copy a frozen
// device at once.
func (d *Device) Freeze() {
	d.Flash.Freeze()
	d.FTL.Freeze()
}

// Restore makes d an independent deep copy of src in place: flash contents
// and page states, FTL mapping and allocation state (including the mapping
// cache's exact LRU order), DRAM slots, plane-buffer tags, the coherence
// directory, calendars, energy account, and all measurement state. It is
// the one list of what a snapshot copies: Clone is Restore into a zero
// Device, and a field Restore leaves alone is named as scratch in
// TestRestoreEqualsClone.
//
// Restore is the deploy-amortization primitive: deploying a compiled
// program over the NVMe path (per-page I/O writes, chunked fw-download,
// fw-commit) costs far more than copying the resulting device state, so a
// policy sweep deploys once, keeps the post-deploy device as a pristine
// master, and runs every policy on its own copy, which behaves
// byte-identically to a freshly deployed device whatever it executed
// before. A first copy of a frozen master (see Freeze) costs the small
// per-plane, per-slot, per-page and measurement state plus one pointer
// per table node; the drive's page- and block-granular tables are shared
// until written. A
// device restored again after it ran keeps what it allocated — slot
// tables, the leaves its run wrote (overwritten in place), ledgers,
// scratch, buffer arenas — so the restore is a memcpy that allocates
// nothing and the next run writes those leaves without copying them first.
//
// The copy shares only immutable state with src — the configuration, the
// translation table, the loaded program, the compiler's liveness metadata,
// and the per-instruction cost table, none of which Run mutates, plus the
// published run records, which runs only add to — and
// Restore never writes to src, so several goroutines may restore from one
// frozen device while its copies run on others. The Device itself is still
// single-goroutine: one copy per worker.
func (d *Device) Restore(src *Device) {
	d.Cfg = src.Cfg
	d.En.Restore(src.En)
	d.Flash.Restore(src.Flash, d.En)
	d.DRAM.Restore(src.DRAM, d.En)
	d.Core.Restore(src.Core, d.En)
	d.FTL.Restore(src.FTL, d.Flash)
	if src.Dir == nil {
		d.Dir = nil
	} else {
		if d.Dir == nil {
			d.Dir = new(coherence.Directory)
		}
		d.Dir.Restore(src.Dir)
	}

	d.mode = src.mode
	d.prog = src.prog   // immutable after LoadProgram
	d.table = src.table // read-only after construction

	d.dramSlot = append(d.dramSlot[:0], src.dramSlot...)
	d.slotOwner = append(d.slotOwner[:0], src.slotOwner...)
	d.slotWords = append(d.slotWords[:0], src.slotWords...)
	n := len(src.slotClock)
	d.slotClock, d.freeSlots, d.clock = d.slotWords[:n:n], d.slotWords[n:], src.clock

	d.bufferTag = append(d.bufferTag[:0], src.bufferTag...)
	d.pagePlane = append(d.pagePlane[:0], src.pagePlane...)
	d.pageReady = append(d.pageReady[:0], src.pageReady...)

	// Read-only after LoadProgram; records only gains entries, under its lock.
	d.accesses, d.output, d.costs, d.records = src.accesses, src.output, src.costs, src.records

	d.firmware = src.firmware
	d.offloadCores.Restore(&src.offloadCores)
	d.ifpCursor, d.curInst = src.ifpCursor, src.curInst

	d.baseline, d.consumed = src.baseline, src.consumed
}

// Clone returns an independent deep copy of the device: Restore into a
// zero Device with empty substrates.
func (d *Device) Clone() *Device {
	c := &Device{
		En:    new(energy.Account),
		Flash: new(nand.Array),
		DRAM:  new(dram.Module),
		Core:  new(cores.Core),
		FTL:   new(ftl.FTL),
	}
	c.Restore(d)
	return c
}
