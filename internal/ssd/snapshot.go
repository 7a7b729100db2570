package ssd

import (
	"maps"

	"conduit/internal/isa"
)

// Freeze marks the device's copy-on-write tables shared (internal/cow):
// the flash array's per-page state and per-block erase counts, the FTL's
// L2P, P2L, validity, per-block valid-count and free-list tables, and
// the per-page readiness times. Subsequent Clones alias their chunks and
// pay only for the chunks they write. Call it once on a pristine
// post-deploy master that is cloned but never run; a frozen device may
// be cloned from several goroutines at once.
func (d *Device) Freeze() {
	d.Flash.Freeze()
	d.FTL.Freeze()
	d.pageReady.Freeze()
}

// Clone returns an independent deep copy of the device: flash contents and
// page states, FTL mapping and allocation state (including the mapping
// cache's exact LRU order), DRAM slots, plane-buffer tags, the coherence
// directory, calendars, energy account, fault injections, and all
// measurement state.
//
// Clone is the deploy-amortization primitive: deploying a compiled program
// over the NVMe path (per-page I/O writes, chunked fw-download, fw-commit)
// costs far more than copying the resulting device state, so a policy
// sweep deploys once, keeps the post-deploy device as a pristine master,
// and runs every policy on its own Clone. A clone restored this way
// behaves byte-identically to a freshly deployed device. Cloning a frozen
// master (see Freeze) copies the small per-plane, per-slot and
// measurement state plus one pointer per table chunk; the page- and
// block-granular tables themselves are shared until written.
//
// The clone shares only immutable state with the original — the
// configuration, the translation table, the loaded program, the
// compiler's liveness metadata, and the per-instruction cost table, none
// of which Run mutates — so the clone and the original may be driven
// concurrently from different goroutines. The Device itself is still
// single-goroutine: clone once per worker.
func (d *Device) Clone() *Device {
	en := d.En.Clone()
	arr := d.Flash.Clone(en)
	c := &Device{
		Cfg:   d.Cfg,
		En:    en,
		Flash: arr,
		DRAM:  d.DRAM.Clone(en),
		Core:  d.Core.Clone(en),
		FTL:   d.FTL.Clone(arr),

		mode:  d.mode,
		prog:  d.prog,  // immutable after LoadProgram
		table: d.table, // read-only after construction

		dramSlot:  append([]int32(nil), d.dramSlot...),
		slotOwner: append([]isa.PageID(nil), d.slotOwner...),
		slotClock: append([]int64(nil), d.slotClock...),
		clock:     d.clock,
		freeFrom:  d.freeFrom,

		bufferTag: append([]isa.PageID(nil), d.bufferTag...),
		pagePlane: append([]int16(nil), d.pagePlane...),
		pageReady: d.pageReady.Clone(),

		accesses: d.accesses, // read-only after LoadProgram
		output:   d.output,   // read-only after LoadProgram
		costs:    d.costs,    // read-only after LoadProgram

		firmware:     d.firmware,
		offloadCores: d.offloadCores.Clone(),
		ifpCursor:    d.ifpCursor,
		curInst:      d.curInst,

		faults: maps.Clone(d.faults),

		baseline: d.baseline,
		consumed: d.consumed,
	}
	if d.Dir != nil {
		c.Dir = d.Dir.Clone()
	}
	return c
}
