package ssd

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"conduit/internal/coherence"
	"conduit/internal/compiler"
	"conduit/internal/config"
	"conduit/internal/cores"
	"conduit/internal/dram"
	"conduit/internal/ftl"
	"conduit/internal/isa"
	"conduit/internal/nand"
	"conduit/internal/sim"
	"conduit/internal/workloads"
)

// requireIndexesMatchScan checks every index-addressed table of the
// per-instruction path against the table it inverts, by full scan.
func requireIndexesMatchScan(t *testing.T, what string, d *Device) {
	t.Helper()
	for slot, owner := range d.slotOwner {
		if d.DRAM.Populated(slot) != (owner != isa.NoPage) {
			t.Fatalf("%s: slot %d populated=%v but owner=%d", what, slot, d.DRAM.Populated(slot), owner)
		}
		if owner != isa.NoPage && d.dramSlot[owner] != int32(slot) {
			t.Fatalf("%s: slot %d holds page %d, but dramSlot[%d]=%d", what, slot, owner, owner, d.dramSlot[owner])
		}
		if free := d.freeSlots[slot/64]&(1<<(slot%64)) != 0; free != (owner == isa.NoPage) {
			t.Fatalf("%s: slot %d has free bit %v but owner=%d", what, slot, free, owner)
		}
	}
	if n := len(d.slotOwner); len(d.freeSlots) != (n+63)/64 || n%64 != 0 && d.freeSlots[n/64]>>(n%64) != 0 {
		t.Fatalf("%s: %d free-slot words with bits past slot %d", what, len(d.freeSlots), n)
	}
	for plane, tag := range d.bufferTag {
		if tag != isa.NoPage && d.pagePlane[tag] != int16(plane) {
			t.Fatalf("%s: plane %d tagged with page %d, but pagePlane[%d]=%d", what, plane, tag, tag, d.pagePlane[tag])
		}
	}
	for p := range d.dramSlot {
		if slot, ok := d.slotOf(isa.PageID(p)); ok && d.slotOwner[slot] != isa.PageID(p) {
			t.Fatalf("%s: dramSlot[%d]=%d, but that slot holds page %d", what, p, slot, d.slotOwner[slot])
		}
		if plane, ok := d.bufferPlane(isa.PageID(p)); ok && d.bufferTag[plane] != isa.PageID(p) {
			t.Fatalf("%s: pagePlane[%d]=%d, but that plane is tagged %d", what, p, plane, d.bufferTag[plane])
		}
	}
}

// TestIndexesMatchScan runs every evaluated workload under every device
// policy and requires the page->slot and page->plane reverse indexes, the
// free-slot bitmap and the DRAM module's populated bits to agree with a
// scan of slotOwner and bufferTag — after the run, and again after the
// power cycle that drops all volatile state.
func TestIndexesMatchScan(t *testing.T) {
	cfg := config.Default()
	cfg.SSD.TimingOnly = true
	for _, w := range workloads.All(1) {
		c, err := compiler.Compile(w.Source, cfg.SSD.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		master := New(&cfg)
		if err := master.LoadProgram(c.Prog, nil); err != nil {
			t.Fatal(err)
		}
		master.EnterComputationMode()
		for _, pol := range allPolicies() {
			d := master.Clone()
			what := w.Name + "/" + pol.Name()
			if _, err := d.Run(pol); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			requireIndexesMatchScan(t, what, d)
		}
	}
}

// TestCounterNamesSorted pins what Result.Counters relies on: counterNames
// is sorted and distinct, and each substrate's AppendCounts appends one
// value per name of its CounterNames.
func TestCounterNamesSorted(t *testing.T) {
	prog, inputs := mixProgram(t, 1)
	d := newLoadedDevice(t, prog, inputs)
	for _, sub := range []struct {
		names  []string
		counts []int64
	}{
		{cores.CounterNames[:], d.Core.AppendCounts(nil)},
		{dram.CounterNames[:], d.DRAM.AppendCounts(nil)},
		{nand.CounterNames[:], d.Flash.AppendCounts(nil)},
		{ftl.CounterNames[:], d.FTL.AppendCounts(nil)},
	} {
		if len(sub.counts) != len(sub.names) {
			t.Errorf("%v: AppendCounts appends %d values", sub.names, len(sub.counts))
		}
	}
	for i := 1; i < len(counterNames); i++ {
		if counterNames[i-1] >= counterNames[i] {
			t.Fatalf("counterNames is not sorted and distinct: %v", counterNames)
		}
	}
}

// TestUntaggedLatchOwnerFails: a page the directory places in a plane
// buffer that no buffer is tagged with is a broken invariant; staging it
// must fail, not read plane 0's latches.
func TestUntaggedLatchOwnerFails(t *testing.T) {
	prog, inputs := mixProgram(t, 1)
	d := newLoadedDevice(t, prog, inputs)
	d.Dir.Modify(0, coherence.LocBuffer)
	if _, _, err := d.ensureInDRAM(0, 0, 0); err == nil || !strings.Contains(err.Error(), "not tagged") {
		t.Fatalf("ensureInDRAM of an untagged latch-owned page: err = %v, want a 'not tagged' error", err)
	}
	if _, err := d.PageBytes(0); err == nil || !strings.Contains(err.Error(), "not tagged") {
		t.Fatalf("PageBytes of an untagged latch-owned page: err = %v, want a 'not tagged' error", err)
	}
}

// TestAllocSlotTakesTheLowestFreeSlot: over a random sequence of stagings
// (each evicting the least recently used page once every slot is taken)
// and frees, on a drive with fewer DRAM slots than the program names
// pages, allocSlot takes the slot a linear scan of slotOwner finds, the
// lowest free one, and the free-slot bitmap keeps matching the scan.
func TestAllocSlotTakesTheLowestFreeSlot(t *testing.T) {
	cfg := config.Default()
	cfg.SSD.TimingOnly = true
	cfg.SSD.DRAMSize = int64(96 * cfg.SSD.PageSize) // 84 usable slots
	var prog *isa.Program
	for _, w := range workloads.All(1) {
		c, err := compiler.Compile(w.Source, cfg.SSD.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if prog == nil || c.Prog.Span() > prog.Span() {
			prog = c.Prog
		}
	}
	d := New(&cfg)
	if err := d.LoadProgram(prog, nil); err != nil {
		t.Fatal(err)
	}
	slots, span := len(d.slotOwner), len(d.dramSlot)
	if slots >= span {
		t.Fatalf("%d slots for a span of %d pages: nothing would be evicted", slots, span)
	}
	r := sim.NewRNG(42)
	evictions := 0
	for step := 0; step < 20000; step++ {
		if r.Intn(4) == 0 {
			if s := r.Intn(slots); d.slotOwner[s] != isa.NoPage {
				d.freeSlot(s)
			}
			continue
		}
		p := isa.PageID(r.Intn(span))
		if _, ok := d.slotOf(p); ok {
			continue
		}
		want := slices.Index(d.slotOwner, isa.NoPage)
		if want < 0 {
			want = 0
			for s := range d.slotClock {
				if d.slotClock[s] < d.slotClock[want] {
					want = s
				}
			}
			evictions++
		}
		slot, _, err := d.saveToDRAM(0, 0, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if slot != want {
			t.Fatalf("step %d: allocSlot took slot %d, the scan finds %d", step, slot, want)
		}
		requireIndexesMatchScan(t, fmt.Sprintf("step %d", step), d)
	}
	if evictions == 0 {
		t.Fatal("no staging found every slot taken")
	}
}
