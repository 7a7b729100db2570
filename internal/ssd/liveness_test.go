package ssd

import (
	"testing"

	"conduit/internal/config"
	"conduit/internal/ftl"
	"conduit/internal/isa"
)

// Liveness-driven write-back elision: dead temporaries must never cost a
// flash program, while live (output or still-read) pages must survive.

func livenessProgram(t *testing.T, ps int) (*isa.Program, map[isa.PageID][]byte) {
	t.Helper()
	inputs := map[isa.PageID][]byte{
		0: randPage(1, ps),
		1: randPage(2, ps),
	}
	// Page 3 is a temp: written, read once, then overwritten (dead in
	// between). Page 4 is the output.
	prog := &isa.Program{
		Name:  "liveness",
		Pages: 6,
		Insts: []isa.Inst{
			{ID: 0, Op: isa.OpAdd, Dst: 3, Src: [isa.MaxSrcs]isa.PageID{0, 1}, NSrc: 2, Elem: 1, Lanes: int32(ps)},
			{ID: 1, Op: isa.OpMul, Dst: 4, Src: [isa.MaxSrcs]isa.PageID{3, 0}, NSrc: 2, Elem: 1, Lanes: int32(ps)},
			{ID: 2, Op: isa.OpAdd, Dst: 3, Src: [isa.MaxSrcs]isa.PageID{1, 1}, NSrc: 2, Elem: 1, Lanes: int32(ps)}, // overwrites temp
			{ID: 3, Op: isa.OpXor, Dst: 4, Src: [isa.MaxSrcs]isa.PageID{4, 3}, NSrc: 2, Elem: 1, Lanes: int32(ps)},
		},
		InputPages:  []isa.PageID{0, 1},
		OutputPages: []isa.PageID{4},
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	return prog, inputs
}

func TestDeadAfterSemantics(t *testing.T) {
	cfg := config.TestScale()
	prog, inputs := livenessProgram(t, cfg.SSD.PageSize)
	d := New(&cfg)
	if err := d.LoadProgram(prog, inputs); err != nil {
		t.Fatal(err)
	}
	// Page 3's value after inst 0 is read at inst 1: alive.
	if d.deadAfter(3, 0) {
		t.Error("temp is read at inst 1: alive after inst 0")
	}
	// After inst 1 it is only overwritten (inst 2): dead.
	if !d.deadAfter(3, 1) {
		t.Error("temp's next access is a write: dead after inst 1")
	}
	// After its last read (inst 3) it is dead (not an output).
	if !d.deadAfter(3, 3) {
		t.Error("temp has no further accesses and is not an output: dead")
	}
	// The output page is never dead at end of program.
	if d.deadAfter(4, 3) {
		t.Error("output page must stay live")
	}
	// But an output's stale version is dead when it will be overwritten
	// before any read (inst 1 writes page 4 fresh... page 4 read at 3).
	if d.deadAfter(4, 1) {
		t.Error("output read at inst 3: alive after inst 1")
	}
}

func TestLivenessMetadataOptional(t *testing.T) {
	cfg := config.TestScale()
	prog, inputs := livenessProgram(t, cfg.SSD.PageSize)
	prog.OutputPages = nil // no metadata: everything conservative-live
	d := New(&cfg)
	if err := d.LoadProgram(prog, inputs); err != nil {
		t.Fatal(err)
	}
	if d.deadAfter(3, 3) {
		t.Error("without liveness metadata every page must stay live at end")
	}
	// Intermediate overwrites still make versions dead (that is a
	// property of the access sequence, not of the output set).
	if !d.deadAfter(3, 1) {
		t.Error("overwritten-before-read is dead regardless of metadata")
	}
}

func TestOperandGroupsRespectBlockCap(t *testing.T) {
	// A chain touching more pages than one block can hold must be split,
	// not funneled into a single class.
	cfg := config.TestScale()
	ps := cfg.SSD.PageSize
	nPages := cfg.SSD.PagesPerBlock + 40
	inputs := map[isa.PageID][]byte{}
	var ids []isa.PageID
	var insts []isa.Inst
	for i := 0; i < nPages; i++ {
		inputs[isa.PageID(i)] = randPage(uint64(i), ps)
		ids = append(ids, isa.PageID(i))
	}
	// hub XORs chain every page together transitively.
	for i := 0; i+1 < nPages; i++ {
		insts = append(insts, isa.Inst{Op: isa.OpXor,
			Dst: isa.PageID(nPages),
			Src: [isa.MaxSrcs]isa.PageID{isa.PageID(i), isa.PageID(i + 1)}, NSrc: 2, Elem: 1, Lanes: int32(ps)})
	}
	prog := buildProg(t, nPages+1, ids, insts)
	d := New(&cfg)
	if err := d.LoadProgram(prog, inputs); err != nil {
		t.Fatal(err)
	}
	// If everything landed in one class, loading would have failed (a
	// block holds PagesPerBlock pages) or all pages would share a plane.
	planes := map[int]bool{}
	geo := d.Flash.Geometry()
	for _, p := range ids {
		a, ok := d.FTL.PhysAddr(ftl.LPN(p))
		if !ok {
			t.Fatalf("page %d unmapped", p)
		}
		planes[geo.PlaneIndex(a)] = true
	}
	if len(planes) < 2 {
		t.Error("capped union must spread chains across planes")
	}
}
