package coherence

import (
	"testing"
	"testing/quick"
)

func TestInitialStateFlashClean(t *testing.T) {
	d := NewDirectory(4)
	for p := 0; p < 4; p++ {
		e := d.entries[p]
		if e.owner != LocFlash || e.version != 0 {
			t.Fatalf("page %d initial entry = %+v", p, e)
		}
	}
	if len(d.entries) != 4 {
		t.Fatal("wrong page count")
	}
}

func TestModifyTransfersOwnershipAndBumpsVersion(t *testing.T) {
	d := NewDirectory(2)
	d.Modify(0, LocDRAM)
	e := d.entries[0]
	if e.owner != LocDRAM || e.version != 1 {
		t.Fatalf("after modify: %+v", e)
	}
	// Same-owner modification only bumps the version (§4.4).
	d.Modify(0, LocDRAM)
	if got := d.entries[0]; got.version != 2 || got.owner != LocDRAM {
		t.Fatalf("after second modify: %+v", got)
	}
	// A different resource taking over changes the owner.
	d.Modify(0, LocBuffer)
	if got := d.entries[0]; got.owner != LocBuffer || got.version != 3 {
		t.Fatalf("after buffer modify: %+v", got)
	}
}

func TestSyncCommitsToFlashAndResets(t *testing.T) {
	d := NewDirectory(1)
	d.Modify(0, LocDRAM)
	d.Sync(0)
	e := d.entries[0]
	if e.owner != LocFlash || e.version != 0 {
		t.Fatalf("after sync: %+v", e)
	}
}

func TestVersionWrapIsPreventedByFlush(t *testing.T) {
	d := NewDirectory(1)
	for i := 0; i < 255; i++ {
		if d.NeedsFlush(0) {
			t.Fatalf("premature NeedsFlush at version %d", i)
		}
		d.Modify(0, LocDRAM)
	}
	if !d.NeedsFlush(0) {
		t.Fatal("NeedsFlush must trigger at the wrap limit")
	}
	// Flushing resets the counter and modification proceeds.
	d.Sync(0)
	d.Modify(0, LocDRAM)
	if d.entries[0].version != 1 {
		t.Fatal("version should restart after flush")
	}
}

func TestVersionWrapPanics(t *testing.T) {
	d := NewDirectory(1)
	for i := 0; i < 255; i++ {
		d.Modify(0, LocDRAM)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("modifying past the wrap limit must panic")
		}
	}()
	d.Modify(0, LocDRAM)
}

// Property: after any interleaving of modifications and syncs, the
// invariants hold: a page is dirty (version > 0) exactly when it was
// modified since its last sync, and its owner is flash whenever it is
// clean (version 0).
func TestProtocolInvariantsProperty(t *testing.T) {
	f := func(script []uint8) bool {
		d := NewDirectory(3)
		var modified [3]bool // modified since the page's last sync
		for _, b := range script {
			p := int(b) % 3
			switch (b >> 4) % 3 {
			case 0:
				if !d.NeedsFlush(p) {
					d.Modify(p, LocDRAM)
					modified[p] = true
				}
			case 1:
				if !d.NeedsFlush(p) {
					d.Modify(p, LocBuffer)
					modified[p] = true
				}
			case 2:
				d.Sync(p)
				modified[p] = false
			}
			e := d.entries[p]
			dirty := e.version > 0
			if dirty != modified[p] {
				return false
			}
			if !dirty && e.owner != LocFlash {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStringers(t *testing.T) {
	if LocFlash.String() != "flash" || LocDRAM.String() != "dram" || LocBuffer.String() != "buffer" {
		t.Fatal("location names wrong")
	}
}
