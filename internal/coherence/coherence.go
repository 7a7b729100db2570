package coherence

import "fmt"

// Location identifies where the latest copy of a logical page lives.
type Location uint8

// Page locations.
const (
	LocFlash  Location = iota // NAND flash (the home location)
	LocDRAM                   // SSD-internal DRAM slot
	LocBuffer                 // a plane's page-buffer latches
)

// String names the location.
func (l Location) String() string {
	return [...]string{"flash", "dram", "buffer"}[l]
}

// maxVersion is the wrap limit of the one-byte version counter. The
// protocol flushes a page before its counter can wrap (§4.4 footnote 4).
const maxVersion = 255

// entry is one page's coherence metadata. Of the paper's three L2P
// fields the modification state is implied by the version: a page is
// dirty exactly when it has been modified since its last sync, that is
// when its version is above 0.
type entry struct {
	owner   Location
	version uint8
}

// Directory tracks coherence metadata for every logical page.
type Directory struct {
	entries []entry
}

// NewDirectory creates metadata for pages logical pages, all initially
// clean and flash-resident.
func NewDirectory(pages int) *Directory {
	return &Directory{entries: make([]entry, pages)}
}

// Owner reports which resource holds the latest copy of page p.
func (d *Directory) Owner(p int) Location { return d.entries[p].owner }

// NeedsFlush reports whether page p must be committed to flash before the
// next modification (version counter about to wrap).
func (d *Directory) NeedsFlush(p int) bool {
	return d.entries[p].version >= maxVersion
}

// Modify records that owner produced a new version of page p. Per §4.4:
// the owner field moves to the modifying resource and the version
// increments, which makes the page dirty. Repeated modification by the same
// owner only bumps the version. It panics if the version would wrap —
// the runtime must honor NeedsFlush first; wrapping silently would
// break stale-copy detection.
func (d *Directory) Modify(p int, owner Location) {
	e := &d.entries[p]
	if e.version >= maxVersion {
		panic(fmt.Sprintf("coherence: page %d version would wrap; flush first", p))
	}
	e.owner = owner
	e.version++
}

// Relocate records that the latest version of page p moved to owner
// without being modified (e.g. a latch-resident result copied out to DRAM
// before the latches are reused). The version is unchanged.
func (d *Directory) Relocate(p int, owner Location) {
	d.entries[p].owner = owner
}

// Sync records that page p was committed to NAND flash — by an eviction
// (a §4.4 synchronization trigger) or a flush before its version counter
// wraps: the owner reverts to flash and the version resets to 0, which
// makes the page clean.
func (d *Directory) Sync(p int) {
	d.entries[p] = entry{owner: LocFlash}
}

// Restore makes d an independent copy of src in place, reusing d's entry
// storage. Restoring into a zero Directory is how a directory is cloned.
func (d *Directory) Restore(src *Directory) {
	d.entries = append(d.entries[:0], src.entries...)
}
