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

// State is the modification state of a page.
type State uint8

// Modification states.
const (
	Clean State = iota
	Dirty
)

// String names the state.
func (s State) String() string {
	return [...]string{"clean", "dirty"}[s]
}

// SyncReason enumerates the five §4.4 synchronization triggers.
type SyncReason uint8

// Synchronization triggers.
const (
	SyncCrossResource SyncReason = iota // another resource requests the page
	SyncHostTransfer                    // result returned to the host
	SyncEviction                        // temporary location reclaimed
	SyncGC                              // FTL garbage collection touches it
	SyncPowerCycle                      // device power cycle
	numSyncReasons
)

// String names the trigger.
func (r SyncReason) String() string {
	return [...]string{"cross-resource", "host-transfer", "eviction", "gc", "power-cycle"}[r]
}

// maxVersion is the wrap limit of the one-byte version counter. The
// protocol flushes a page before its counter can wrap (§4.4 footnote 4).
const maxVersion = 255

// Entry is one page's coherence metadata (the three L2P fields).
type Entry struct {
	Owner   Location
	State   State
	Version uint8
}

// Directory tracks coherence metadata for every logical page.
type Directory struct {
	entries []Entry
	syncs   [numSyncReasons]int64
	mods    int64
}

// NewDirectory creates metadata for pages logical pages, all initially
// clean and flash-resident.
func NewDirectory(pages int) *Directory {
	return &Directory{entries: make([]Entry, pages)}
}

// Pages reports the tracked page count.
func (d *Directory) Pages() int { return len(d.entries) }

// Entry returns the metadata of page p.
func (d *Directory) Entry(p int) Entry { return d.entries[p] }

// Owner reports which resource holds the latest copy of page p.
func (d *Directory) Owner(p int) Location { return d.entries[p].Owner }

// NeedsFlush reports whether page p must be committed to flash before the
// next modification (version counter about to wrap).
func (d *Directory) NeedsFlush(p int) bool {
	return d.entries[p].Version >= maxVersion
}

// Modify records that owner produced a new version of page p. Per §4.4:
// the owner field moves to the modifying resource, the state becomes
// dirty, and the version increments. Repeated modification by the same
// owner only bumps the version. It panics if the version would wrap —
// the runtime must honor NeedsFlush first; wrapping silently would
// break stale-copy detection.
func (d *Directory) Modify(p int, owner Location) {
	e := &d.entries[p]
	if e.Version >= maxVersion {
		panic(fmt.Sprintf("coherence: page %d version would wrap; flush first", p))
	}
	e.Owner = owner
	e.State = Dirty
	e.Version++
	d.mods++
}

// Relocate records that the latest version of page p moved to owner
// without being modified (e.g. a latch-resident result copied out to DRAM
// before the latches are reused). State and version are unchanged.
func (d *Directory) Relocate(p int, owner Location) {
	d.entries[p].Owner = owner
}

// IsStale reports whether a copy of page p held at loc with version v is
// out of date.
func (d *Directory) IsStale(p int, loc Location, v uint8) bool {
	e := d.entries[p]
	return loc != e.Owner || v != e.Version
}

// Sync records that page p was committed to NAND flash because of reason:
// the owner reverts to flash, the state to clean, and the version resets
// (§4.4). It reports whether the page was actually dirty (i.e. a write-back
// was required).
func (d *Directory) Sync(p int, reason SyncReason) bool {
	e := &d.entries[p]
	wasDirty := e.State == Dirty
	e.Owner = LocFlash
	e.State = Clean
	e.Version = 0
	d.syncs[reason]++
	return wasDirty
}

// SyncCount reports how many synchronizations each trigger caused.
func (d *Directory) SyncCount(r SyncReason) int64 { return d.syncs[r] }

// Restore makes d an independent copy of src in place, reusing d's entry
// storage. Restoring into a zero Directory is how a directory is cloned.
func (d *Directory) Restore(src *Directory) {
	d.entries = append(d.entries[:0], src.entries...)
	d.syncs = src.syncs
	d.mods = src.mods
}

// Modifications reports the total number of recorded modifications.
func (d *Directory) Modifications() int64 { return d.mods }
