package ftl

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"conduit/internal/config"
	"conduit/internal/energy"
	"conduit/internal/nand"
	"conduit/internal/sim"
	"conduit/internal/stats"
)

func newTestFTL() (*FTL, *nand.Array, *config.SSD) {
	cfg := config.TestScale()
	arr := nand.NewArray(&cfg.SSD, energy.NewAccount())
	return New(&cfg.SSD, arr), arr, &cfg.SSD
}

func page(cfg *config.SSD, b byte) []byte {
	p := make([]byte, cfg.PageSize)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestWriteReadRoundTrip(t *testing.T) {
	f, _, cfg := newTestFTL()
	data := page(cfg, 0x5A)
	done, err := f.Write(0, 3, data, -1)
	if err != nil {
		t.Fatal(err)
	}
	got, rdone, err := f.Read(done, done, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back different data")
	}
	if rdone <= done {
		t.Fatal("read must consume time")
	}
}

func TestOverwriteRemapsAndInvalidates(t *testing.T) {
	f, _, cfg := newTestFTL()
	if _, err := f.Write(0, 1, page(cfg, 1), -1); err != nil {
		t.Fatal(err)
	}
	first, _ := f.PhysAddr(1)
	if _, err := f.Write(0, 1, page(cfg, 2), -1); err != nil {
		t.Fatal(err)
	}
	second, _ := f.PhysAddr(1)
	if first == second {
		t.Fatal("overwrite must map to a new physical page (no in-place update)")
	}
	got, _, _ := f.Read(0, 0, 1)
	if got[0] != 2 {
		t.Fatal("read did not return latest copy")
	}
}

func TestUnmappedRead(t *testing.T) {
	f, _, _ := newTestFTL()
	if _, _, err := f.Read(0, 0, 9); err == nil {
		t.Fatal("reading unmapped LPN should fail")
	}
	if _, ok := f.PhysAddr(9); ok {
		t.Fatal("LPN 9 should be unmapped")
	}
}

func TestLookupLatencyCacheHitVsMiss(t *testing.T) {
	f, _, cfg := newTestFTL()
	if _, err := f.Write(0, 0, page(cfg, 1), -1); err != nil {
		t.Fatal(err)
	}
	// The write warmed the cache, so the first lookup hits.
	_, lat, err := f.Lookup(0)
	if err != nil {
		t.Fatal(err)
	}
	if lat != cfg.TL2PLookupDRAM {
		t.Fatalf("warm lookup = %v, want DRAM latency %v", lat, cfg.TL2PLookupDRAM)
	}
	// Flood the cache with other entries to evict LPN 0.
	capEntries := int(float64(cfg.UsablePages()) * cfg.MappingCacheRatio)
	for i := 1; i <= capEntries+1; i++ {
		f.cache.insert(LPN(i))
	}
	_, lat, err = f.Lookup(0)
	if err != nil {
		t.Fatal(err)
	}
	if lat != cfg.TL2PLookupFlash {
		t.Fatalf("cold lookup = %v, want flash latency %v", lat, cfg.TL2PLookupFlash)
	}
	st := stats.CountersOf(CounterNames[:], f.AppendCounts(nil))
	if st.Get("map_hits") < 1 || st.Get("map_misses") < 1 {
		t.Fatalf("counters = %v %v", st.Names(), f.AppendCounts(nil))
	}
}

// physAddrs maps lpns to their physical pages; an unmapped one fails t.
func physAddrs(t *testing.T, f *FTL, lpns []LPN) []nand.Addr {
	t.Helper()
	addrs := make([]nand.Addr, len(lpns))
	for i, lpn := range lpns {
		a, ok := f.PhysAddr(lpn)
		if !ok {
			t.Fatalf("LPN %d is unmapped", lpn)
		}
		addrs[i] = a
	}
	return addrs
}

func TestWriteRunPlacesSameBlock(t *testing.T) {
	f, _, cfg := newTestFTL()
	lpns := []LPN{10, 11, 12, 13}
	data := make([][]byte, len(lpns))
	for i := range data {
		data[i] = page(cfg, byte(i))
	}
	if _, err := f.WriteRun(0, lpns, data, 2); err != nil {
		t.Fatal(err)
	}
	if !f.geo.SameBlock(physAddrs(t, f, lpns)) {
		t.Fatal("WriteRun must co-locate pages in one block")
	}
	if !f.geo.SamePlane(physAddrs(t, f, lpns)) {
		t.Fatal("WriteRun pages must share a plane")
	}
	a, _ := f.PhysAddr(lpns[0])
	if pl := f.Planes(); pl > 0 {
		geo := nand.NewGeometry(cfg)
		if geo.PlaneIndex(a) != 2 {
			t.Fatalf("run landed on plane %d, want 2", geo.PlaneIndex(a))
		}
	}
}

func TestWriteRunNeverStraddlesBlocks(t *testing.T) {
	f, _, cfg := newTestFTL()
	// Fill most of a block on plane 0, then request a run that would not
	// fit in the remainder.
	fillCount := cfg.PagesPerBlock - 2
	for i := 0; i < fillCount; i++ {
		if _, err := f.Write(0, LPN(i), page(cfg, 1), 0); err != nil {
			t.Fatal(err)
		}
	}
	lpns := []LPN{100, 101, 102, 103}
	data := [][]byte{page(cfg, 1), page(cfg, 2), page(cfg, 3), page(cfg, 4)}
	if _, err := f.WriteRun(0, lpns, data, 0); err != nil {
		t.Fatal(err)
	}
	if !f.geo.SameBlock(physAddrs(t, f, lpns)) {
		t.Fatal("run straddled a block boundary")
	}
	// A run larger than a block is impossible.
	big := make([]LPN, cfg.PagesPerBlock+1)
	bigData := make([][]byte, len(big))
	for i := range big {
		big[i] = LPN(200 + i)
		bigData[i] = page(cfg, 0)
	}
	if _, err := f.WriteRun(0, big, bigData, 0); err == nil {
		t.Fatal("run larger than a block should fail")
	}
}

func TestGarbageCollectionReclaimsSpace(t *testing.T) {
	f, arr, cfg := newTestFTL()
	// Keep overwriting a small working set on one plane until GC must run
	// to keep the plane writable. Logical data must survive.
	workingSet := 8
	writes := cfg.BlocksPerPlane*cfg.PagesPerBlock + 50
	expect := map[LPN]byte{}
	var now sim.Time
	for w := 0; w < writes; w++ {
		lpn := LPN(w % workingSet)
		done, err := f.Write(now, lpn, page(cfg, byte(w)), 0)
		if err != nil {
			t.Fatalf("write %d: %v", w, err)
		}
		now = done
		expect[lpn] = byte(w)
	}
	if stats.CountersOf(CounterNames[:], f.AppendCounts(nil)).Get("gc_runs") == 0 {
		t.Fatal("GC never ran despite write pressure")
	}
	// Verify the latest contents survived GC relocation.
	for lpn, want := range expect {
		got, _, err := f.Read(now, now, lpn)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want {
			t.Fatalf("LPN %d = %d after GC, want %d", lpn, got[0], want)
		}
	}
	// Some blocks must have been erased more than once.
	erased := 0
	for b := 0; b < cfg.BlocksPerPlane; b++ {
		if arr.EraseCount(b) > 0 {
			erased++
		}
	}
	if erased == 0 {
		t.Fatal("no block was ever erased")
	}
}

func TestWearLevelingPrefersLeastErased(t *testing.T) {
	f, arr, cfg := newTestFTL()
	// Hammer one plane long enough for several GC cycles.
	writes := 3 * cfg.BlocksPerPlane * cfg.PagesPerBlock
	var now sim.Time
	for w := 0; w < writes; w++ {
		done, err := f.Write(now, LPN(w%4), page(cfg, byte(w)), 0)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	// Wear must be spread: max/min erase spread across the plane's blocks
	// should stay small because allocation prefers least-erased blocks.
	minE, maxE := 1<<30, 0
	for b := 0; b < cfg.BlocksPerPlane; b++ {
		e := arr.EraseCount(b)
		if e < minE {
			minE = e
		}
		if e > maxE {
			maxE = e
		}
	}
	if maxE-minE > 3 {
		t.Fatalf("wear spread too high: min %d max %d", minE, maxE)
	}
}

func TestMigrateColocatesScatteredPages(t *testing.T) {
	f, _, cfg := newTestFTL()
	lpns := []LPN{20, 21, 22}
	// Scatter across planes.
	for i, lpn := range lpns {
		if _, err := f.Write(0, lpn, page(cfg, byte(10+i)), i%f.Planes()); err != nil {
			t.Fatal(err)
		}
	}
	if f.geo.SameBlock(physAddrs(t, f, lpns)) {
		t.Fatal("fixture should start scattered")
	}
	done, err := f.Migrate(0, lpns, 1)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatal("migration must take time")
	}
	if !f.geo.SameBlock(physAddrs(t, f, lpns)) {
		t.Fatal("Migrate must co-locate the pages")
	}
	for i, lpn := range lpns {
		got, _, _ := f.Read(done, done, lpn)
		if got[0] != byte(10+i) {
			t.Fatalf("LPN %d lost its data in migration", lpn)
		}
	}
}

func TestInvalidateUnmaps(t *testing.T) {
	f, _, cfg := newTestFTL()
	if _, err := f.Write(0, 5, page(cfg, 1), -1); err != nil {
		t.Fatal(err)
	}
	f.Invalidate(5)
	if _, ok := f.PhysAddr(5); ok {
		t.Fatal("invalidate should unmap")
	}
	f.Invalidate(5) // idempotent
}

// Property: under random writes and overwrites, the L2P map stays
// injective (no two LPNs share a physical page) and reads always return
// the last written value.
func TestL2PInjectivityUnderWriteStorm(t *testing.T) {
	cfg := config.TestScale()
	f := func(seed uint64) bool {
		arr := nand.NewArray(&cfg.SSD, energy.NewAccount())
		ftl := New(&cfg.SSD, arr)
		r := sim.NewRNG(seed)
		latest := map[LPN]byte{}
		var now sim.Time
		for w := 0; w < 400; w++ {
			lpn := LPN(r.Intn(16))
			val := byte(r.Intn(256))
			done, err := ftl.Write(now, lpn, page(&cfg.SSD, val), r.Intn(ftl.Planes()+1)-1)
			if err != nil {
				return false
			}
			now = done
			latest[lpn] = val
		}
		// Injectivity.
		seen := map[string]bool{}
		for lpn := range latest {
			a, ok := ftl.PhysAddr(lpn)
			if !ok {
				return false
			}
			k := fmt.Sprint(a)
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		// Durability.
		for lpn, val := range latest {
			got, _, err := ftl.Read(now, now, lpn)
			if err != nil || got[0] != val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestDriveFullError(t *testing.T) {
	cfg := config.TestScale()
	// Tiny geometry so the plane fills fast even after GC.
	cfg.SSD.BlocksPerPlane = 2
	cfg.SSD.PagesPerBlock = 4
	arr := nand.NewArray(&cfg.SSD, energy.NewAccount())
	f := New(&cfg.SSD, arr)
	var now sim.Time
	var sawErr bool
	for w := 0; w < 64; w++ {
		done, err := f.Write(now, LPN(w), page(&cfg.SSD, 1), 0) // unique LPNs: nothing to reclaim
		if err != nil {
			sawErr = true
			break
		}
		now = done
	}
	if !sawErr {
		t.Fatal("filling a plane with live data must eventually error, not wedge")
	}
}
