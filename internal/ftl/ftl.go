package ftl

import (
	"fmt"

	"conduit/internal/config"
	"conduit/internal/cow"
	"conduit/internal/nand"
	"conduit/internal/sim"
)

// LPN is a logical page number.
type LPN int32

// FTL owns the logical address space of the drive.
type FTL struct {
	cfg *config.SSD
	geo nand.Geometry
	arr *nand.Array

	// Page- and block-granular tables, copy-on-write so deployment
	// forks share unwritten leaves with the frozen master.
	l2p        cow.Table[int32] // LPN -> flat physical page index, -1 if unmapped
	p2l        cow.Table[LPN]   // physical page -> LPN, -1 if free/invalid
	validCount cow.Table[int32] // valid pages per block
	// freeBlocks holds every plane's free list, in list order, in the
	// plane's own region [plane*BlocksPerPlane, +planes[plane].free).
	freeBlocks cow.Table[int32]

	planes []planeAlloc // per-plane allocation state

	cache *mappingCache

	nextPlane int // round-robin cursor for unconstrained allocation

	gcRuns, migrations, mapMisses, mapHits int64
}

// New builds an FTL over arr.
func New(cfg *config.SSD, arr *nand.Array) *FTL {
	geo := arr.Geometry()
	planes := cfg.Channels * cfg.DiesPerChannel * cfg.PlanesPerDie
	f := &FTL{
		cfg:        cfg,
		geo:        geo,
		arr:        arr,
		l2p:        cow.New[int32](cfg.UsablePages(), -1),
		p2l:        cow.New[LPN](cfg.TotalPages(), -1),
		validCount: cow.New[int32](geo.TotalBlocks(), 0),
		freeBlocks: cow.New[int32](geo.TotalBlocks(), 0),
		planes:     make([]planeAlloc, planes),
		cache:      newMappingCache(int(float64(cfg.UsablePages()) * cfg.MappingCacheRatio)),
	}
	for p := range f.planes {
		f.planes[p].active = -1
	}
	// Seed per-plane free lists with every block.
	for b := 0; b < geo.TotalBlocks(); b++ {
		f.pushFreeBlock(geo.PlaneIndex(geo.BlockAddrOf(b)), b)
	}
	return f
}

// planeAlloc is one plane's allocation cursor, which every clone copies:
// int32 fields suffice, since config.Validate holds pages to int32 indexes.
type planeAlloc struct {
	active   int32 // current write block, -1 if none
	nextPage int32 // next page offset within the active block
	free     int32 // length of the plane's free list in freeBlocks
}

// Planes reports the number of allocation planes.
func (f *FTL) Planes() int { return len(f.planes) }

// Capacity reports the logical capacity in pages.
func (f *FTL) Capacity() int { return f.l2p.Len() }

// lpnError is the panic value for an LPN outside [0, Capacity).
// Panicking with a value (no call on the hot path) keeps checkLPN within
// the inlining budget.
type lpnError struct {
	lpn LPN
	n   int
}

func (e lpnError) Error() string {
	return fmt.Sprintf("ftl: LPN %d out of range [0,%d)", e.lpn, e.n)
}

func (f *FTL) checkLPN(lpn LPN) int {
	if uint(lpn) >= uint(f.l2p.Len()) {
		panic(lpnError{lpn, f.l2p.Len()})
	}
	return int(lpn)
}

// Lookup translates lpn to its flat physical page index (PageIndex's
// numbering; nand.Geometry.Locate places it) and reports the translation
// latency: a cached mapping entry costs TL2PLookupDRAM; a miss fetches
// the entry from flash (TL2PLookupFlash) and installs it in the cache
// (DFTL demand caching).
func (f *FTL) Lookup(lpn LPN) (int, sim.Time, error) {
	i := f.checkLPN(lpn)
	page := int(f.l2p.At(i))
	if page == -1 {
		return 0, 0, fmt.Errorf("ftl: LPN %d is unmapped", lpn)
	}
	var lat sim.Time
	if f.cache.touch(lpn) {
		f.mapHits++
		lat = f.cfg.TL2PLookupDRAM
	} else {
		f.mapMisses++
		lat = f.cfg.TL2PLookupFlash
		f.cache.insert(lpn)
	}
	return page, lat, nil
}

// PhysAddr translates lpn without modelling lookup latency (internal and
// test use).
func (f *FTL) PhysAddr(lpn LPN) (nand.Addr, bool) {
	i := f.checkLPN(lpn)
	if f.l2p.At(i) == -1 {
		return nand.Addr{}, false
	}
	return f.geo.AddrOf(int(f.l2p.At(i))), true
}

// Write stores data for lpn on flash: it allocates a page (running GC if
// needed), programs it, remaps the LPN and invalidates any previous copy.
// plane >= 0 pins the allocation to that plane; pass -1 for round-robin.
// It returns the program completion time.
func (f *FTL) Write(now sim.Time, lpn LPN, data []byte, plane int) (sim.Time, error) {
	f.checkLPN(lpn)
	addr, done, err := f.allocate(now, plane)
	if err != nil {
		return 0, err
	}
	done = f.arr.Program(now, done, addr, data)
	f.commitMapping(lpn, addr)
	return done, nil
}

// WriteRun stores a group of logical pages contiguously in one physical
// block of one plane — the placement constraint for Flash-Cosmos AND
// operands (§4.4). All pages are programmed sequentially; the returned time
// is the last program's completion.
func (f *FTL) WriteRun(now sim.Time, lpns []LPN, data [][]byte, plane int) (sim.Time, error) {
	if len(lpns) != len(data) {
		return 0, fmt.Errorf("ftl: WriteRun got %d LPNs but %d pages", len(lpns), len(data))
	}
	if len(lpns) > f.cfg.PagesPerBlock {
		return 0, fmt.Errorf("ftl: run of %d pages exceeds block size %d", len(lpns), f.cfg.PagesPerBlock)
	}
	if plane < 0 {
		plane = f.nextPlane
		f.nextPlane = (f.nextPlane + 1) % f.Planes()
	}
	// Ensure the active block has room for the whole run; otherwise turn
	// over to a fresh block so the run cannot straddle blocks.
	done := now
	if f.planes[plane].active == -1 || int(f.planes[plane].nextPage)+len(lpns) > f.cfg.PagesPerBlock {
		var err error
		done, err = f.openBlock(now, plane)
		if err != nil {
			return 0, err
		}
	}
	for i, lpn := range lpns {
		f.checkLPN(lpn)
		addr, adone, err := f.allocate(now, plane)
		if err != nil {
			return 0, err
		}
		if adone > done {
			done = adone
		}
		done = f.arr.Program(now, done, addr, data[i])
		f.commitMapping(lpn, addr)
	}
	return done, nil
}

// WriteBuffered programs the current page-buffer contents of plane into a
// fresh page of that plane and maps it to lpn. This is the commit path for
// in-flash computation results (§4.4): no channel transfer happens, only
// the program itself.
func (f *FTL) WriteBuffered(now, ready sim.Time, lpn LPN, plane int) (sim.Time, error) {
	f.checkLPN(lpn)
	addr, adone, err := f.allocate(now, plane)
	if err != nil {
		return 0, err
	}
	done, err := f.arr.FlushBuffer(now, maxTime(ready, adone), addr)
	if err != nil {
		return 0, err
	}
	f.commitMapping(lpn, addr)
	return done, nil
}

// Read fetches lpn's flash copy, including L2P lookup latency.
func (f *FTL) Read(now, ready sim.Time, lpn LPN) ([]byte, sim.Time, error) {
	page, lookupLat, err := f.Lookup(lpn)
	if err != nil {
		return nil, 0, err
	}
	data, done := f.arr.Read(now, maxTime(ready, now+lookupLat), f.geo.AddrOf(page))
	return data, done, nil
}

// Invalidate drops lpn's mapping (e.g. when the latest copy now lives in
// DRAM under the lazy-coherence protocol and the flash copy is stale).
func (f *FTL) Invalidate(lpn LPN) {
	i := f.checkLPN(lpn)
	if f.l2p.At(i) == -1 {
		return
	}
	f.invalidatePhys(int(f.l2p.At(i)))
	f.l2p.Set(i, -1)
}

func (f *FTL) invalidatePhys(phys int) {
	if f.p2l.At(phys) != -1 {
		f.p2l.Set(phys, -1)
		blk := phys / f.cfg.PagesPerBlock
		f.validCount.Set(blk, f.validCount.At(blk)-1)
	}
}

func (f *FTL) commitMapping(lpn LPN, addr nand.Addr) {
	i := f.checkLPN(lpn)
	if f.l2p.At(i) != -1 {
		f.invalidatePhys(int(f.l2p.At(i)))
	}
	phys := f.geo.PageIndex(addr)
	f.l2p.Set(i, int32(phys))
	f.p2l.Set(phys, lpn)
	blk := f.geo.BlockIndex(addr)
	f.validCount.Set(blk, f.validCount.At(blk)+1)
	f.cache.insert(lpn)
}

// allocate returns the next erased page to program in plane (or the
// round-robin plane for plane < 0), opening fresh blocks and running GC as
// needed. The returned time covers any GC work that had to complete first.
func (f *FTL) allocate(now sim.Time, plane int) (nand.Addr, sim.Time, error) {
	if plane < 0 {
		plane = f.nextPlane
		f.nextPlane = (f.nextPlane + 1) % f.Planes()
	}
	if plane >= f.Planes() {
		return nand.Addr{}, 0, fmt.Errorf("ftl: plane %d out of range", plane)
	}
	done := now
	if f.planes[plane].active == -1 || int(f.planes[plane].nextPage) >= f.cfg.PagesPerBlock {
		var err error
		done, err = f.openBlock(now, plane)
		if err != nil {
			return nand.Addr{}, 0, err
		}
	}
	pl := &f.planes[plane]
	addr := f.geo.BlockAddrOf(int(pl.active))
	addr.Page = int(pl.nextPage)
	pl.nextPage++
	return addr, done, nil
}

// reserveBlocks is the per-plane free-pool floor that triggers GC. At
// least one block stays free at all times so collection always has a
// migration target.
func (f *FTL) reserveBlocks() int {
	r := int(f.cfg.GCThreshold * float64(f.cfg.BlocksPerPlane))
	if r < 1 {
		r = 1
	}
	return r
}

// popFreeBlock removes and returns the least-erased free block of plane
// (wear-aware allocation).
func (f *FTL) popFreeBlock(plane int) int {
	base, n := f.planeBlock(plane, 0), int(f.planes[plane].free)
	best := 0
	for i := 1; i < n; i++ {
		if f.arr.EraseCount(int(f.freeBlocks.At(base+i))) < f.arr.EraseCount(int(f.freeBlocks.At(base+best))) {
			best = i
		}
	}
	blk := f.freeBlocks.At(base + best)
	for i := best + 1; i < n; i++ {
		f.freeBlocks.Set(base+i-1, f.freeBlocks.At(base+i))
	}
	f.planes[plane].free = int32(n - 1)
	return int(blk)
}

// pushFreeBlock appends blk to plane's free list.
func (f *FTL) pushFreeBlock(plane, blk int) {
	f.freeBlocks.Set(f.planeBlock(plane, int(f.planes[plane].free)), int32(blk))
	f.planes[plane].free++
}

// openBlock makes an active block with free pages available on plane.
// While the free pool is healthy it simply opens a fresh block; when the
// pool is at the reserve floor it garbage-collects instead, and the GC
// target block (partially filled with migrated pages) becomes the active
// block.
func (f *FTL) openBlock(now sim.Time, plane int) (sim.Time, error) {
	if int(f.planes[plane].free) > f.reserveBlocks() {
		f.planes[plane].active = int32(f.popFreeBlock(plane))
		f.planes[plane].nextPage = 0
		return now, nil
	}
	return f.collect(now, plane)
}

// collect runs greedy garbage collection on plane: it picks the block with
// the fewest valid pages (ties broken toward lower erase count for wear
// leveling), migrates its valid pages into a fresh target block, erases the
// victim, and installs the target as the plane's active block.
//
// collect never recurses into allocation: the migration target comes
// straight from the free pool, whose reserve floor guarantees one exists.
func (f *FTL) collect(now sim.Time, plane int) (sim.Time, error) {
	victim := -1
	for b := 0; b < f.cfg.BlocksPerPlane; b++ {
		blk := f.planeBlock(plane, b)
		if blk == int(f.planes[plane].active) || f.isFree(plane, blk) {
			continue
		}
		if victim == -1 ||
			f.validCount.At(blk) < f.validCount.At(victim) ||
			(f.validCount.At(blk) == f.validCount.At(victim) &&
				f.arr.EraseCount(blk) < f.arr.EraseCount(victim)) {
			victim = blk
		}
	}
	if victim == -1 {
		return 0, fmt.Errorf("ftl: plane %d has no GC victim", plane)
	}
	if int(f.validCount.At(victim)) >= f.cfg.PagesPerBlock {
		return 0, fmt.Errorf("ftl: plane %d full of live data (no reclaimable space)", plane)
	}
	if f.planes[plane].free == 0 {
		return 0, fmt.Errorf("ftl: plane %d has no free migration target", plane)
	}
	f.gcRuns++
	target := f.popFreeBlock(plane)
	f.planes[plane].active = int32(target)
	f.planes[plane].nextPage = 0

	done := now
	base := f.geo.BlockAddrOf(victim)
	targetBase := f.geo.BlockAddrOf(target)
	for p := 0; p < f.cfg.PagesPerBlock; p++ {
		src := base
		src.Page = p
		phys := f.geo.PageIndex(src)
		lpn := f.p2l.At(phys)
		if lpn == -1 {
			continue
		}
		data, rdone := f.arr.Read(now, done, src)
		dst := targetBase
		dst.Page = int(f.planes[plane].nextPage)
		f.planes[plane].nextPage++
		done = f.arr.Program(now, rdone, dst, data)
		f.commitMapping(lpn, dst)
		f.migrations++
	}
	done = f.arr.Erase(done, base)
	f.pushFreeBlock(plane, victim)
	return done, nil
}

func (f *FTL) planeBlock(plane, b int) int {
	return plane*f.cfg.BlocksPerPlane + b
}

func (f *FTL) isFree(plane, blk int) bool {
	base := f.planeBlock(plane, 0)
	for i := range int(f.planes[plane].free) {
		if int(f.freeBlocks.At(base+i)) == blk {
			return true
		}
	}
	return false
}

// Migrate rewrites the given logical pages into a single block of one
// plane, reading each current copy and programming it into a fresh run.
// No runtime path calls it: the offloader never re-lays data out. An
// in-flash operand on another plane is read out and loaded into the
// target plane's latches per instruction instead, and that transfer is
// what the cost function prices as movement.
func (f *FTL) Migrate(now sim.Time, lpns []LPN, plane int) (sim.Time, error) {
	data := make([][]byte, len(lpns))
	ready := now
	for i, lpn := range lpns {
		d, done, err := f.Read(now, now, lpn)
		if err != nil {
			return 0, err
		}
		data[i] = d
		if done > ready {
			ready = done
		}
	}
	done, err := f.WriteRun(ready, lpns, data, plane)
	if err != nil {
		return 0, err
	}
	f.migrations += int64(len(lpns))
	return done, nil
}

// Restore makes f an independent copy of src in place, bound to arr
// (normally the array restored from src's): the L2P/P2L maps, valid counts
// and free lists (copy-on-write: shared with src until either side writes;
// leaves f already owns are overwritten in place), the per-plane
// allocation cursors, the mapping cache with its exact LRU order (cache
// order determines lookup latencies, so restoring it is required for
// run-for-run determinism), and the activity counters. Restoring into a
// zero FTL is how an FTL is cloned.
func (f *FTL) Restore(src *FTL, arr *nand.Array) {
	f.cfg, f.geo, f.arr = src.cfg, src.geo, arr
	f.l2p.Restore(&src.l2p)
	f.p2l.Restore(&src.p2l)
	f.validCount.Restore(&src.validCount)
	f.freeBlocks.Restore(&src.freeBlocks)
	f.planes = append(f.planes[:0], src.planes...)
	if f.cache == nil {
		f.cache = new(mappingCache)
	}
	f.cache.restore(src.cache)
	f.nextPlane = src.nextPlane
	f.gcRuns, f.migrations, f.mapMisses, f.mapHits = src.gcRuns, src.migrations, src.mapMisses, src.mapHits
}

// Freeze releases ownership of the copy-on-write tables so subsequent
// copies alias their nodes and leaves instead of copying them. Call it on a
// pristine master that will be copied many times; Restore never mutates
// its source, so multiple goroutines may restore from one frozen FTL
// concurrently.
func (f *FTL) Freeze() {
	f.l2p.Freeze()
	f.p2l.Freeze()
	f.validCount.Freeze()
	f.freeBlocks.Freeze()
}

// CounterNames names AppendCounts' values, in order (sorted).
var CounterNames = [...]string{"gc_runs", "map_hits", "map_misses", "migrations"}

// AppendCounts appends the activity counters CounterNames names to dst.
func (f *FTL) AppendCounts(dst []int64) []int64 {
	return append(dst, f.gcRuns, f.mapHits, f.mapMisses, f.migrations)
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

// mappingCache is a fixed-capacity LRU of cached L2P entries (the DFTL
// cached mapping table). Nodes live in a flat slab indexed by int32 and
// linked by slab index rather than by pointer, and the index is a slice
// indexed by LPN, as long as the largest LPN ever cached needs — a
// program's pages, not the drive's — so a lookup is a slice load and
// copying the cache, which Device.Restore does for every deployment fork,
// is two slice copies. Entries are never removed but by eviction, whose
// slot the new entry takes, so the slab is exactly the cached entries.
type mappingCache struct {
	capacity int
	index    []int32     // lpn -> slab slot + 1, 0 if not cached
	nodes    []cacheNode // one per cached entry
	head     int32       // most recent, -1 if empty
	tail     int32       // least recent, -1 if empty
}

type cacheNode struct {
	lpn        LPN
	prev, next int32
}

func newMappingCache(capacity int) *mappingCache {
	if capacity < 1 {
		capacity = 1
	}
	return &mappingCache{capacity: capacity, head: -1, tail: -1}
}

// restore makes c a copy of src in place, preserving the exact recency
// order and reusing c's slab and index storage.
func (c *mappingCache) restore(src *mappingCache) {
	c.capacity, c.head, c.tail = src.capacity, src.head, src.tail
	c.index = append(c.index[:0], src.index...)
	c.nodes = append(c.nodes[:0], src.nodes...)
}

// touch reports whether lpn is cached, refreshing its recency.
func (c *mappingCache) touch(lpn LPN) bool {
	if int(lpn) >= len(c.index) || c.index[lpn] == 0 {
		return false
	}
	i := c.index[lpn] - 1
	c.unlink(i)
	c.pushFront(i)
	return true
}

// insert caches lpn, evicting the least-recently-used entry if full.
func (c *mappingCache) insert(lpn LPN) {
	if c.touch(lpn) {
		return
	}
	var i int32
	if len(c.nodes) >= c.capacity {
		i = c.tail
		c.unlink(i)
		c.index[c.nodes[i].lpn] = 0
	} else {
		i = int32(len(c.nodes))
		c.nodes = append(c.nodes, cacheNode{})
	}
	if grow := int(lpn) + 1 - len(c.index); grow > 0 {
		c.index = append(c.index, make([]int32, grow)...)
	}
	c.nodes[i] = cacheNode{lpn: lpn}
	c.index[lpn] = i + 1
	c.pushFront(i)
}

func (c *mappingCache) unlink(i int32) {
	n := &c.nodes[i]
	if n.prev != -1 {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next != -1 {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = -1, -1
}

func (c *mappingCache) pushFront(i int32) {
	n := &c.nodes[i]
	n.prev, n.next = -1, c.head
	if c.head != -1 {
		c.nodes[c.head].prev = i
	}
	c.head = i
	if c.tail == -1 {
		c.tail = i
	}
}
