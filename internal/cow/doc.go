// Package cow provides the one copy-on-write table of the tree: a
// fixed-length array stored two levels deep, as a directory of nodes that
// each point at a fixed number of leaves, every node and every leaf either
// owned by one table or shared, immutably, by many.
//
// It exists so that a drive costs what is written to it. A simulated
// drive's bookkeeping is one entry per physical page or block — hundreds
// of thousands of entries at the default geometry — while a deploy or a
// run touches a few pages. A new table's nodes all alias one shared node
// whose leaves all alias one shared leaf of fill values, so building a
// drive is O(nodes) and the NVMe deploy pays for the leaves it writes. The
// deployed master device is then frozen (Table.Freeze) and never executed;
// a fork clones its tables by copying each directory — one pointer and one
// ownership flag per node, 147 nodes over a device's six drive tables at
// the default geometry — and pays for a node and a leaf only when it first
// writes into them. The tables on it are the flash array's page states and
// block erase counts (internal/nand) and the FTL's L2P, P2L, per-block
// valid-count and free-list tables (internal/ftl): the drive's tables,
// sized by its geometry. What is indexed by the program's pages
// (internal/ssd: readiness times, slot and latch indexes, the coherence
// directory) is sized by the pages the program names — at most 372 for
// the evaluated programs, so the readiness times are at most 3 KiB — and
// copied flat: a 256-entry leaf under a node would cost those small tables
// more than it saves.
//
// Layout. A leaf holds 256 entries (1 KiB of an int32 table, 256 B of the
// page states) and a node 64 leaf pointers beside their 64 leaf states (576
// B), so a node spans 16 384 entries and At reads the directory, the node
// and the leaf: one dependent load more than a flat directory of chunks.
// A node is shared or owned as a whole, and so is each leaf; a node that
// is shared lists all its leaves as shared, which is what lets Set take
// one branch (leaf dirty: store) without asking who owns the node. The
// first write to a leaf of a shared node copies the node and the leaf in
// one allocation; the first write to a shared leaf of an owned node copies
// the leaf. Set hands the slow path to an inlined helper as a parameter, so
// the dirty path stays inside the inliner's budget (see Table.Set).
//
// Ownership under Restore. A fork that has run is not thrown away: the
// next request restores it in place from the frozen master (Table.Restore;
// a first copy is Restore into an empty table). A node is shared or owned;
// each leaf of an owned node is shared, owned-clean (still what the last
// Restore put there) or owned-dirty (written since), and the table lists
// its dirty leaves as Set first writes them. Restored again from the same
// source, unchanged since — its epoch, which Restore and Freeze move,
// still reads what it read then, and it lists no dirty leaf — a table
// copies back only its dirty leaves: its clean leaves already hold the
// source's contents and its shared ones alias the source's. Any other
// restore walks the directory: a node both tables share is aliased (no
// store when it already is), a node the destination owns is walked leaf by
// leaf — a leaf it owns is overwritten and stays owned, one it does not
// own is pointed back at the source's, one the source owns is
// deep-copied — and a node only the source owns is deep-copied, its owned
// leaves with it. Ownership therefore only grows: after a few requests a
// recycled device owns every node and leaf its workload writes, a restore
// allocates nothing and copies what the last run wrote, 1 KiB per dirty
// leaf of an int32 table where a 1 024-entry chunk was 4 KiB, and the run
// writes in place. Freeze is O(owned nodes): it clears their leaf states
// and gives them up.
//
// Concurrency: Restore never writes to its source and shared nodes and
// leaves are never written by anyone, so any number of goroutines may
// clone, or restore from, one frozen table while their copies write. A
// table that still owns nodes may be copied too (owned nodes and leaves
// are deep-copied), but then only from the goroutine that writes it.
//
// Sizes. The leaf size and the fan-out are constants for every table,
// chosen by measuring bytes allocated (runtime.MemStats.TotalAlloc,
// default geometry) per fork of a deployed jacobi-1d and LLaMA2 at scale 2
// (TestForkAllocBudget), per fork-plus-run of LLaMA2 under Conduit
// (TestRunAllocBudget), per deploy of the six scale-1 workloads
// (TestColdDeployAllocBudget) and per cold one-worker grid, which runs
// every cell of the evaluation on a clone (TestColdGridAllocBudget). A
// fork pays for the directory, 9 bytes per node per table written or not;
// a first write pays for a leaf, and for its node if that is still shared.
// The FTL stripes writes across the 128 planes, each 6 272 pages apart, so
// a deploy or a run touches one leaf and often one node per plane it
// writes:
//
//	entries/leaf  leaves/node   fork KB jacobi / LLaMA2   fork+run KB   deploy KiB   grid KiB
//	    128           64              12.5 / 26.2            33.0          696        1 613
//	    256           32              12.5 / 26.2            34.8          709        1 635
//	    256           64              11.0 / 24.7            34.5          712        1 636   <- chosen
//	    256          128              10.3 / 24.0            34.5          720        1 647
//	    512           64              10.3 / 24.0            38.8          765        1 710
//	   1024           64              10.0 / 23.7            51.1          909        1 912
//	   1024  (one level, 2 310 chunks) 31.4 / 45.0           70.2        1 026        2 147
//
// The last row is the one-level table this layout replaced: a fork copied
// 2 310 chunk pointers and states, ≈ 20 KB of the 31.4. Under two levels the
// fan-out barely moves the grid (the nodes a write copies cost about what
// a larger directory saves), and 64 keeps the directory at 147 nodes. The
// leaf size decides: each halving cuts what a first write copies until
// 128, where the grid saves another 23 KiB (1.4 %) for a directory twice
// as long and 28 more allocations per six deploys. So leaves hold 256
// entries and nodes 64 leaves.
package cow
