// Package cow provides the one copy-on-write table of the tree: a
// fixed-length array stored as equal chunks, each either owned by one
// table or shared, immutably, by many.
//
// It exists so that a drive costs what is written to it. A simulated
// drive's bookkeeping is one entry per physical page or block — hundreds
// of thousands of entries at the default geometry — while a deploy or a
// run touches a few pages. A new table's chunks all alias one shared
// chunk of fill values, so building a drive is O(chunks) and the NVMe
// deploy pays for the chunks it writes. The deployed master device is
// then frozen (Table.Freeze) and never executed; a fork clones its tables
// by copying one pointer and one ownership state per chunk, and pays for a
// chunk only when it first writes into it. The tables on it are the flash
// array's page states and block erase counts (internal/nand), the FTL's
// L2P, P2L, per-block valid-count and free-list tables (internal/ftl),
// and the device's per-page readiness times (internal/ssd).
//
// Ownership under Restore. A fork that has run is not thrown away: the
// next request restores it in place from the frozen master (Table.Restore;
// a first copy is Restore into an empty table). Each chunk of a table is
// shared, owned-clean (still what the last Restore put there) or
// owned-dirty (written since), and the table lists its dirty chunks as Set
// first writes them. Restored again from the same source, unchanged since
// — its epoch, which Restore and Freeze move, still reads what it read
// then, and it lists no dirty chunk — a table copies back only its dirty
// chunks: its clean chunks already hold the source's contents and its
// shared ones alias the source's. Any other restore walks every chunk
// slot: a chunk the table owns is overwritten and stays owned, one it does
// not own is pointed back at the source's, one the source owns is
// deep-copied. Ownership therefore only grows: after a few requests a
// recycled device owns every chunk its workload writes, a restore
// allocates nothing and copies what the last run wrote, and the run
// writes in place. The walk was ≈ 2.4k chunk slots over a device's seven
// tables at the default geometry; with the mapping cache's index and the
// calendars also copied flat, a warm device restore (BenchmarkForkRestore)
// went from ≈ 2.5 µs to ≈ 0.8 µs on a 2-vCPU Xeon VM, against a lightest
// served request of ≈ 12 µs. Set keeps one branch on its hot path (state
// dirty: store) and stays inlinable; the list is the only thing it adds.
//
// Concurrency: Restore never writes to its source and
// shared chunks are never written by anyone, so any number of goroutines
// may clone, or restore from, one frozen table while their copies write.
// A table that still owns chunks may be copied too (owned chunks are
// deep-copied), but then only from the goroutine that writes it.
//
// Chunk size. Shift is one constant for every table, chosen by measuring
// bytes allocated per fork-plus-run (runtime.MemStats.TotalAlloc, default
// geometry, Conduit policy) over the chunk sizes below. Small chunks make
// the fork dearer (9 bytes per chunk per table, written or not); large
// chunks make the first write into each chunk dearer:
//
//	entries/chunk   fork KiB   jacobi-1d   XOR Filter   heat-3d   (fork+run KiB)
//	   512            70.1       101.3       100.4       128.2
//	  1024            47.7        90.9        88.0       117.8   <- Shift = 10
//	  2048            36.8       104.0        97.1       130.9
//	  4096            31.9       147.2       132.3       174.1
//
// Before this package the same three runs cost 1099, 1101 and 1177 KiB,
// 928 KiB of it the fork.
//
// With recycling on that is the cold path only (a clone and a first run:
// Deployment.Run, RunGrid, a pool whose devices have not come back yet).
// The warm path allocates nothing and its time is flat in the chunk size
// (device restore 5.0 / 3.5 / 3.3 / 4.0 µs, the nine-request light mix
// through Server.Do 347 / 343 / 337 / 337 µs at 512 / 1024 / 2048 / 4096
// entries, inside the bench's 3 % spread), so the cold path still decides
// and Shift stays 10.
package cow
