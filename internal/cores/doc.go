// Package cores models the SSD controller's embedded processors: five ARM
// Cortex-R8 class cores at 1.5 GHz (Table 2). One core executes offloaded
// computation through the M-Profile Vector Extension (MVE) with a 32-byte
// datapath — the in-storage processing (ISP) resource; the paper reserves
// the remaining cores for FTL functions, host communication, and Conduit's
// offloading and instruction transformation (§4.3.2 footnote 3).
//
// ISP's defining limitation — narrow SIMD — falls directly out of the
// datapath width: a 16 KiB page takes 512 MVE beats, so page-sized vector
// work is orders of magnitude less parallel than PuD or IFP.
//
// What this package owns is the cost — cyclesPerBeat per operation, and
// InstCycles for a whole instruction (vectorized, lane-serial, or a control
// region) — and one execute body, Core.Exec, which charges it and computes
// the result through isa.Apply. ExecScalar runs control regions, which have
// no result.
package cores
