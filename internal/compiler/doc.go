// Package compiler implements Conduit's compile-time preprocessing
// (§4.3.1): it takes application code expressed as affine loop nests over
// arrays, auto-vectorizes the vectorizable loops into page-aligned SIMD
// instructions (vector width = PageSize/ElementSize, i.e. 4096 lanes for
// 32-bit operands, mirroring -force-vector-width=4096), strip-mines
// partially vectorizable code, embeds the per-instruction metadata the
// runtime offloader consumes, and reports vectorization coverage
// (Table 3's "vectorizable code %").
//
// The paper drives LLVM 12 over C sources; we substitute a small loop IR
// that yields the same artifact — the vectorized instruction stream with
// metadata (docs/ARCHITECTURE.md "Paper section → package map", row §4.3.1).
//
// Language semantics note: a neighbor access A[i+k] wraps at vector-block
// granularity (the lane rotation a SIMD shifted load performs). The scalar
// reference interpreter implements exactly the same semantics, so
// vectorized and scalar execution agree bit-for-bit.
package compiler
