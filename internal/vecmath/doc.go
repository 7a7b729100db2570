// Package vecmath implements the functional (bit-accurate) elementwise
// vector arithmetic shared by every computation substrate in the simulator:
// the flash latch engine, the processing-using-DRAM engine, the controller
// MVE model, the host models, and the compiler's scalar reference
// interpreter. Centralizing it guarantees all substrates agree on
// semantics, which the cross-substrate equivalence tests rely on.
//
// Elements are little-endian unsigned integers of 1, 2 or 4 bytes; signed
// operations sign-extend explicitly.
//
// The package exposes two surfaces with identical semantics. The generic
// primitives (Load, Store, Binary, Unary, BinaryImm, and the *Generic
// dispatchers in reference_test.go) assemble each element byte by byte
// and call a closure per element: they are the reference implementation,
// compiled into the tests only (but for ShuffleGeneric). The
// specialized kernels (Apply, ApplyImm, ApplyUnary, Select, SelectImm,
// Shuffle, Broadcast, ReduceAdd) dispatch once per page through tables
// keyed by (op, elem): the bitwise family runs 8 bytes per iteration over
// uint64 words, everything else through monomorphized typed loops.
// Differential tests prove the two surfaces byte-identical; the hot paths
// use the kernels, the tests and benchmarks keep the reference honest.
package vecmath
