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
// The kernels (Apply, ApplyImm, ApplyUnary, Select, SelectImm, Shuffle,
// Broadcast, ReduceAdd) dispatch once per page through tables keyed by
// (op, elem). Each operation is one generic function over the lane type,
// listed in its table row once per width; the bitwise family, which does
// not depend on the lane width, also lists its uint64 instantiation, and
// the dispatcher runs that over the whole 8-byte words before the lane
// instantiation finishes the tail. The lane-serial reference (Load, Store
// and the *Generic functions of reference_test.go, which assemble each
// element byte by byte and call a closure per element) is compiled into the
// tests only, but for ShuffleGeneric; differential tests prove the kernels
// byte-identical to it.
//
// # Writing a kernel
//
// An operation is one generic function per form it has (binary, immediate),
// shaped like its neighbours in kernels.go, plus one row in that form's
// table. Two rules keep a generic kernel as fast as a loop written out per
// width; BenchmarkVecmathKernels is the check, and the figures are 16 KiB
// pages of 8-bit lanes, which is all the traffic the evaluated workloads
// produce:
//
//  1. Nothing generic is called inside a lane loop. Even an inlined call to
//     a generic helper loads and nil-checks a sub-dictionary per lane (add:
//     7.5 -> 15.3 us). So size[T]() and every converted immediate are
//     hoisted above the loop, and lanes move through the ordinary functions
//     load and store, whose switch on the per-instantiation constant n
//     folds away. The operands are trimmed to len(dst), which the
//     dispatchers already cut to whole lanes, and the loop is
//     `for i := 0; i < len(dst); { ...; i += n }`. The step is the last
//     statement of the body because the compiler orders it against the
//     inlined store by source position: written in the for clause it lands
//     before the store and costs a register move per lane (add: 7.5 ->
//     8.0 us).
//  2. An immediate kernel is its own generic function. Deriving it from
//     the binary kernel through a broadcast block allocates once per call
//     (dram.TestExecImmediateSteadyStateAllocs fails) and ran 5-55 % slower
//     on the prototype of this design.
//
// What no loop form controls is where the linker puts the loop. On 8-bit
// lanes the bodies are 18-45 bytes, functions are 32-byte aligned, and a
// body that straddles a 64-byte line runs at about 1.6 cycles a lane
// instead of 1.2 (10.0 against 7.5 us, on identical instructions), so the
// same kernel can read a third slower in one test binary than in another.
// Before blaming a loop form, look at the loop's address.
package vecmath
