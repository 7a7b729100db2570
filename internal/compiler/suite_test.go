package compiler_test

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"conduit/internal/compiler"
	"conduit/internal/config"
	"conduit/internal/isa"
	"conduit/internal/workloads"
)

// compileCost reports what compiling src allocates, bytes and count: the
// least of five compiles, since the heap counters are process-wide and the
// first compile in a process grows the retained emission scratch.
func compileCost(t testing.TB, src *compiler.Source, pageSize int) (prog *isa.Program, bytes, allocs uint64) {
	bytes, allocs = math.MaxUint64, math.MaxUint64
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := compiler.Compile(src, pageSize)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		prog = c.Prog
		bytes, allocs = min(bytes, after.TotalAlloc-before.TotalAlloc), min(allocs, after.Mallocs-before.Mallocs)
	}
	return prog, bytes, allocs
}

// TestCompileAllocatesTheProgramOnce pins that compiling costs the program
// it emits: the instructions and their sources are copied out of a reused
// scratch at their final length, so what compiling the six workloads
// allocates stays within 1.3 times the bytes of their Insts and Srcs (it
// measures 1.26 at scale 1 and 1.21 at scale 2, 1.17 and 1.13 while an
// instruction took 104 bytes rather than 72; 3.0 when each instruction
// was appended to a growing slice with its own Srcs and a dependence
// list), and no workload's allocation count grows with its instruction
// count: scale 2 emits about twice the instructions of scale 1 from the
// same arrays and loops.
func TestCompileAllocatesTheProgramOnce(t *testing.T) {
	pageSize := config.Default().SSD.PageSize
	count := map[string]uint64{}
	for _, scale := range []int{1, 2} {
		var compiled, final uint64
		for _, w := range workloads.All(scale) {
			prog, bytes, allocs := compileCost(t, w.Source, pageSize)
			var srcs int
			for i := range prog.Insts {
				srcs += len(prog.Insts[i].Srcs)
			}
			compiled += bytes
			final += uint64(len(prog.Insts))*uint64(unsafe.Sizeof(isa.Inst{})) + uint64(srcs)*uint64(unsafe.Sizeof(isa.PageID(0)))
			if n, ok := count[w.Name]; ok && n != allocs {
				t.Errorf("%s: compiling takes %d allocations at scale 1 and %d at scale 2", w.Name, n, allocs)
			}
			count[w.Name] = allocs
		}
		t.Logf("scale %d: compiling allocated %d B for %d B of Insts and Srcs (%.2f times)",
			scale, compiled, final, float64(compiled)/float64(final))
		if float64(compiled) > 1.3*float64(final) {
			t.Errorf("scale %d: compiling the six workloads allocated %d B, more than 1.3 times the %d B of their Insts and Srcs",
				scale, compiled, final)
		}
	}
}

// BenchmarkCompileSuite compiles the six evaluated workloads at scale 1,
// the compile a cold sweep_grid cell pays, and reports the time per
// emitted instruction.
func BenchmarkCompileSuite(b *testing.B) {
	pageSize := config.Default().SSD.PageSize
	ws := workloads.All(1)
	insts := 0
	for _, w := range ws {
		c, err := compiler.Compile(w.Source, pageSize)
		if err != nil {
			b.Fatal(err)
		}
		insts += len(c.Prog.Insts)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			if _, err := compiler.Compile(w.Source, pageSize); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*insts), "ns/inst")
}
