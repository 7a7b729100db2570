package workloads

import (
	"testing"

	"conduit/internal/compiler"
	"conduit/internal/isa"
)

// execIR runs a compiled program with the shared functional kernel.
func execIR(t *testing.T, c *compiler.Compiled, pageSize int) map[isa.PageID][]byte {
	t.Helper()
	mem := make(map[isa.PageID][]byte)
	load := func(p isa.PageID) []byte {
		if b, ok := mem[p]; ok {
			return b
		}
		b := make([]byte, pageSize)
		c.InputPage(p, b)
		mem[p] = b
		return b
	}
	for i := range c.Prog.Insts {
		in := &c.Prog.Insts[i]
		if in.Op == isa.OpScalar {
			continue
		}
		srcs := make([][]byte, 0, len(in.Srcs))
		for _, s := range in.Srcs {
			srcs = append(srcs, load(s))
		}
		out := make([]byte, pageSize)
		if err := isa.Apply(in.Op, out, srcs, int(in.Elem), in.UseImm, in.Imm); err != nil {
			t.Fatalf("inst %d (%v): %v", i, in.Op, err)
		}
		mem[in.Dst] = out
	}
	return mem
}
