package host

import (
	"testing"

	"conduit/internal/config"
	"conduit/internal/isa"
	"conduit/internal/sim"
)

// TestRunSteadyStateAllocsPerOp pins the per-instruction allocation
// behavior of the OSP functional path: result pages come from the
// run-local free list and replaced page values are recycled, so a long
// instruction stream must average well under one heap allocation per
// instruction (fixed per-run setup — maps, the latency reservoir — is
// amortized across the stream). Before buffer reuse this path allocated
// at least one page-sized buffer and one operand slice per instruction.
func TestRunSteadyStateAllocsPerOp(t *testing.T) {
	cfg := config.TestScale()
	ps := cfg.SSD.PageSize
	const nInputs = 4
	const nOps = 400

	inputs := map[isa.PageID][]byte{}
	var ids []isa.PageID
	r := sim.NewRNG(3)
	for i := 0; i < nInputs; i++ {
		p := make([]byte, ps)
		r.Bytes(p)
		inputs[isa.PageID(i)] = p
		ids = append(ids, isa.PageID(i))
	}
	// Every instruction overwrites the same destination page: the replaced
	// value is dead and must be recycled, not leaked to the collector.
	insts := make([]isa.Inst, 0, nOps)
	for i := 0; i < nOps; i++ {
		insts = append(insts, isa.Inst{ID: int32(i), Op: isa.OpXor,
			Dst:  isa.PageID(nInputs),
			Srcs: []isa.PageID{isa.PageID(i % nInputs), isa.PageID((i + 1) % nInputs)},
			Elem: 1, Lanes: int32(ps)})
	}
	prog := &isa.Program{Name: "alloc", Pages: nInputs + 1, Insts: insts, InputPages: ids}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}

	m := New(&cfg, CPU)
	run := func() {
		if _, _, err := m.Run(prog, pageSource(inputs)); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm caches unrelated to the per-op path
	perRun := testing.AllocsPerRun(5, run)
	perOp := perRun / nOps
	if perOp > 0.5 {
		t.Fatalf("host Run allocates %.2f objects per instruction (%.0f per run), want < 0.5", perOp, perRun)
	}
}
