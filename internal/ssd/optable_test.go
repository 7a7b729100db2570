package ssd

import (
	"testing"

	"conduit/internal/compiler"
	"conduit/internal/config"
	"conduit/internal/cores"
	"conduit/internal/dram"
	"conduit/internal/isa"
	"conduit/internal/nand"
	"conduit/internal/sim"
	"conduit/internal/workloads"
)

// returns reports whether f returns instead of panicking.
func returns(f func()) (ok bool) {
	defer func() { ok = recover() == nil }()
	f()
	return true
}

// TestOperationTableConsistency ties the three readings of "resource r
// runs op" together for every op x resource: the capability column of the
// operation table (isa.Supports), the instruction-transformation table the
// device consults at run time (TranslationTable.Lookup), and the
// substrate's own latency model having an entry for the op at every
// element width. A new op that is given a row but no latency entry (or the
// reverse) fails here, not in the middle of a run.
func TestOperationTableConsistency(t *testing.T) {
	cfg := config.Default()
	tab := isa.BuildTranslationTable()
	prof := nand.OperandProfile{Senses: 1}
	latency := map[isa.Resource]func(op isa.Op, elem int){
		isa.ResISP: func(op isa.Op, elem int) {
			cores.InstCycles(&cfg.SSD, &isa.Inst{Op: op, Elem: uint8(elem), ScalarCycles: 1}, 64)
		},
		isa.ResPuD: func(op isa.Op, elem int) { dram.Rounds(op, elem) },
		isa.ResIFP: func(op isa.Op, elem int) { nand.Estimate(&cfg.SSD, op, elem, prof) },
	}
	for op := isa.Op(0); op <= isa.OpScalar; op++ {
		for _, r := range isa.AllResources {
			want := isa.Supports(r, op)
			if _, ok := tab.Lookup(r, op); ok != want {
				t.Errorf("%v on %v: Supports=%v but translation table has entry=%v", op, r, want, ok)
			}
			for _, elem := range []int{1, 2, 4} {
				if got := returns(func() { latency[r](op, elem) }); got != want {
					t.Errorf("%v on %v, elem %d: Supports=%v but the latency model returns=%v", op, r, elem, want, got)
				}
			}
		}
	}
}

// TestFeaturesSupportMatchesTable: on every instruction of the six
// evaluated workloads, the cost table LoadProgram builds — where features
// takes Supported and the ISP and PuD computation latencies from — offers a
// resource exactly when the translation table has the op for it and the
// instruction's form allows it: control regions and un-vectorized loops
// only on the cores, in-flash immediates only as shift counts.
func TestFeaturesSupportMatchesTable(t *testing.T) {
	cfg := config.Default()
	cfg.SSD.TimingOnly = true
	tab := isa.BuildTranslationTable()
	for _, w := range workloads.All(1) {
		c, err := compiler.Compile(w.Source, cfg.SSD.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		d := New(&cfg)
		if err := d.LoadProgram(c.Prog, nil); err != nil {
			t.Fatal(err)
		}
		if len(d.costs) != len(c.Prog.Insts) {
			t.Fatalf("%s: cost table has %d rows for %d instructions", w.Name, len(d.costs), len(c.Prog.Insts))
		}
		for i := range c.Prog.Insts {
			inst, cost := &c.Prog.Insts[i], &d.costs[i]
			compLatency := [isa.NumResources]sim.Time{cost.ispLat, cost.pudLat, 0}
			if cost.runs[isa.ResIFP] {
				compLatency[isa.ResIFP], _ = ifpCost(&cfg.SSD, inst, idealProfile(inst))
			}
			for _, r := range isa.AllResources {
				_, want := tab.Lookup(r, inst.Op)
				if r != isa.ResISP && (inst.Op == isa.OpScalar || inst.Meta.Unvectorized) {
					want = false
				}
				if r == isa.ResIFP && inst.UseImm && inst.Op != isa.OpShl && inst.Op != isa.OpShr {
					want = false
				}
				if cost.runs[r] != want {
					t.Fatalf("%s inst %d (%v, useImm=%v, unvectorized=%v): cost table offers %v = %v, table says %v",
						w.Name, i, inst.Op, inst.UseImm, inst.Meta.Unvectorized, r, cost.runs[r], want)
				}
				if want && compLatency[r] <= 0 {
					t.Fatalf("%s inst %d (%v) on %v: supported with computation latency %v", w.Name, i, inst.Op, r, compLatency[r])
				}
			}
		}
	}
}
