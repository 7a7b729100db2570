package ssd

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"conduit/internal/compiler"
	"conduit/internal/config"
	"conduit/internal/isa"
	"conduit/internal/offload"
	"conduit/internal/sim"
	"conduit/internal/workloads"
)

// mapInputOrder is LoadProgram's effective input order as the map
// derivation computed it: the declared inputs, then every page read before
// any instruction writes it, in program order.
func mapInputOrder(prog *isa.Program) []isa.PageID {
	order := append([]isa.PageID(nil), prog.InputPages...)
	inputSet := make(map[isa.PageID]bool)
	for _, p := range prog.InputPages {
		inputSet[p] = true
	}
	defined := make(map[isa.PageID]bool)
	for i := range prog.Insts {
		in := &prog.Insts[i]
		for _, s := range in.Srcs {
			if !inputSet[s] && !defined[s] {
				inputSet[s] = true
				order = append(order, s)
			}
		}
		if in.Dst != isa.NoPage {
			defined[in.Dst] = true
		}
	}
	return order
}

// mapOperandGroups is the map-keyed union-find operandGroups replaced,
// kept as its oracle, quirks included: a page that enters the union-find
// as a lone or leading operand has no size entry, so it counts as 0
// against the block cap until a union sizes it.
func mapOperandGroups(prog *isa.Program, inputOrder []isa.PageID, maxGroup int) [][]isa.PageID {
	parent := make(map[isa.PageID]isa.PageID)
	size := make(map[isa.PageID]int)
	var find func(p isa.PageID) isa.PageID
	find = func(p isa.PageID) isa.PageID {
		if parent[p] == p {
			return p
		}
		root := find(parent[p])
		parent[p] = root
		return root
	}
	union := func(a, b isa.PageID) {
		if _, ok := parent[a]; !ok {
			parent[a], size[a] = a, 1
		}
		if _, ok := parent[b]; !ok {
			parent[b], size[b] = b, 1
		}
		ra, rb := find(a), find(b)
		if ra != rb && size[ra]+size[rb] <= maxGroup {
			parent[rb] = ra
			size[ra] += size[rb]
		}
	}
	for i := range prog.Insts {
		in := &prog.Insts[i]
		if !isa.Supports(isa.ResIFP, in.Op) {
			continue
		}
		pages := in.Srcs
		if in.Dst != isa.NoPage {
			pages = append(append([]isa.PageID(nil), in.Srcs...), in.Dst)
		}
		prev := isa.NoPage
		for _, s := range pages {
			if prev != isa.NoPage {
				union(prev, s)
			} else if _, ok := parent[s]; !ok {
				parent[s] = s
			}
			prev = s
		}
	}
	classes := make(map[isa.PageID][]isa.PageID)
	var roots []isa.PageID
	seen := make(map[isa.PageID]bool)
	for _, p := range inputOrder {
		if _, ok := parent[p]; !ok || seen[p] {
			continue
		}
		seen[p] = true
		r := find(p)
		if len(classes[r]) == 0 {
			roots = append(roots, r)
		}
		classes[r] = append(classes[r], p)
	}
	var groups [][]isa.PageID
	for _, r := range roots {
		g := classes[r]
		for len(g) > maxGroup {
			groups = append(groups, g[:maxGroup])
			g = g[maxGroup:]
		}
		if len(g) > 1 {
			groups = append(groups, g)
		}
	}
	return groups
}

// randomProgram builds a valid program of n instructions over pages pages,
// drawing every operation (IFP-capable or not) and every operand at random.
func randomProgram(r *sim.RNG, pages, n int) *isa.Program {
	p := &isa.Program{Name: "random", Pages: pages}
	for i := 0; i < n; i++ {
		op := isa.Op(r.Intn(int(isa.OpScalar))) // every op but OpScalar
		in := isa.Inst{ID: int32(i), Op: op, Dst: isa.PageID(r.Intn(pages)), Elem: 1, Lanes: 8}
		for k := op.Sources(false); k > 0; k-- {
			in.Srcs = append(in.Srcs, isa.PageID(r.Intn(pages)))
		}
		p.Insts = append(p.Insts, in)
	}
	for k := r.Intn(pages); k > 0; k-- {
		p.InputPages = append(p.InputPages, isa.PageID(r.Intn(pages)))
	}
	return p
}

// TestOperandGroupsMatchMapOracle pins NDP-aware placement to the map
// derivation: the same groups, in the same order, with the same members,
// for the six workloads at scales 1 and 2 under the drive's block size,
// and for random programs under block sizes small enough that the cap and
// the chunking decide.
func TestOperandGroupsMatchMapOracle(t *testing.T) {
	check := func(what string, prog *isa.Program, maxGroup int) {
		t.Helper()
		order := mapInputOrder(prog)
		got := operandGroups(prog, prog.Span(), order, maxGroup)
		if want := mapOperandGroups(prog, order, maxGroup); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s (block %d): groups\n%v\nwant\n%v", what, maxGroup, got, want)
		}
	}
	cfg := config.Default()
	for _, scale := range []int{1, 2} {
		for _, w := range workloads.All(scale) {
			c, err := compiler.Compile(w.Source, cfg.SSD.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			check(w.Name, c.Prog, cfg.SSD.PagesPerBlock)
			check(w.Name, c.Prog, 3)
		}
	}
	r := sim.NewRNG(7)
	for i := 0; i < 300; i++ {
		check("random", randomProgram(r, r.Intn(24)+1, r.Intn(60)), r.Intn(5)+1)
	}
}

// TestAccessListsMatchAppend pins LoadProgram's carved liveness lists to
// the per-page append they replaced.
func TestAccessListsMatchAppend(t *testing.T) {
	cfg := config.TestScale()
	r := sim.NewRNG(11)
	for i := 0; i < 50; i++ {
		prog := randomProgram(r, r.Intn(24)+1, r.Intn(60))
		d := New(&cfg)
		if err := d.LoadProgram(prog, nil); err != nil {
			t.Fatal(err)
		}
		want := make([][]access, prog.Span())
		for i, in := range prog.Insts {
			for _, s := range in.Srcs {
				want[s] = append(want[s], access{idx: int32(i), read: true})
			}
			want[in.Dst] = append(want[in.Dst], access{idx: int32(i)})
		}
		if !reflect.DeepEqual(d.accesses, want) {
			t.Fatalf("program %d: accesses\n%v\nwant\n%v", i, d.accesses, want)
		}
	}
}

// TestTablesSizedBySpan: for the six workloads at scales 1 and 2, Span is
// one more than the highest page an instruction, input or output names,
// it is at most Pages, and every page-indexed table of a loaded device —
// and of a clone after it ran — has exactly that length; the DRAM slot
// tables stop at the span too, when it is below the usable slots.
func TestTablesSizedBySpan(t *testing.T) {
	cfg := config.Default()
	cfg.SSD.TimingOnly = true
	for _, scale := range []int{1, 2} {
		for _, w := range workloads.All(scale) {
			c, err := compiler.Compile(w.Source, cfg.SSD.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			prog, what := c.Prog, fmt.Sprintf("%s at scale %d", w.Name, scale)
			highest := -1
			for _, in := range prog.Insts {
				for _, p := range append(slices.Clone(in.Srcs), in.Dst) {
					highest = max(highest, int(p))
				}
			}
			for _, p := range append(slices.Clone(prog.InputPages), prog.OutputPages...) {
				highest = max(highest, int(p))
			}
			span := prog.Span()
			if span != highest+1 || span > prog.Pages {
				t.Fatalf("%s: Span() = %d, want %d (highest page named + 1), at most Pages = %d", what, span, highest+1, prog.Pages)
			}
			d := New(&cfg)
			if err := d.LoadProgram(prog, nil); err != nil {
				t.Fatal(err)
			}
			used := d.Clone()
			used.EnterComputationMode()
			if _, err := used.Run(offload.Conduit{}); err != nil {
				t.Fatal(err)
			}
			slots := min(d.DRAM.Capacity()-d.DRAM.Capacity()/8, span)
			for _, dev := range []*Device{d, used} {
				for name, n := range map[string]int{
					"coherence directory": reflect.ValueOf(dev.Dir).Elem().FieldByName("entries").Len(),
					"dramSlot":            len(dev.dramSlot),
					"pagePlane":           len(dev.pagePlane),
					"pageReady":           len(dev.pageReady),
					"accesses":            len(dev.accesses),
					"output":              len(dev.output),
				} {
					if n != span {
						t.Errorf("%s: %s has %d entries, want the span %d", what, name, n, span)
					}
				}
				if len(dev.slotOwner) != slots || len(dev.slotClock) != slots {
					t.Errorf("%s: slot tables have %d and %d entries, want %d", what, len(dev.slotOwner), len(dev.slotClock), slots)
				}
			}
		}
	}
}

// TestPageBytesPastSpanIsAnError: a page no instruction, input or output
// names — past the span, yet below Pages — or no page at all is refused
// with an error, never an index panic; the last page of the span reads.
func TestPageBytesPastSpanIsAnError(t *testing.T) {
	prog, inputs := mixProgram(t, 1)
	span := prog.Span()
	prog.Pages = span + 8
	d := newLoadedDevice(t, prog, inputs)
	if _, err := d.Run(offload.Conduit{}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PageBytes(isa.PageID(span - 1)); err != nil {
		t.Fatalf("PageBytes(%d), the span's last page: %v", span-1, err)
	}
	for _, p := range []isa.PageID{isa.PageID(span), isa.PageID(prog.Pages - 1), isa.PageID(prog.Pages), isa.NoPage} {
		if _, err := d.PageBytes(p); err == nil || !strings.Contains(err.Error(), "unmapped") {
			t.Errorf("PageBytes(%d) with span %d: err = %v, want an 'unmapped' error", p, span, err)
		}
	}
}
