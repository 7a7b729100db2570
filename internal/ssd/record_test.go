package ssd

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"conduit/internal/compiler"
	"conduit/internal/config"
	"conduit/internal/isa"
	"conduit/internal/offload"
	"conduit/internal/sim"
	"conduit/internal/stats"
	"conduit/internal/workloads"
)

// recordRun runs one cell on a clone of master: device policy i of
// allPolicies, or RunIdeal for i == len(allPolicies()). empty gives the
// clone a table of its own with nothing published, so it records as every
// run did before runs shared their records. prepare, if set, arms the
// clone before it runs.
func recordRun(t *testing.T, master *Device, i int, empty bool, prepare func(*Device)) *Result {
	t.Helper()
	d := master.Clone()
	if empty {
		d.records = new(sync.Map)
	}
	if prepare != nil {
		prepare(d)
	}
	var res *Result
	var err error
	if pols := allPolicies(); i < len(pols) {
		res, err = d.Run(pols[i])
	} else {
		res, _, err = d.RunIdeal()
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// materialized returns res after a percentile query, so that its
// reservoir holds its samples (sorted) instead of the function that derives
// them, which reflect.DeepEqual never equates.
func materialized(res *Result) *Result {
	res.InstLatencies.P99()
	return res
}

// TestRunsShareTheirPublishedRecord: over the six workloads at scales 1
// and 2, under every device policy and Ideal, a second run of a deployment
// returns the first run's result itself, and that result equals, field for
// field, a run on a device whose table is empty.
func TestRunsShareTheirPublishedRecord(t *testing.T) {
	cfg := config.Default()
	cfg.SSD.TimingOnly = true
	for scale := 1; scale <= 2; scale++ {
		for _, w := range workloads.All(scale) {
			c, err := compiler.Compile(w.Source, cfg.SSD.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			master := New(&cfg)
			if err := master.LoadProgram(c.Prog, nil); err != nil {
				t.Fatal(err)
			}
			master.EnterComputationMode()
			master.Freeze()
			for i := 0; i <= len(allPolicies()); i++ {
				first := recordRun(t, master, i, false, nil)
				second := recordRun(t, master, i, false, nil)
				alone := recordRun(t, master, i, true, nil)
				what := fmt.Sprintf("%s scale %d %s", w.Name, scale, first.Policy)
				if second != first {
					t.Errorf("%s: the second run did not return the first run's result", what)
				}
				if !reflect.DeepEqual(materialized(second), materialized(alone)) {
					t.Errorf("%s: a run sharing the result differs from a run with an empty table", what)
				}
			}
		}
	}
}

// TestDivergentRunKeepsItsOwnRecord: a run whose decisions differ from the
// published record — here, one whose firmware clock starts later, so every
// issue time moves — records its own, equal to what it records with an
// empty table, and leaves the published result as it was.
func TestDivergentRunKeepsItsOwnRecord(t *testing.T) {
	prog, inputs := mixProgram(t, 1)
	master := newLoadedDevice(t, prog, inputs)
	late := func(d *Device) { d.firmware += sim.Millisecond }
	conduit := slices.Index(allPolicies(), offload.Policy(offload.Conduit{}))

	clean := recordRun(t, master, conduit, false, nil)
	published := slices.Clone(clean.Decisions)
	got := recordRun(t, master, conduit, false, late)
	want := recordRun(t, master, conduit, true, late)
	if unsafe.SliceData(got.Decisions) == unsafe.SliceData(clean.Decisions) || got.InstLatencies == clean.InstLatencies {
		t.Error("a divergent run returned the published record")
	}
	if !reflect.DeepEqual(materialized(got), materialized(want)) {
		t.Error("a divergent run differs from the same run with an empty table")
	}
	if pub, _ := master.records.Load("Conduit"); pub.(*Result) != clean || !slices.Equal(clean.Decisions, published) {
		t.Error("a divergent run changed the published result")
	}
}

// TestMatchingDecisionsDifferentCountsKeepOwnResult: a run whose decisions
// match the published record but whose counters do not — here, one whose
// measurement baseline is one sense short, so only flash.senses reads one
// more — returns a result of its own. It shares the published decisions
// and reservoir, reports its own counters, and leaves the published result
// as it was.
func TestMatchingDecisionsDifferentCountsKeepOwnResult(t *testing.T) {
	prog, inputs := mixProgram(t, 1)
	master := newLoadedDevice(t, prog, inputs)
	sense := slices.Index(counterNames[:], "flash.senses")
	if sense < 0 {
		t.Fatal("no flash.senses counter")
	}
	short := func(d *Device) { d.baseline[sense]-- }
	for i := 0; i < len(allPolicies()); i++ {
		clean := recordRun(t, master, i, false, nil)
		counts := map[string]int64{}
		clean.Counters.Each(func(name string, v int64) { counts[name] = v })
		got := recordRun(t, master, i, false, short)
		if got == clean {
			t.Fatalf("%s: a run with different counters returned the published result", clean.Policy)
		}
		if unsafe.SliceData(got.Decisions) != unsafe.SliceData(clean.Decisions) || got.InstLatencies != clean.InstLatencies {
			t.Errorf("%s: a run with matching decisions did not share the published record", clean.Policy)
		}
		got.Counters.Each(func(name string, v int64) {
			want := counts[name]
			if name == "flash.senses" {
				want++
			}
			if v != want {
				t.Errorf("%s: %s = %d, want %d", clean.Policy, name, v, want)
			}
		})
		if got.Policy != clean.Policy || got.Elapsed != clean.Elapsed || got.OverheadTime != clean.OverheadTime ||
			got.ComputeEnergy != clean.ComputeEnergy || got.MovementEnergy != clean.MovementEnergy {
			t.Errorf("%s: a run with different counters differs elsewhere too", clean.Policy)
		}
		if pub, _ := master.records.Load(clean.Policy); pub.(*Result) != clean || clean.Counters.Get("flash.senses") != counts["flash.senses"] {
			t.Errorf("%s: a run with different counters changed the published result", clean.Policy)
		}
	}
}

// TestRecordLatenciesFollowDecisions: merged, a run's reservoir holds
// Done - Issue of each of its decisions, in decision order: the samples,
// in the order, a reservoir built from an eagerly kept slice held.
func TestRecordLatenciesFollowDecisions(t *testing.T) {
	prog, inputs := mixProgram(t, 1)
	res := recordRun(t, newLoadedDevice(t, prog, inputs), 0, false, nil)
	lat := make([]sim.Time, len(res.Decisions))
	for i, dec := range res.Decisions {
		lat[i] = dec.Done - dec.Issue
	}
	if got := stats.MergeReservoirs(res.InstLatencies); !reflect.DeepEqual(got, stats.ReservoirOf(lat)) {
		t.Error("the merged reservoir does not hold the decisions' latencies in decision order")
	}
}

// TestPerInstructionSizes pins the values a cold cell stores per
// instruction — an instruction (the compile's scratch, the compiled
// program and the decoded image), a decision (each published record), a
// cost-table row and a packed liveness entry — to their sizes, and holds
// each free of pointers, so no per-instruction table is in the collector's
// scan set.
func TestPerInstructionSizes(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		size uintptr
	}{
		{reflect.TypeFor[isa.Inst](), 56},
		{reflect.TypeFor[Decision](), 24},
		{reflect.TypeFor[instCost](), 24},
		{reflect.TypeFor[access](), 4},
	} {
		if n := c.typ.Size(); n != c.size {
			t.Errorf("%v takes %d bytes, want %d", c.typ, n, c.size)
		}
		if path := pointerPath(c.typ); path != "" {
			t.Errorf("%v carries a pointer at %s", c.typ, path)
		}
	}
	// The walk itself finds a pointer wherever a kind carries one.
	type nested struct {
		a int64
		b [2]struct{ s string }
	}
	for typ, want := range map[reflect.Type]string{
		reflect.TypeFor[nested]():                   ".b[0].s (string)",
		reflect.TypeFor[struct{ s []isa.PageID }](): ".s (slice)",
		reflect.TypeFor[[1]map[int]int]():           "[0] (map)",
		reflect.TypeFor[struct {
			f func()
			n int
		}](): ".f (func)",
		reflect.TypeFor[*int]():    " (ptr)",
		reflect.TypeFor[[0]*int](): "",
	} {
		if got := pointerPath(typ); got != want {
			t.Errorf("pointerPath(%v) = %q, want %q", typ, got, want)
		}
	}
}

// pointerPath is the path to the first part of a value of type t that the
// collector would scan, "" when there is none.
func pointerPath(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	case reflect.Array:
		if p := pointerPath(t.Elem()); p != "" && t.Len() > 0 {
			return "[0]" + p
		}
		return ""
	case reflect.Struct:
		for i := range t.NumField() {
			if p := pointerPath(t.Field(i).Type); p != "" {
				return "." + t.Field(i).Name + p
			}
		}
		return ""
	}
	return " (" + t.Kind().String() + ")"
}
