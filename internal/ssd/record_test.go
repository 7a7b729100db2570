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
	"conduit/internal/offload"
	"conduit/internal/sim"
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

// TestRunsShareTheirPublishedRecord: over the six workloads at scales 1
// and 2, under every device policy and Ideal, a second run of a deployment
// returns the first run's decision trace and reservoir themselves, and that
// result equals, field for field, a run on a device whose table is empty.
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
				if unsafe.SliceData(second.Decisions) != unsafe.SliceData(first.Decisions) ||
					second.InstLatencies != first.InstLatencies {
					t.Errorf("%s: the second run did not return the first run's record", what)
				}
				if !reflect.DeepEqual(second, alone) {
					t.Errorf("%s: a run sharing the record differs from a run with an empty table", what)
				}
			}
		}
	}
}

// TestDivergentRunKeepsItsOwnRecord: a run whose decisions differ from the
// published record — here, one whose firmware clock starts later, so every
// issue time moves — records its own, equal to what it records with an
// empty table, and leaves the published record as it was.
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
	if !reflect.DeepEqual(got, want) {
		t.Error("a divergent run differs from the same run with an empty table")
	}
	if pub, _ := master.records.Load("Conduit"); unsafe.SliceData(pub.(record).decisions) != unsafe.SliceData(clean.Decisions) ||
		!slices.Equal(pub.(record).decisions, published) {
		t.Error("a divergent run changed the published record")
	}
}
