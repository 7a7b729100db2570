package ssd

import (
	"reflect"
	"testing"

	"conduit/internal/offload"
)

// TestRunConsumesLoadedImage locks in the fail-fast contract: execution
// mutates the loaded data image, so a second Run on the same device must
// refuse instead of silently computing on consumed state (and, before the
// fix, accumulating decisions/latencies/pageReady across runs).
func TestRunConsumesLoadedImage(t *testing.T) {
	prog, inputs := mixProgram(t, 1)
	d := newLoadedDevice(t, prog, inputs)
	if d.consumed {
		t.Fatal("freshly loaded device reports consumed")
	}
	if _, err := d.Run(offload.Conduit{}); err != nil {
		t.Fatal(err)
	}
	if !d.consumed {
		t.Fatal("device must report consumed after Run")
	}
	if _, err := d.Run(offload.Conduit{}); err == nil {
		t.Fatal("second Run on a consumed image must fail fast")
	}
	// Reloading restores runnability.
	d.ExitComputationMode()
	if err := d.LoadProgram(prog, inputs); err != nil {
		t.Fatal(err)
	}
	d.EnterComputationMode()
	if _, err := d.Run(offload.Conduit{}); err != nil {
		t.Fatalf("Run after reload: %v", err)
	}
}

// TestResultIsImmutableSnapshot is the regression test for the
// InstLatencies aliasing bug: the returned Result must not share mutable
// state with the device, so running a clone of the same pristine image
// cannot retroactively change an already returned result.
func TestResultIsImmutableSnapshot(t *testing.T) {
	prog, inputs := mixProgram(t, 1)
	master := newLoadedDevice(t, prog, inputs)

	d1 := master.Clone()
	res, err := d1.Run(offload.Conduit{})
	if err != nil {
		t.Fatal(err)
	}
	count := res.InstLatencies.Count()
	mean := res.InstLatencies.Mean()
	decisions := append([]Decision(nil), res.Decisions...)

	// Drive more work through another restored device; res must not move.
	d2 := master.Clone()
	if _, err := d2.Run(offload.AresFlash{}); err != nil {
		t.Fatal(err)
	}
	if res.InstLatencies.Count() != count || res.InstLatencies.Mean() != mean {
		t.Fatalf("result latencies mutated: count %d->%d mean %v->%v",
			count, res.InstLatencies.Count(), mean, res.InstLatencies.Mean())
	}
	if !reflect.DeepEqual(decisions, res.Decisions) {
		t.Fatal("result decisions mutated by a later run")
	}
}

// TestCloneRunsAreDeterministicAndIsolated is the snapshot-restore
// correctness property the deploy-amortized sweep engine rests on: every
// clone of a post-deploy device produces byte-identical results, and
// running a clone leaves the master pristine.
func TestCloneRunsAreDeterministicAndIsolated(t *testing.T) {
	prog, inputs := mixProgram(t, 1)
	master := newLoadedDevice(t, prog, inputs)

	run := func() *Result {
		t.Helper()
		res, err := master.Clone().Run(offload.Conduit{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.Elapsed != r2.Elapsed {
		t.Fatalf("elapsed differs across clones: %v vs %v", r1.Elapsed, r2.Elapsed)
	}
	if !reflect.DeepEqual(r1.Decisions, r2.Decisions) {
		t.Fatal("decision traces differ across clones")
	}
	if r1.ComputeEnergy != r2.ComputeEnergy || r1.MovementEnergy != r2.MovementEnergy {
		t.Fatal("energy differs across clones")
	}
	if r1.OverheadTime != r2.OverheadTime {
		t.Fatal("overhead differs across clones")
	}
	if !reflect.DeepEqual(r1.Counters, r2.Counters) {
		t.Fatal("counters differ across clones")
	}
	if r1.InstLatencies.Count() != r2.InstLatencies.Count() ||
		r1.InstLatencies.Mean() != r2.InstLatencies.Mean() ||
		r1.InstLatencies.P9999() != r2.InstLatencies.P9999() {
		t.Fatal("latency distributions differ across clones")
	}
	if master.consumed {
		t.Fatal("running clones consumed the master image")
	}
	// The master, run directly, still matches the functional reference —
	// nothing the clones did leaked back into it.
	if _, err := master.Run(offload.Conduit{}); err != nil {
		t.Fatal(err)
	}
	verifyAgainstReference(t, master, prog, inputs)
}

// TestCloneMatchesOriginalRun: a clone's run is byte-identical to running
// the original device itself — the restore path is indistinguishable from
// the fresh-deploy path.
func TestCloneMatchesOriginalRun(t *testing.T) {
	prog, inputs := mixProgram(t, 1)
	// Fresh policy instances per run: some baselines (IFP+ISP) carry
	// per-run selection state.
	for i, pol := range allPolicies() {
		master := newLoadedDevice(t, prog, inputs)
		clone := master.Clone()
		want, err := master.Run(pol)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		got, err := clone.Run(allPolicies()[i])
		if err != nil {
			t.Fatalf("%s clone: %v", pol.Name(), err)
		}
		if want.Elapsed != got.Elapsed || !reflect.DeepEqual(want.Decisions, got.Decisions) ||
			want.ComputeEnergy != got.ComputeEnergy || want.MovementEnergy != got.MovementEnergy {
			t.Fatalf("%s: clone run differs from original run", pol.Name())
		}
		verifyAgainstReference(t, clone, prog, inputs)
	}
}
