package conduit_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	conduit "conduit"
)

// This file is the golden fast-vs-reference identity suite: the
// timing-only fast path (NewSystem / NewExperiments) must render every
// figure byte-identically to the functional reference path
// (NewReferenceSystem / NewReferenceExperiments), which computes real
// page payloads on every substrate. Every modeled latency is
// data-independent, so the two paths are required to agree not just
// statistically but byte for byte — any drift means the fast path
// changed the model, not just its speed.

// assertIdentical renders one experiment table on a fresh fast harness
// and a fresh reference harness and requires both the text and the CSV
// encodings to match byte for byte.
func assertIdentical(t *testing.T, name string, run func(e *conduit.Experiments) (*conduit.Table, error)) {
	t.Helper()
	render := func(e *conduit.Experiments) (string, string) {
		tab, err := run(e)
		if err != nil {
			t.Fatal(err)
		}
		var csv strings.Builder
		tab.CSV(&csv)
		return tab.String(), csv.String()
	}
	fastText, fastCSV := render(conduit.NewExperiments(conduit.DefaultConfig(), 1))
	refText, refCSV := render(conduit.NewReferenceExperiments(conduit.DefaultConfig(), 1))
	if fastText != refText {
		t.Errorf("%s text rendering differs fast vs reference:\n--- fast ---\n%s\n--- reference ---\n%s", name, fastText, refText)
	}
	if fastCSV != refCSV {
		t.Errorf("%s CSV differs fast vs reference:\n--- fast ---\n%s\n--- reference ---\n%s", name, fastCSV, refCSV)
	}
}

// TestFig4ByteIdenticalFastVsReference pins the case-study figure: the
// full workload x policy sweep behind it must not notice whether the
// data plane carries payloads.
func TestFig4ByteIdenticalFastVsReference(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep on two harnesses")
	}
	assertIdentical(t, "Fig4",
		func(e *conduit.Experiments) (*conduit.Table, error) { return e.Fig4() })
}

// TestTable3ByteIdenticalFastVsReference pins the workload
// characteristics table (compiler-side, no device execution) the same
// way, closing the loop on the emission path.
func TestTable3ByteIdenticalFastVsReference(t *testing.T) {
	assertIdentical(t, "Table3",
		func(e *conduit.Experiments) (*conduit.Table, error) { return e.Table3() })
}

// TestClusterScalingByteIdenticalFastVsReference pins the multi-device
// scaling curve: sharded deploys, scatter-gather runs, and the merge
// arithmetic must all be payload-blind.
func TestClusterScalingByteIdenticalFastVsReference(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep on two harnesses")
	}
	assertIdentical(t, "ClusterScaling",
		func(e *conduit.Experiments) (*conduit.Table, error) {
			return e.ClusterScaling([]int{1, 2})
		})
}

// TestClusterShardIdentityFastVsReference is the 1-shard/N-shard
// identity re-check on the fast engine: for each shard count, a cluster
// run on the timing-only system must match the same run on the
// functional reference system field for field — elapsed, energy,
// latency distribution, decision trace, and substrate counters.
func TestClusterShardIdentityFastVsReference(t *testing.T) {
	cfg := conduit.DefaultConfig()
	src := xorFilterSource(4 * 16384)
	for _, shards := range []int{1, 3} {
		fastCl, err := conduit.NewSystem(cfg).DeployCluster(src, conduit.ClusterOptions{Shards: shards})
		if err != nil {
			t.Fatalf("fast deploy at %d shards: %v", shards, err)
		}
		refCl, err := conduit.NewReferenceSystem(cfg).DeployCluster(src, conduit.ClusterOptions{Shards: shards})
		if err != nil {
			t.Fatalf("reference deploy at %d shards: %v", shards, err)
		}
		for _, policy := range []string{"Conduit", "Ares-Flash", "Ideal"} {
			fast, err := fastCl.Run(policy)
			if err != nil {
				t.Fatalf("%s fast at %d shards: %v", policy, shards, err)
			}
			ref, err := refCl.Run(policy)
			if err != nil {
				t.Fatalf("%s reference at %d shards: %v", policy, shards, err)
			}
			if !reflect.DeepEqual(keyOf(fast), keyOf(ref)) {
				t.Errorf("%s at %d shards: fast result differs from reference\n fast: %+v\n  ref: %+v",
					policy, shards, keyOf(fast), keyOf(ref))
			}
			if !reflect.DeepEqual(countersKey(fast.Counters), countersKey(ref.Counters)) {
				t.Errorf("%s at %d shards: fast counters differ from reference", policy, shards)
			}
		}
		fastCl.Close()
		refCl.Close()
	}
}

// TestServedResponseByteIdenticalToReference drives the serving stack
// (which always runs the timing-only fast path) and checks the served
// simulation result against a direct run on the functional reference
// system. This is the per-request identity that the LatencyCurve sweep
// aggregates; the rendered curve itself mixes in operational wall-clock
// latencies and so cannot be byte-compared across processes.
func TestServedResponseByteIdenticalToReference(t *testing.T) {
	cfg := conduit.DefaultConfig()
	src := quickstartSource(2 * 16384)
	c, err := conduit.Compile(src, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := conduit.NewReferenceSystem(cfg).RunCompiled(c, "Conduit")
	if err != nil {
		t.Fatal(err)
	}
	srv := conduit.NewServer(cfg, conduit.ServeOptions{Concurrency: 2, Prefork: 1})
	defer srv.Drain()
	if err := srv.RegisterCompiled("quickstart", c); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Do(conduit.Request{Tenant: "t", Workload: "quickstart", Policy: "Conduit"})
	if err != nil {
		t.Fatal(err)
	}
	if got := keyOf(conduit.ResultOf(resp)); !reflect.DeepEqual(got, keyOf(want)) {
		t.Errorf("served fast-path response differs from functional reference run\n got: %+v\nwant: %+v",
			got, keyOf(want))
	}
}

// TestZeroFaultServingByteIdenticalToReference extends the served
// identity to the fault-tolerant dispatch path: a server with the whole
// chaos and recovery stack enabled but every injection rate at zero must
// serve results byte-identical to a direct run on the functional
// reference system. This is the zero-overhead contract that licenses
// wiring the resilient dispatcher into the hot path at all.
func TestZeroFaultServingByteIdenticalToReference(t *testing.T) {
	cfg := conduit.DefaultConfig()
	src := quickstartSource(2 * 16384)
	c, err := conduit.Compile(src, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := conduit.NewReferenceSystem(cfg).RunCompiled(c, "Conduit")
	if err != nil {
		t.Fatal(err)
	}
	faults := conduit.FaultConfig{Seed: 99} // all rates zero
	srv := conduit.NewServer(cfg, conduit.ServeOptions{
		Concurrency: 2,
		Prefork:     1,
		Faults:      &faults,
		Recovery: conduit.RecoveryOptions{
			MaxAttempts:      3,
			HedgeThreshold:   2,
			BreakerThreshold: 4,
			FallbackPolicy:   "CPU",
		},
	})
	defer srv.Drain()
	if err := srv.RegisterCompiled("quickstart", c); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Do(conduit.Request{Tenant: "t", Workload: "quickstart", Policy: "Conduit"})
	if err != nil {
		t.Fatal(err)
	}
	if got := keyOf(conduit.ResultOf(resp)); !reflect.DeepEqual(got, keyOf(want)) {
		t.Errorf("zero-fault resilient response differs from functional reference run\n got: %+v\nwant: %+v",
			got, keyOf(want))
	}
	if log := srv.FaultLog(); len(log) != 0 {
		t.Errorf("zero-rate chaos injected %d faults", len(log))
	}
	rec := resp.Outcome.Recovery
	if rec.Retries != 0 || rec.Hedges != 0 || rec.Fallbacks != 0 || rec.BackoffSim != 0 {
		t.Errorf("zero-fault request accrued recovery costs: %+v", rec)
	}
}

// TestAvailabilityByteIdenticalFastVsReference pins the availability
// sweep the same way as the paper figures: chaos draws, recovery
// machinery, and the table rendering must all be payload-blind.
func TestAvailabilityByteIdenticalFastVsReference(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep on two harnesses")
	}
	assertIdentical(t, "Availability",
		func(e *conduit.Experiments) (*conduit.Table, error) {
			return e.Availability(conduit.AvailabilityOptions{
				Requests:   15,
				FaultRates: []float64{0, 0.1},
			})
		})
}

// TestLatencyCurveStructureIdenticalFastVsReference runs the open-loop
// sweep once per harness and compares the deterministic projection of
// the table: the header and the (policy, shards, offered) identity of
// every row. The measured columns are wall-clock operational values and
// differ run to run even on one engine, so they are excluded by
// construction, not by tolerance.
func TestLatencyCurveStructureIdenticalFastVsReference(t *testing.T) {
	if testing.Short() {
		t.Skip("open-loop wall-clock sweep")
	}
	opts := conduit.LatencyOptions{
		Workloads: []string{"AES"},
		Loads:     []float64{200},
		Duration:  50 * time.Millisecond,
		Prefork:   1,
	}
	shape := func(e *conduit.Experiments) []string {
		tab, err := e.LatencyCurve(opts)
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		for _, row := range rowsOf(t, tab) {
			rows = append(rows, row[0]+"|"+row[1]+"|"+row[2])
		}
		return rows
	}
	fast := shape(conduit.NewExperiments(conduit.DefaultConfig(), 1))
	ref := shape(conduit.NewReferenceExperiments(conduit.DefaultConfig(), 1))
	if !reflect.DeepEqual(fast, ref) {
		t.Errorf("latency sweep shape differs fast vs reference:\n fast: %v\n  ref: %v", fast, ref)
	}
}
