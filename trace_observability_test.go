package conduit_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	conduit "conduit"
	"conduit/internal/jsonl"
	"conduit/internal/serve"
	"conduit/internal/trace"
)

// traceSchedule is the fixed request schedule the determinism tests
// replay: a mix of tenants, a plain and a sharded application, and the
// full policy spread, issued strictly sequentially so the admission
// sequence — and therefore every locally minted trace ID — is the same
// on every run.
func traceSchedule() []conduit.Request {
	var reqs []conduit.Request
	policies := []string{"Conduit", "CPU", "Ideal"}
	for i := 0; i < 8; i++ {
		for _, w := range []string{"plain", "sharded"} {
			reqs = append(reqs, conduit.Request{
				Tenant:   fmt.Sprintf("tenant-%02d", i%3),
				Workload: w,
				Policy:   policies[i%len(policies)],
			})
		}
	}
	return reqs
}

// newTraceServer builds a server with the whole observability surface
// armed: deterministic chaos, the recovery ladder, a sharded and an
// unsharded application, and the given trace options.
func newTraceServer(t *testing.T, topts *conduit.TraceOptions) *conduit.Server {
	t.Helper()
	faults := conduit.FaultsAtRate(0.15, 7)
	srv := conduit.NewServer(conduit.DefaultConfig(), conduit.ServeOptions{
		Concurrency: 2,
		Prefork:     1,
		Faults:      &faults,
		Recovery: conduit.RecoveryOptions{
			MaxAttempts:      3,
			HedgeThreshold:   2,
			BreakerThreshold: 4,
			FallbackPolicy:   "CPU",
		},
		Trace: topts,
	})
	if err := srv.Register("plain", quickstartSource(2*16384)); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterSharded("sharded", xorFilterSource(2*16384), 2); err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestTraceSameSeedByteIdentical is the tentpole determinism pin: two
// fresh servers draining the same seed, fault schedule, and request
// sequence export byte-identical simulated-time JSONL traces — fault
// injections, retries, hedges, breaker events, shard fan-out and all.
// The tracer is unclocked (Options.Now nil), so no wall-clock field can
// leak in to break the identity.
func TestTraceSameSeedByteIdentical(t *testing.T) {
	run := func() ([]byte, []*trace.Span) {
		srv := newTraceServer(t, &conduit.TraceOptions{SampleEvery: 1})
		defer srv.Drain()
		for _, req := range traceSchedule() {
			srv.Do(req) // chaos responses may fail; the trace records that too
		}
		spans := srv.Tracer().Spans()
		var buf bytes.Buffer
		if err := jsonl.Write(&buf, spans); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), spans
	}
	first, spans := run()
	second, _ := run()
	if len(first) == 0 {
		t.Fatal("traced run exported no spans")
	}
	if !bytes.Equal(first, second) {
		t.Errorf("same-seed traces differ across fresh servers\n--- first ---\n%s\n--- second ---\n%s",
			first, second)
	}
	// The recovery ladder runs devices too: every shard sub-run that
	// produced a result (its span ends past 0) shows the device run
	// that produced it, retried, hedged, or fallen back.
	ran := map[uint64]bool{}
	for _, sp := range spans {
		if sp.Name == "device.run" {
			ran[sp.Parent] = true
		}
	}
	served := 0
	for _, sp := range spans {
		if sp.Name != "cluster.shard" || sp.SimEndNS == 0 {
			continue
		}
		served++
		if !ran[sp.ID] {
			t.Errorf("cluster.shard span %x (trace %x, attrs %v) served a result with no device.run child",
				sp.ID, sp.TraceID, sp.Attrs)
		}
	}
	if served == 0 {
		t.Error("no cluster.shard span served a result")
	}
	for _, want := range []string{`"serve.request"`, `"serve.run"`, `"cluster.shard"`, `"fault_injected"`} {
		if !bytes.Contains(first, []byte(want)) {
			t.Errorf("trace export missing %s", want)
		}
	}
	if bytes.Contains(first, []byte(`"wall_`)) {
		t.Error("unclocked trace export leaked a wall-clock field")
	}
}

// TestTraceOffOutputIdenticalToUntraced is the zero-sampling identity:
// a server armed with a tracer at SampleEvery 0 (the wire-deferred
// default every target runs with) must serve responses and simulated
// accounting identical to a server with no tracer at all — over the
// same golden request suite. Wall-clock latency columns are excluded:
// they differ between ANY two runs, traced or not.
func TestTraceOffOutputIdenticalToUntraced(t *testing.T) {
	type outcome struct {
		key     resultKey
		errText string
	}
	// simTenant is the deterministic projection of a tenant snapshot —
	// everything except the wall-clock latency quantiles.
	type simTenant struct {
		Tenant                                            string
		Requests, Errors, Shed, Expired, Shared, Attained int64
		Recovery                                          conduit.Recovery
		Sim                                               conduit.Time
		EnergyJ                                           float64
	}
	run := func(topts *conduit.TraceOptions) ([]outcome, []simTenant, *conduit.Server) {
		srv := newTraceServer(t, topts)
		var outs []outcome
		for _, req := range traceSchedule() {
			resp, err := srv.Do(req)
			o := outcome{}
			if err != nil {
				o.errText = err.Error()
			} else if resp.Err != nil {
				o.errText = resp.Err.Error()
			} else {
				o.key = keyOf(conduit.ResultOf(resp))
			}
			outs = append(outs, o)
		}
		srv.Drain()
		var tenants []simTenant
		for _, ts := range srv.Tenants() {
			tenants = append(tenants, simTenant{
				Tenant: ts.Tenant, Requests: ts.Requests, Errors: ts.Errors,
				Shed: ts.Shed, Expired: ts.Expired, Shared: ts.Shared,
				Attained: ts.Attained, Recovery: ts.Recovery,
				Sim: ts.Sim, EnergyJ: ts.EnergyJ,
			})
		}
		return outs, tenants, srv
	}
	wantOuts, wantTenants, _ := run(nil)
	gotOuts, gotTenants, srv := run(&conduit.TraceOptions{})
	if !reflect.DeepEqual(gotOuts, wantOuts) {
		t.Errorf("trace-off responses differ from untraced\n got: %+v\nwant: %+v", gotOuts, wantOuts)
	}
	if !reflect.DeepEqual(gotTenants, wantTenants) {
		t.Errorf("trace-off tenant accounting differs from untraced\n got: %+v\nwant: %+v",
			gotTenants, wantTenants)
	}
	if spans := srv.Tracer().Spans(); len(spans) != 0 {
		t.Errorf("SampleEvery=0 recorded %d spans without a wire sampling bit", len(spans))
	}
}

// TestMetricsSnapshotMatchesAccounting: the fill-at-scrape registry is
// a projection of the authoritative books, and a superset of them: on a
// server replaying a recorded chaos schedule, every TenantSnapshot field
// — each count, each Recovery field, the wall percentiles, Sim and
// EnergyJ — reads back from its series, and so do the pool quarantine,
// repair and restore counters.
func TestMetricsSnapshotMatchesAccounting(t *testing.T) {
	_, log := chaosOutcomes(t, chaosServeOptions(0.1, 7), 25)
	opts := chaosServeOptions(0, 0)
	opts.Faults = nil
	opts.ReplayFaults = log
	srv := conduit.NewServer(conduit.DefaultConfig(), opts)
	defer srv.Drain()
	if err := srv.RegisterSharded("aes", mustWorkloadSource(t, "aes"), 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		srv.Do(conduit.Request{Tenant: fmt.Sprintf("tenant-%02d", i%3), Workload: "aes", Policy: "Conduit"})
	}
	samples := srv.Metrics()
	byKey := make(map[string]conduit.MetricSample)
	for _, s := range samples {
		key := s.Name
		for _, l := range s.Labels {
			key += "|" + l.Key + "=" + l.Value
		}
		byKey[key] = s
	}
	tenants := srv.Tenants()
	if total := srv.Total(); total.Recovery.Retries == 0 || total.Recovery.Injected == 0 {
		t.Fatalf("replayed chaos cost no recovery work (%+v); the test is vacuous", total.Recovery)
	}
	for _, ts := range tenants {
		series := func(name string) conduit.MetricSample { return byKey[name+"|tenant="+ts.Tenant] }
		for name, want := range map[string]float64{
			"conduit_serve_requests_total":        float64(ts.Requests),
			"conduit_serve_errors_total":          float64(ts.Errors),
			"conduit_serve_shed_total":            float64(ts.Shed),
			"conduit_serve_expired_total":         float64(ts.Expired),
			"conduit_serve_shared_total":          float64(ts.Shared),
			"conduit_serve_attained_total":        float64(ts.Attained),
			"conduit_serve_attempts_total":        float64(ts.Recovery.Attempts),
			"conduit_serve_retries_total":         float64(ts.Recovery.Retries),
			"conduit_serve_hedges_total":          float64(ts.Recovery.Hedges),
			"conduit_serve_hedge_wins_total":      float64(ts.Recovery.HedgeWins),
			"conduit_serve_fallbacks_total":       float64(ts.Recovery.Fallbacks),
			"conduit_serve_faults_injected_total": float64(ts.Recovery.Injected),
			"conduit_serve_backoff_sim_ns_total":  float64(ts.Recovery.BackoffSim),
			"conduit_serve_sim_ns_total":          float64(ts.Sim),
			"conduit_serve_energy_joules":         ts.EnergyJ,
		} {
			if got := series(name); got.Name == "" || got.Value != want {
				t.Errorf("tenant %s: %s scrapes as %v (present=%v), accounting says %v",
					ts.Tenant, name, got.Value, got.Name != "", want)
			}
		}
		h := series(serve.LatencySeries).Hist
		if h == nil || h.Count() != ts.Requests || time.Duration(h.P50()) != ts.P50 ||
			time.Duration(h.P99()) != ts.P99 || time.Duration(h.P999()) != ts.P999 || time.Duration(h.Max()) != ts.Max {
			t.Errorf("tenant %s: latency histogram disagrees with the percentiles %+v", ts.Tenant, ts)
		}
	}
	pools := srv.PoolStats()
	if len(pools) == 0 {
		t.Fatal("no pools to scrape")
	}
	for name, ps := range pools {
		if got := byKey["conduit_pool_quarantined_total|pool="+name].Value; got != float64(ps.Quarantined) {
			t.Errorf("pool %s: scrape says %v quarantined, stats say %d", name, got, ps.Quarantined)
		}
		if got := byKey["conduit_pool_repairs_total|pool="+name].Value; got != float64(ps.Repairs) {
			t.Errorf("pool %s: scrape says %v repairs, stats say %d", name, got, ps.Repairs)
		}
		// A settle may restore one more fork between the scrape and the
		// stats read: the series exists and has not run ahead of the books.
		restored, ok := byKey["conduit_pool_restored_total|pool="+name]
		if got := restored.Value; !ok || got > float64(ps.Restored) || ps.Restored > ps.Preforked+ps.Misses {
			t.Errorf("pool %s: scrape says %v restored (present=%v), stats say %d of %d forks made",
				name, got, ok, ps.Restored, ps.Preforked+ps.Misses)
		}
	}
}
