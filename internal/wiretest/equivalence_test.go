package wiretest

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	conduit "conduit"
	"conduit/internal/loadgen"
	"conduit/internal/metrics"
	"conduit/internal/router"
	"conduit/internal/serve"
	"conduit/internal/target"
	"conduit/internal/wire"
	"conduit/internal/workloads"
)

// resolveNames maps workload aliases ("aes") to their registered
// names ("AES") — requests must name workloads exactly as the server
// registered them, on both sides of the wire.
func resolveNames(t *testing.T, names []string) []string {
	t.Helper()
	out := make([]string, len(names))
	for i, name := range names {
		w, ok := workloads.Find(name, 1)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		out[i] = w.Name
	}
	return out
}

// equivSchedule is the deterministic request sequence both serving
// modes replay lock-step, ignoring its arrival times: the first n events
// of a seeded schedule, whose picks draw from substreams independent of
// the arrivals.
func equivSchedule(t *testing.T, n int, names []string) []loadgen.Event {
	t.Helper()
	events, err := loadgen.Generate(loadgen.Spec{
		Arrival: "poisson", QPS: 1000, MaxEvents: n, Seed: 7, Tenants: 3,
		Workloads: resolveNames(t, names), Policies: []string{"Conduit", "CPU"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != n {
		t.Fatalf("schedule has %d events, want %d", len(events), n)
	}
	return events
}

// inProcessFrames replays the schedule lock-step against an in-process
// conduit.Server and projects every response through the same
// conversion the target server applies, yielding the reference frame
// sequence plus the final metrics scrape and pool rows.
func inProcessFrames(t *testing.T, opts conduit.ServeOptions, names []string, events []loadgen.Event) ([][]byte, []metrics.Sample, []wire.PoolRow) {
	t.Helper()
	srv := conduit.NewServer(conduit.DefaultConfig(), opts)
	for _, name := range names {
		w, ok := workloads.Find(name, 1)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		if err := srv.Register(w.Name, w.Source); err != nil {
			t.Fatal(err)
		}
	}
	frames := make([][]byte, 0, len(events))
	for i, ev := range events {
		id := uint64(i + 1)
		ch := make(chan conduit.Response, 1)
		err := srv.Submit(conduit.Request{
			Tenant: ev.Tenant, Workload: ev.Workload, Policy: ev.Policy, Deadline: ev.Deadline,
		}, func(r *conduit.Response) { ch <- *r })
		var frame wire.Response
		if err != nil {
			frame = target.WireResponse(id, nil, err)
		} else {
			resp := <-ch
			frame = target.WireResponse(id, &resp, resp.Err)
		}
		frames = append(frames, wire.Append(nil, frame))
	}
	samples := srv.Metrics()
	srv.Drain()
	pools := target.WirePools(srv.PoolStats())
	return frames, samples, pools
}

// routedFrames replays the same schedule lock-step through a router
// over the given fleet and returns the re-encoded response frames.
func routedFrames(t *testing.T, rt *router.Router, events []loadgen.Event) [][]byte {
	t.Helper()
	frames := make([][]byte, 0, len(events))
	for i, ev := range events {
		resp, _, err := rt.Do(wire.Request{
			Tenant: ev.Tenant, Workload: ev.Workload, Policy: ev.Policy,
			DeadlineNS: int64(ev.Deadline),
		})
		if err != nil {
			t.Fatalf("request %d (%s/%s): %v", i, ev.Workload, ev.Policy, err)
		}
		frames = append(frames, wire.Append(nil, resp))
	}
	return frames
}

// encodeReport canonicalizes a scrape's tenant report for byte
// comparison: its conduit_serve_* counter and gauge series, with the
// target label a routed scrape carries stripped, re-merged and wrapped in
// a Snapshot frame with a fixed envelope. Histograms are left out: wall-
// clock latency is the one legitimately nondeterministic quantity.
func encodeReport(samples []metrics.Sample) []byte {
	reg := metrics.New()
	for _, s := range samples {
		if !strings.HasPrefix(s.Name, "conduit_serve_") || s.Kind == metrics.KindHistogram {
			continue
		}
		var labels []metrics.Label
		for _, l := range s.Labels {
			if l.Key != "target" {
				labels = append(labels, l)
			}
		}
		s.Labels = labels
		reg.Add(s)
	}
	return wire.Append(nil, wire.Snapshot{ID: 1, Target: "report", Samples: reg.Snapshot()})
}

// wallCount is how many responses a target's all-tenant wall-latency
// histogram holds in a fleet scrape; -1 when the series is absent.
func wallCount(fleet []metrics.Sample, name string) int64 {
	for _, s := range fleet {
		if s.Name == serve.LatencySeries && len(s.Labels) == 1 && s.Labels[0].Value == name {
			return s.Hist.Count()
		}
	}
	return -1
}

// TestRoutedByteIdenticalToInProcess is the wire tier's equivalence
// proof: a one-target fleet driven lock-step through a real OS target
// process answers every request with a response frame byte-identical
// to the in-process Server.Submit projection, and its final tenant
// report and pool accounting are byte-identical too. Serving options
// pin the deterministic configuration (no pooling, no coalescing,
// concurrency 1) so the two runs share every counter exactly.
func TestRoutedByteIdenticalToInProcess(t *testing.T) {
	names := []string{"aes", "jacobi-1d"}
	events := equivSchedule(t, 24, names)

	wantFrames, wantSamples, wantPools := inProcessFrames(t, conduit.ServeOptions{
		Concurrency: 1, Prefork: 0, Coalesce: false,
	}, names, events)

	ft := startTarget(t, "-name", "t0", "-mix", "aes,jacobi-1d", "-scale", "1",
		"-concurrency", "1", "-prefork", "0", "-coalesce=false")
	rt := dialFleet(t, router.Options{Retries: 1}, ft)

	gotFrames := routedFrames(t, rt, events)
	for i := range wantFrames {
		if !bytes.Equal(gotFrames[i], wantFrames[i]) {
			t.Fatalf("response %d differs across the wire\nrouted:     %x\nin-process: %x",
				i, gotFrames[i], wantFrames[i])
		}
	}

	fleet, missing := rt.Snapshot()
	if len(missing) != 0 {
		t.Fatalf("snapshot missing targets: %v", missing)
	}
	if got, want := encodeReport(fleet), encodeReport(wantSamples); !bytes.Equal(got, want) {
		t.Errorf("tenant report differs across the wire\nrouted:\n%s\nin-process:\n%s",
			serve.Report("routed", fleet), serve.Report("in-process", wantSamples))
	}
	if got, want := wallCount(fleet, "t0"), int64(len(events)); got != want {
		t.Errorf("target wall histogram holds %d samples, want %d", got, want)
	}

	acks := rt.DrainAll()
	var ack wire.DrainAck
	ok := false
	for _, td := range acks {
		if td.Target == "t0" {
			ack, ok = td.Ack, true
		}
	}
	if !ok {
		t.Fatalf("no drain ack from t0 (acks: %v)", acks)
	}
	if !reflect.DeepEqual(ack.Pools, wantPools) {
		t.Errorf("drained pool rows differ\nrouted:     %+v\nin-process: %+v", ack.Pools, wantPools)
	}
	if err := ft.waitExit(30 * time.Second); err != nil {
		t.Errorf("target exited non-zero after drain: %v", err)
	}
}

// TestTargetRejectsBadRequests: protocol-level validation happens
// before the serving engine sees (and accounts) the request: after three
// rejected requests and one good one, the tenant's request series reads
// exactly one.
func TestTargetRejectsBadRequests(t *testing.T) {
	ft := startTarget(t, "-name", "t0", "-mix", "aes", "-scale", "1", "-prefork", "0")
	rt := dialFleet(t, router.Options{Retries: 1}, ft)

	aes := resolveNames(t, []string{"aes"})[0]
	for _, tc := range []struct {
		name string
		req  wire.Request
	}{
		{"unknown workload", wire.Request{Tenant: "t", Workload: "no-such", Policy: "Conduit"}},
		{"unknown policy", wire.Request{Tenant: "t", Workload: aes, Policy: "no-such"}},
		{"partial shard set", wire.Request{Tenant: "t", Workload: aes, Policy: "Conduit", Shards: []uint32{0, 1}}},
	} {
		resp, _, err := rt.Do(tc.req)
		if err != nil {
			t.Fatalf("%s: transport error: %v", tc.name, err)
		}
		if resp.Code != wire.CodeBadRequest {
			t.Errorf("%s: code %v, want CodeBadRequest (%q)", tc.name, resp.Code, resp.Error)
		}
	}
	if resp, _, err := rt.Do(wire.Request{Tenant: "t", Workload: aes, Policy: "Conduit"}); err != nil || resp.Code != wire.CodeOK {
		t.Fatalf("good request: %v (%+v)", err, resp)
	}
	fleet, _ := rt.Snapshot()
	var served float64 = -1
	for _, s := range fleet {
		if s.Name == "conduit_serve_requests_total" {
			served = s.Value
		}
	}
	if served != 1 {
		t.Errorf("conduit_serve_requests_total = %v after 3 rejected and 1 served request, want 1", served)
	}
}

// TestZeroFaultRoutedMatchesFaultFree pins the one-dispatch-path
// contract across the wire: every request is served through the recovery
// dispatcher, so a routed run with the whole recovery stack armed over an
// empty replayed fault schedule answers with response frames and tenant
// reports byte-identical — no field normalized — to a routed run with no
// chaos configured at all, each reporting exactly one clean attempt per
// request.
func TestZeroFaultRoutedMatchesFaultFree(t *testing.T) {
	names := []string{"aes"}
	events := equivSchedule(t, 16, names)
	empty := t.TempDir() + "/empty-faults.jsonl"
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	common := []string{"-mix", "aes", "-scale", "1", "-concurrency", "1", "-prefork", "0", "-coalesce=false"}
	armed := startTarget(t, append([]string{"-name", "armed", "-faultreplay", empty,
		"-retries", "3", "-hedge", "-breaker", "4", "-fallback", "CPU"}, common...)...)
	plain := startTarget(t, append([]string{"-name", "plain"}, common...)...)

	rtArmed := dialFleet(t, router.Options{Retries: 1}, armed)
	rtPlain := dialFleet(t, router.Options{Retries: 1}, plain)

	armedFrames := routedResponses(t, rtArmed, events)
	plainFrames := routedResponses(t, rtPlain, events)
	for i := range events {
		a, p := armedFrames[i], plainFrames[i]
		if a.Recovery != (serve.Recovery{Attempts: 1}) {
			t.Fatalf("response %d: armed zero-fault run accrued recovery costs: %+v", i, a.Recovery)
		}
		if !bytes.Equal(wire.Append(nil, a), wire.Append(nil, p)) {
			t.Fatalf("response %d differs between zero-fault and fault-free runs\narmed: %+v\nplain: %+v", i, a, p)
		}
	}

	fa, _ := rtArmed.Snapshot()
	fp, _ := rtPlain.Snapshot()
	if got, want := encodeReport(fa), encodeReport(fp); !bytes.Equal(got, want) {
		t.Errorf("tenant reports differ between zero-fault and fault-free runs\narmed:\n%s\nplain:\n%s",
			serve.Report("armed", fa), serve.Report("plain", fp))
	}
}

// routedResponses is routedFrames keeping the decoded responses.
func routedResponses(t *testing.T, rt *router.Router, events []loadgen.Event) []wire.Response {
	t.Helper()
	out := make([]wire.Response, 0, len(events))
	for i, ev := range events {
		resp, _, err := rt.Do(wire.Request{
			Tenant: ev.Tenant, Workload: ev.Workload, Policy: ev.Policy,
			DeadlineNS: int64(ev.Deadline),
		})
		if err != nil {
			t.Fatalf("request %d (%s/%s): %v", i, ev.Workload, ev.Policy, err)
		}
		out = append(out, resp)
	}
	return out
}
