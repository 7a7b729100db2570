package wiretest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"conduit/internal/jsonl"
	"conduit/internal/metrics"
	"conduit/internal/router"
	"conduit/internal/trace"
	"conduit/internal/wire"
)

// tracedFleetRun drives one fixed sequential schedule through a fresh
// two-target fleet with the router tracer armed (unclocked — only the
// simulated timeline is recorded) and returns the fleet-merged trace
// export plus the router and remote span sets.
func tracedFleetRun(t *testing.T) ([]byte, []*trace.Span, map[string][]*trace.Span, *router.Router) {
	t.Helper()
	names := resolveNames(t, []string{"aes", "jacobi-1d"})
	events := equivSchedule(t, 16, names)

	// Coalescing off and no pool: coalescing is wall-clock-shaped (who
	// arrives while whom is in flight), and this test pins simulated-time
	// bytes.
	t0 := startTarget(t, "-name", "t0", "-mix", "aes,jacobi-1d", "-scale", "1",
		"-prefork", "0", "-coalesce=false")
	t1 := startTarget(t, "-name", "t1", "-mix", "aes,jacobi-1d", "-scale", "1",
		"-prefork", "0", "-coalesce=false")
	tracer := trace.New(trace.Options{SampleEvery: 1})
	rt := dialFleet(t, router.Options{Retries: 2, Tracer: tracer}, t0, t1)

	for i, ev := range events {
		resp, _, err := rt.Do(wire.Request{Tenant: ev.Tenant, Workload: ev.Workload, Policy: ev.Policy})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.Code != wire.CodeOK {
			t.Fatalf("request %d: code %v (%s)", i, resp.Code, resp.Error)
		}
	}

	remote := rt.RemoteSpans()
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# process router")
	if err := jsonl.Write(&buf, tracer.Spans()); err != nil {
		t.Fatal(err)
	}
	targets := make([]string, 0, len(remote))
	for name := range remote {
		targets = append(targets, name)
	}
	sort.Strings(targets)
	for _, name := range targets {
		spans := remote[name]
		trace.SortSpans(spans)
		fmt.Fprintf(&buf, "# process target %s\n", name)
		if err := jsonl.Write(&buf, spans); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), tracer.Spans(), remote, rt
}

// TestRoutedTraceByteIdenticalAcrossFleets is the cross-process half of
// the determinism pin: the same seed and request schedule, driven into
// two entirely fresh fleets (new processes, new ports, new goroutine
// interleavings), must export byte-identical fleet-merged sim-time
// traces — router placement spans, per-target serve spans and all.
func TestRoutedTraceByteIdenticalAcrossFleets(t *testing.T) {
	first, routerSpans, remote, _ := tracedFleetRun(t)
	second, _, _, _ := tracedFleetRun(t)

	if len(routerSpans) == 0 {
		t.Fatal("router recorded no spans")
	}
	if len(remote) == 0 {
		t.Fatal("no remote spans came back over the wire")
	}
	if !bytes.Equal(first, second) {
		t.Errorf("fleet traces differ across fresh fleets\n--- first ---\n%s\n--- second ---\n%s",
			first, second)
	}
	for _, want := range []string{`"router.request"`, `"router.attempt"`, `"serve.request"`, "# process target t0", "# process target t1"} {
		if !bytes.Contains(first, []byte(want)) {
			t.Errorf("fleet trace missing %s", want)
		}
	}
	if bytes.Contains(first, []byte(`"wall_`)) {
		t.Error("fleet trace leaked a wall-clock field across the wire")
	}
}

// TestFleetTracePerfettoAndMetrics: the merged fleet trace renders as
// valid Perfetto trace_event JSON (one process per participant), and
// the fleet snapshot produces a non-empty scrape covering every target.
func TestFleetTracePerfettoAndMetrics(t *testing.T) {
	_, routerSpans, remote, rt := tracedFleetRun(t)

	procs := []trace.Process{{Name: "router", Spans: routerSpans}}
	targets := make([]string, 0, len(remote))
	for name := range remote {
		targets = append(targets, name)
	}
	sort.Strings(targets)
	for _, name := range targets {
		spans := remote[name]
		trace.SortSpans(spans)
		procs = append(procs, trace.Process{Name: "target " + name, Spans: spans})
	}
	var buf bytes.Buffer
	if err := trace.WritePerfetto(&buf, procs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("fleet Perfetto export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("fleet Perfetto export holds no events")
	}

	samples, missing := rt.Snapshot()
	if len(missing) != 0 {
		t.Fatalf("fleet scrape missing targets: %v", missing)
	}
	var scrape bytes.Buffer
	if err := metrics.WriteText(&scrape, samples); err != nil {
		t.Fatal(err)
	}
	text := scrape.String()
	if text == "" {
		t.Fatal("fleet metrics scrape is empty")
	}
	for _, want := range []string{
		"conduit_router_requests_total",
		`conduit_serve_requests_total{`,
		`target="t0"`,
		`target="t1"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("fleet scrape missing %s:\n%s", want, text)
		}
	}
}

// TestRemoteSpansFollowTracerRetention: the spans targets send back are
// retained with the router trace they belong to, so a router tracer
// bounded to MaxTraces traces keeps remote spans for at most those traces
// however many requests it samples.
func TestRemoteSpansFollowTracerRetention(t *testing.T) {
	const maxTraces = 4
	names := resolveNames(t, []string{"aes", "jacobi-1d"})
	t0 := startTarget(t, "-name", "t0", "-mix", "aes,jacobi-1d", "-scale", "1", "-prefork", "0")
	tracer := trace.New(trace.Options{SampleEvery: 1, MaxTraces: maxTraces})
	rt := dialFleet(t, router.Options{Tracer: tracer}, t0)
	for i, ev := range equivSchedule(t, 16, names) {
		if _, _, err := rt.Do(wire.Request{Tenant: ev.Tenant, Workload: ev.Workload, Policy: ev.Policy}); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	retained := map[uint64]bool{}
	for _, tr := range tracer.Traces() {
		retained[tr.ID] = true
	}
	remote := map[uint64]bool{}
	for name, spans := range rt.RemoteSpans() {
		for _, sp := range spans {
			if !retained[sp.TraceID] {
				t.Errorf("target %s: span %q of trace %d outlived its router trace", name, sp.Name, sp.TraceID)
			}
			remote[sp.TraceID] = true
		}
	}
	if len(remote) == 0 || len(remote) > maxTraces {
		t.Errorf("remote spans cover %d traces, want 1..%d", len(remote), maxTraces)
	}
}
