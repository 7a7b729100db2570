// Command conduit-router is the front end of the conduit wire tier: it
// dials a fleet of conduit-target processes, places workloads onto them
// by consistent hashing (each workload's home target keeps its device
// pools hot), drives an open-loop generated load
// through the fleet, and merges per-target metrics scrapes into one
// fleet-wide tenant report — the conduit-serve report's columns, with
// exact per-tenant and fleet p50/p99/p999.
//
// The recovery ladder of cmd/conduit-serve is lifted across process
// boundaries: -retries walks the hash ring's failover order when a
// target errors or drains, -hedge duplicates straggling requests to the
// next target after -hedgeafter, and -breaker N opens a per-target
// circuit breaker after N consecutive failures (cooldown counted in
// refused requests, so trips replay deterministically).
//
// Usage:
//
//	conduit-target -listen 127.0.0.1:9071 &   # start a fleet first
//	conduit-target -listen 127.0.0.1:9072 &
//	conduit-router -targets 127.0.0.1:9071,127.0.0.1:9072 \
//	    -open 400 -duration 3s -retries 3 -breaker 4
//
// -trace FILE records the fleet-merged flight — the router's placement
// spans with each target's serve/cluster/device spans grafted under
// them, one Perfetto process per participant — and -metrics FILE writes
// the fleet scrape the report is rendered from: every target's scrape,
// relabelled target="<name>", alongside the router's own series. Every
// flag is declared in internal/drive and tabulated in README.md ("Flag
// reference").
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"conduit/internal/drive"
	"conduit/internal/histo"
	"conduit/internal/loadgen"
	"conduit/internal/metrics"
	"conduit/internal/router"
	"conduit/internal/serve"
	"conduit/internal/stats"
	"conduit/internal/trace"
	"conduit/internal/wire"
)

// die reports a startup error and exits: 2 for bad usage, 1 otherwise.
func die(code int, format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "conduit-router: "+format+"\n", args...)
	os.Exit(code)
}

func main() {
	o := drive.Declare(flag.CommandLine, drive.Router)
	flag.Parse()

	if o.Targets == "" {
		die(2, "-targets is required")
	}
	// Validate the policy mix before dialing: a typo fails the command,
	// not every request that draws it.
	polMix, err := o.PolicyMix()
	if err != nil {
		die(2, "%v", err)
	}
	var clients []*router.Client
	for _, addr := range strings.Split(o.Targets, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		c, err := router.Dial(addr)
		if err != nil {
			die(1, "%v", err)
		}
		clients = append(clients, c)
		fmt.Printf("target %s @ %s: %d workload(s), %d shard(s)\n",
			c.Name(), addr, len(c.Workloads()), c.Shards())
	}

	// Resolve the workload mix against what the fleet actually serves:
	// the intersection of every target's advertised suite (placement
	// assumes any target can serve any workload — the CODA-style
	// co-location contract).
	serveable := intersect(clients)
	if len(serveable) == 0 {
		die(2, "targets share no workload")
	}
	names := serveable
	if o.Mix != "all" {
		// Resolve aliases ("aes" -> "AES") the way targets register them,
		// so the mix matches the advertised suite.
		if names, err = o.Workloads(); err != nil {
			die(2, "%v", err)
		}
		for _, w := range names {
			if i := sort.SearchStrings(serveable, w); i == len(serveable) || serveable[i] != w {
				die(2, "fleet does not serve workload %q", w)
			}
		}
	}

	var tracer *trace.Tracer
	if tr := o.Tracing(time.Now); tr != nil {
		tracer = trace.New(*tr)
	}
	hedgeAfter := o.HedgeAfter // -hedge arms the routed hedge; -hedgeafter is its patience
	if !o.Hedge {
		hedgeAfter = 0
	}
	rt, err := router.New(clients, router.Options{
		Retries:          o.Retries,
		HedgeAfter:       hedgeAfter,
		BreakerThreshold: o.Breaker,
		BreakerCooldown:  o.Cooldown,
		Clock:            router.Clock{Now: time.Now, After: time.After},
		Tracer:           tracer,
	})
	if err != nil {
		die(1, "%v", err)
	}
	for _, w := range names {
		fmt.Printf("  %-22s -> %s\n", w, rt.Home(w))
	}

	schedule, err := o.Schedule(names, polMix)
	if err != nil {
		die(2, "%v", err)
	}
	fmt.Printf("offering %g req/s (%s arrivals, %d events) for %v across %d target(s)\n\n",
		o.Open, o.Arrival, len(schedule), o.Duration, len(clients))

	// Router.Do blocks for the answer, so each submission rides its own
	// goroutine and the driver waits on its outcome.
	var (
		mu     sync.Mutex
		lost   int64
		byWhom = map[string]int64{}
	)
	tally := loadgen.Drive(schedule, 1, func(ev loadgen.Event) (func() loadgen.Outcome, loadgen.Outcome) {
		done := make(chan loadgen.Outcome, 1)
		go func() {
			resp, name, err := rt.Do(wire.Request{
				Tenant: ev.Tenant, Workload: ev.Workload, Policy: ev.Policy,
				DeadlineNS: int64(ev.Deadline),
			})
			mu.Lock()
			if err != nil {
				lost++
			} else {
				byWhom[name]++
			}
			mu.Unlock()
			switch {
			case err != nil:
				done <- loadgen.Failed
			case resp.Code == wire.CodeOK:
				done <- loadgen.Served
			case resp.Code == wire.CodeOverloaded:
				done <- loadgen.Shed
			case resp.Code == wire.CodeDeadline:
				done <- loadgen.Expired
			default:
				done <- loadgen.Failed
			}
		}()
		return func() loadgen.Outcome { return <-done }, 0
	})

	// One poll feeds both the report and the -metrics export.
	samples, missing := rt.Snapshot()
	printReport(rt, samples, missing, tally, lost, byWhom)

	if o.Metrics != "" {
		if err := drive.WriteMetrics(o.Metrics, samples); err != nil {
			die(1, "metrics: %v", err)
		}
	}
	if o.Trace != "" {
		if err := drive.WriteTrace(o.Trace, fleetTrace(tracer, rt)...); err != nil {
			die(1, "trace: %v", err)
		}
		fmt.Printf("wrote fleet trace -> %s\n", o.Trace)
	}

	if o.Drain {
		// DrainAll's ordering contract (sorted targets, name-sorted pool
		// rows inside each ack) makes this final fleet pool report
		// byte-stable run to run.
		acks := rt.DrainAll()
		for _, td := range acks {
			leaked := 0
			for _, p := range td.Ack.Pools {
				if !p.Closed {
					leaked++
				}
			}
			fmt.Printf("drained %s: %d pool(s), %d unclosed\n", td.Target, len(td.Ack.Pools), leaked)
		}
		fmt.Println()
		drive.Render(os.Stdout, drive.PoolTable("device pools after drain", acks...))
	}
	rt.Close()
}

// fleetTrace merges the router's own placement spans with the spans
// every target attached to sampled responses, one Perfetto process per
// participant, keyed by target name.
func fleetTrace(tracer *trace.Tracer, rt *router.Router) []trace.Process {
	procs := []trace.Process{{Name: "router", Spans: tracer.Spans()}}
	remote := rt.RemoteSpans()
	names := make([]string, 0, len(remote))
	for name := range remote {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		spans := remote[name]
		trace.SortSpans(spans)
		procs = append(procs, trace.Process{Name: "target " + name, Spans: spans})
	}
	return procs
}

// intersect returns the sorted workloads every target advertises.
func intersect(clients []*router.Client) []string {
	count := make(map[string]int)
	for _, c := range clients {
		for _, w := range c.Workloads() {
			count[w]++
		}
	}
	var out []string
	for w, n := range count {
		if n == len(clients) {
			out = append(out, w)
		}
	}
	sort.Strings(out)
	return out
}

func printReport(rt *router.Router, samples []metrics.Sample, missing []string,
	tally loadgen.Tally, lost int64, byWhom map[string]int64) {

	s := rt.Stats()
	rtab := stats.NewTable("router recovery", "metric", "value")
	rtab.AddRowf("requests", s.Requests)
	rtab.AddRowf("attempts", s.Attempts)
	rtab.AddRowf("retries", s.Retries)
	rtab.AddRowf("hedges", s.Hedges)
	rtab.AddRowf("hedge_wins", s.HedgeWins)
	rtab.AddRowf("breaker_refusals", s.Refusals)
	rtab.AddRowf("transport_lost", lost)
	rtab.AddRowf("ok", tally.Served)
	rtab.AddRowf("overloaded", tally.Shed)
	rtab.AddRowf("deadline", tally.Expired)
	rtab.AddRowf("errors", tally.Failed-lost)
	// Answered, not offered: an open-loop rate that counted every offered
	// request would only echo -open.
	rtab.AddRowf("throughput_rps", fmt.Sprintf("%.1f", float64(tally.Served)/tally.Elapsed.Seconds()))

	names := make([]string, 0, len(byWhom))
	for name := range byWhom {
		names = append(names, name)
	}
	sort.Strings(names)
	pt := stats.NewTable("placement", "target", "responses")
	for _, name := range names {
		pt.AddRowf(name, byWhom[name])
	}

	drive.Render(os.Stdout, serve.Report("fleet report (merged per-target accounting)", samples), rtab, pt)

	lt := stats.NewTable("latency (ms)", "histogram", "count", "p50", "p99", "p999", "max")
	addLat := func(name string, h *histo.Histogram) {
		lt.AddRowf(name, h.Count(),
			fmt.Sprintf("%.3f", float64(h.P50())/1e6),
			fmt.Sprintf("%.3f", float64(h.P99())/1e6),
			fmt.Sprintf("%.3f", float64(h.P999())/1e6),
			fmt.Sprintf("%.3f", float64(h.Max())/1e6))
	}
	addLat("router end-to-end", rt.Wall())
	for _, m := range samples {
		// A target's all-tenant histogram: its one label is target="<name>".
		if m.Name == serve.LatencySeries && len(m.Labels) == 1 {
			addLat("target "+m.Labels[0].Value, m.Hist)
		}
	}
	lt.Render(os.Stdout)
	if len(missing) > 0 {
		fmt.Printf("\nWARNING: no snapshot from: %s\n", strings.Join(missing, ", "))
	}
	fmt.Println()
	drive.Render(os.Stdout, drive.BreakerTable("per-target circuit breakers", rt.Breakers()))
}
