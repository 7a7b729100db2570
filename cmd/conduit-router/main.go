// Command conduit-router is the front end of the conduit wire tier: it
// dials a fleet of conduit-target processes, places workloads onto them
// by consistent hashing (each workload's home target keeps its device
// pools and memoized results hot), drives an open-loop generated load
// through the fleet, and merges per-target accounting into one
// fleet-wide report with exact p50/p99/p999.
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
// -trace FILE records the fleet-merged flight: the router's placement
// spans (attempts, retries, hedges, breaker refusals) with each
// target's serve/cluster/device spans — shipped home at the tail of
// the Response frame — grafted under them, one Perfetto process per
// participant, all on the deterministic simulated timeline.
// -tracesample N samples every Nth routed request fleet-wide (targets
// record whatever the wire marks sampled). -metrics FILE ("-" for
// stdout) scrapes every target's metrics over the wire, relabels each
// sample with target="<name>", and folds them into one fleet scrape
// alongside the router's own series.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"conduit/internal/histo"
	"conduit/internal/loadgen"
	"conduit/internal/metrics"
	"conduit/internal/router"
	"conduit/internal/stats"
	"conduit/internal/trace"
	"conduit/internal/wire"
	"conduit/internal/workloads"
)

func main() {
	targets := flag.String("targets", "", "comma-separated target addresses to dial (required)")
	mix := flag.String("mix", "all", `comma-separated workload mix, or "all" for every workload the fleet serves`)
	policies := flag.String("policies", "Conduit", "comma-separated policy mix requests draw from")
	tenants := flag.Int("tenants", 4, "tenants the requests round-robin across")
	seed := flag.Uint64("seed", 1, "load-generator root RNG seed")
	open := flag.Float64("open", 200, "open-loop offered load in req/s")
	arrival := flag.String("arrival", "poisson", "arrival process: poisson, burst, diurnal")
	duration := flag.Duration("duration", 2*time.Second, "load-generation window")
	slo := flag.Duration("slo", 0, "per-request deadline (0 = none)")
	retries := flag.Int("retries", 3, "max attempts per request across the failover order")
	hedge := flag.Bool("hedge", false, "hedge straggling requests on the next target")
	hedgeafter := flag.Duration("hedgeafter", 50*time.Millisecond, "straggler patience before a hedge")
	breaker := flag.Int("breaker", 0, "per-target breaker consecutive-failure threshold (0 disables)")
	cooldown := flag.Int("cooldown", 8, "requests an open breaker refuses before a half-open probe")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per target on the hash ring (0 = default)")
	drain := flag.Bool("drain", true, "drain the targets when the run ends")
	traceOut := flag.String("trace", "", "write the fleet-merged Chrome/Perfetto trace to `file` (one process per target)")
	tracesample := flag.Int("tracesample", 0, "trace every Nth routed request (0 with -trace set traces all)")
	metricsOut := flag.String("metrics", "", `write the fleet-merged metrics scrape (text exposition) to "file" ("-" = stdout)`)
	flag.Parse()

	if *targets == "" {
		fmt.Fprintln(os.Stderr, "conduit-router: -targets is required")
		os.Exit(2)
	}
	var clients []*router.Client
	for _, addr := range strings.Split(*targets, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		c, err := router.Dial(addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "conduit-router: %v\n", err)
			os.Exit(1)
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
		fmt.Fprintln(os.Stderr, "conduit-router: targets share no workload")
		os.Exit(2)
	}
	var names []string
	if *mix == "all" {
		names = serveable
	} else {
		set := make(map[string]bool, len(serveable))
		for _, w := range serveable {
			set[w] = true
		}
		for _, w := range strings.Split(*mix, ",") {
			w = strings.TrimSpace(w)
			// Canonicalize aliases ("aes" -> "AES") the way targets
			// register them, so the mix matches the advertised suite.
			if reg, ok := workloads.Find(w, 1); ok {
				w = reg.Name
			}
			if !set[w] {
				fmt.Fprintf(os.Stderr, "conduit-router: fleet does not serve workload %q\n", w)
				os.Exit(2)
			}
			names = append(names, w)
		}
	}

	var tracer *trace.Tracer
	if *traceOut != "" || *tracesample > 0 {
		every := *tracesample
		if every < 1 {
			every = 1 // -trace alone records every routed request
		}
		tracer = trace.New(trace.Options{
			SampleEvery: every,
			Now:         func() int64 { return time.Now().UnixNano() },
		})
	}
	rt, err := router.New(clients, router.Options{
		Retries:          *retries,
		Hedge:            *hedge,
		HedgeAfter:       *hedgeafter,
		BreakerThreshold: *breaker,
		BreakerCooldown:  *cooldown,
		Vnodes:           *vnodes,
		Clock:            router.Clock{Now: time.Now, After: time.After},
		Tracer:           tracer,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "conduit-router: %v\n", err)
		os.Exit(1)
	}
	for _, w := range names {
		fmt.Printf("  %-22s -> %s\n", w, rt.Home(w))
	}

	schedule, err := loadgen.Generate(loadgen.Spec{
		Arrival: *arrival, QPS: *open, Duration: *duration,
		Seed: *seed, Tenants: *tenants,
		Workloads: names, Policies: strings.Split(*policies, ","), SLO: *slo,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "conduit-router: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("offering %g req/s (%s arrivals, %d events) for %v across %d target(s)\n\n",
		*open, *arrival, len(schedule), *duration, len(clients))

	var (
		mu     sync.Mutex
		wg     sync.WaitGroup
		tally  = map[wire.Code]int64{}
		lost   int64
		byWhom = map[string]int64{}
	)
	start := time.Now()
	loadgen.Replay(schedule, 1, func(ev loadgen.Event) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, name, err := rt.Do(wire.Request{
				Tenant: ev.Tenant, Workload: ev.Workload, Policy: ev.Policy,
				DeadlineNS: int64(ev.Deadline),
			})
			mu.Lock()
			if err != nil {
				lost++
			} else {
				tally[resp.Code]++
				byWhom[name]++
			}
			mu.Unlock()
		}()
	})
	wg.Wait()
	elapsed := time.Since(start)

	fleet, missing := rt.Snapshot()
	printReport(rt, fleet, missing, tally, lost, byWhom, len(schedule), elapsed)

	if *metricsOut != "" {
		if err := writeFleetMetrics(*metricsOut, rt); err != nil {
			fmt.Fprintf(os.Stderr, "conduit-router: metrics: %v\n", err)
			os.Exit(1)
		}
	}
	if *traceOut != "" {
		if err := writeFleetTrace(*traceOut, tracer, rt); err != nil {
			fmt.Fprintf(os.Stderr, "conduit-router: trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote fleet trace -> %s\n", *traceOut)
	}

	if *drain {
		// DrainAll's ordering contract (sorted targets, name-sorted pool
		// rows inside each ack) makes this final fleet pool report
		// byte-stable run to run.
		for _, td := range rt.DrainAll() {
			leaked := int64(0)
			for _, p := range td.Ack.Pools {
				if !p.Closed {
					leaked++
				}
			}
			fmt.Printf("drained %s: %d pool(s), %d unclosed\n", td.Target, len(td.Ack.Pools), leaked)
			for _, p := range td.Ack.Pools {
				fmt.Printf("  pool %-24s preforked=%d hits=%d misses=%d quarantined=%d repairs=%d idle=%d closed=%v\n",
					p.Name, p.Preforked, p.Hits, p.Misses, p.Quarantined, p.Repairs, p.Idle, p.Closed)
			}
		}
	}
	rt.Close()
}

// writeFleetMetrics renders the fleet-merged metrics scrape as text
// exposition ("-" writes to stdout).
func writeFleetMetrics(path string, rt *router.Router) error {
	samples, missing := rt.FleetMetrics()
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := metrics.WriteText(out, samples); err != nil {
		return err
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "conduit-router: no metrics from: %s\n", strings.Join(missing, ", "))
	}
	return nil
}

// writeFleetTrace merges the router's own placement spans with the
// spans every target attached to sampled responses, one Perfetto
// process per participant, keyed by target name.
func writeFleetTrace(path string, tracer *trace.Tracer, rt *router.Router) error {
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
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WritePerfetto(f, procs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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

func printReport(rt *router.Router, fleet router.Fleet, missing []string,
	tally map[wire.Code]int64, lost int64, byWhom map[string]int64, offered int, elapsed time.Duration) {

	ft := stats.NewTable("fleet report (merged per-target accounting)",
		"tenant", "requests", "errors", "shed", "expired", "shared",
		"retries", "hedges", "fallback", "sim_ms", "energy_J")
	for _, row := range fleet.Tenants {
		ft.AddRowf(row.Tenant, row.Requests, row.Errors, row.Shed, row.Expired, row.Shared,
			row.Recovery.Retries, row.Recovery.Hedges, row.Recovery.Fallbacks,
			fmt.Sprintf("%.3f", float64(row.SimNS)/1e6),
			fmt.Sprintf("%.3f", row.EnergyJ))
	}
	ft.Render(os.Stdout)
	fmt.Println()

	s := rt.Stats()
	rtab := stats.NewTable("router recovery", "metric", "value")
	rtab.AddRowf("requests", s.Requests)
	rtab.AddRowf("attempts", s.Attempts)
	rtab.AddRowf("retries", s.Retries)
	rtab.AddRowf("hedges", s.Hedges)
	rtab.AddRowf("hedge_wins", s.HedgeWins)
	rtab.AddRowf("breaker_refusals", s.Refusals)
	rtab.AddRowf("transport_lost", lost)
	rtab.AddRowf("ok", tally[wire.CodeOK])
	rtab.AddRowf("overloaded", tally[wire.CodeOverloaded])
	rtab.AddRowf("deadline", tally[wire.CodeDeadline])
	rtab.AddRowf("errors", tally[wire.CodeError]+tally[wire.CodeDraining]+tally[wire.CodeCircuitOpen]+tally[wire.CodeBadRequest])
	rtab.AddRowf("throughput_rps", fmt.Sprintf("%.1f", float64(offered)/elapsed.Seconds()))
	rtab.Render(os.Stdout)
	fmt.Println()

	names := make([]string, 0, len(byWhom))
	for name := range byWhom {
		names = append(names, name)
	}
	sort.Strings(names)
	pt := stats.NewTable("placement", "target", "responses")
	for _, name := range names {
		pt.AddRowf(name, byWhom[name])
	}
	pt.Render(os.Stdout)
	fmt.Println()

	// Device-pool health across the fleet, quarantine/repair cycles
	// included: rows sorted by target name, then by the targets' own
	// name-sorted pool rows.
	snaps := append([]wire.Snapshot(nil), fleet.Targets...)
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Target < snaps[j].Target })
	dt := stats.NewTable("device pools", "target", "pool",
		"preforked", "hits", "misses", "quarantined", "repairs", "idle")
	pools := 0
	for _, snap := range snaps {
		for _, p := range snap.Pools {
			pools++
			dt.AddRowf(snap.Target, p.Name, p.Preforked, p.Hits, p.Misses,
				p.Quarantined, p.Repairs, p.Idle)
		}
	}
	if pools > 0 {
		dt.Render(os.Stdout)
		fmt.Println()
	}

	lt := stats.NewTable("latency (ms)", "histogram", "count", "p50", "p99", "p999", "max")
	addLat := func(name string, h *histo.Histogram) {
		lt.AddRowf(name, h.Count(),
			fmt.Sprintf("%.3f", float64(h.P50())/1e6),
			fmt.Sprintf("%.3f", float64(h.P99())/1e6),
			fmt.Sprintf("%.3f", float64(h.P999())/1e6),
			fmt.Sprintf("%.3f", float64(h.Max())/1e6))
	}
	addLat("router end-to-end", rt.Wall())
	addLat("fleet (merged targets)", fleet.Wall)
	for _, snap := range fleet.Targets {
		if snap.Wall != nil {
			addLat("target "+snap.Target, snap.Wall)
		}
	}
	lt.Render(os.Stdout)
	if len(missing) > 0 {
		fmt.Printf("\nWARNING: no snapshot from: %s\n", strings.Join(missing, ", "))
	}
	fmt.Println()

	if brs := rt.Breakers(); len(brs) > 0 {
		bt := stats.NewTable("per-target circuit breakers", "target", "state", "trips")
		for _, b := range brs {
			bt.AddRowf(b.Name, b.State.String(), b.Trips)
		}
		bt.Render(os.Stdout)
		fmt.Println()
	}
}
