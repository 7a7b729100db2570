// Command conduit-serve runs the pooled, batched request-serving engine
// under generated or replayed traffic and prints per-tenant
// throughput/latency/SLO reports.
//
// Three traffic modes:
//
//   - Closed-loop (default): -clients goroutines draw (workload, policy)
//     pairs from the requested mix with deterministic per-client RNG
//     substreams (loadgen.Stream seed-splitting) and issue requests
//     back-to-back until -duration elapses. Offered load self-throttles
//     to service capacity — useful for capacity probing, blind to
//     overload.
//   - Open-loop (-open N): a deterministic -arrival schedule (poisson,
//     burst, or diurnal) at N req/s is generated up front and submitted
//     on its own clock, without waiting for completions. A full admission
//     queue sheds requests (ErrOverloaded), and requests that outlive
//     their -slo budget in the queue are dropped at dispatch without ever
//     consuming a pooled fork — the overload/tail-latency regime a
//     closed loop can never reach.
//   - Replay (-replay trace.jsonl): re-issue a recorded trace open-loop
//     with its recorded arrival spacing, time-scaled by -speed. The
//     workload mix is taken from the trace itself.
//
// Any mode combined with -record FILE captures the actually issued
// request stream (with observed arrival offsets) as a JSONL trace — a
// reproducible artifact of the run that -replay re-issues identically.
//
// With -shards N > 1 every workload registers as a multi-device cluster
// (one "workload#shard" pool row per device). With -faults RATE > 0, or a
// -faultreplay schedule, the server injects deterministic faults and
// serves through them with the recovery ladder (-retries, -hedge,
// -breaker, -fallback), ending with a fault/recovery report; -trace,
// -tracejsonl and -metrics export the flight recording and the metrics
// scrape. Every flag is declared in internal/drive and tabulated in
// README.md ("Flag reference"); -h prints the same.
//
// Usage:
//
//	conduit-serve -clients 32 -duration 2s
//	conduit-serve -open 500 -arrival poisson -slo 50ms -duration 2s
//	conduit-serve -open 800 -arrival burst -duration 2s -record burst.jsonl
//	conduit-serve -replay burst.jsonl -speed 2
//	conduit-serve -clients 32 -duration 2s -shards 4
//	conduit-serve -open 300 -duration 2s -shards 2 -faults 0.05 -hedge -breaker 4 -fallback CPU
//	conduit-serve -clients 8 -duration 2s -trace trace.json -metrics -
//	conduit-serve -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	conduit "conduit"
	"conduit/internal/drive"
	"conduit/internal/jsonl"
	"conduit/internal/loadgen"
	"conduit/internal/router"
	"conduit/internal/serve"
	"conduit/internal/sim"
	"conduit/internal/stats"
	"conduit/internal/target"
	"conduit/internal/trace"
	"conduit/internal/wire"
	"conduit/internal/workloads"
)

// die reports a startup error and exits: 2 for bad usage, 1 otherwise.
func die(code int, format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "conduit-serve: "+format+"\n", args...)
	os.Exit(code)
}

func main() {
	o := drive.Declare(flag.CommandLine, drive.Serve)
	flag.Parse()

	if o.List {
		fmt.Println("workloads:")
		for _, name := range workloads.Names() {
			fmt.Printf("  %-18s (%s)\n", workloads.Canonical(name), name)
		}
		fmt.Println("policies:  ", strings.Join(conduit.Policies(), ", "))
		fmt.Println("ablations: ", strings.Join(conduit.AblationPolicies(), ", "))
		fmt.Println("arrivals:   poisson, burst, diurnal (open-loop); closed loop via -clients")
		return
	}
	if o.Tenants < 1 {
		o.Tenants = 1
	}
	if o.Shards < 1 {
		o.Shards = 1
	}

	// Replay mode loads its schedule first: the trace, not -mix, decides
	// which workloads must be registered.
	var (
		schedule []loadgen.Event
		names    []string
		err      error
	)
	if o.Replay == "" {
		names, err = o.Workloads()
	} else {
		if schedule, err = jsonl.ReadFile[loadgen.Event](o.Replay, nil); err != nil {
			die(2, "replay: %v", err)
		}
		if len(schedule) == 0 {
			die(2, "trace %s is empty", o.Replay)
		}
		named := make([]string, len(schedule))
		for i, ev := range schedule {
			named[i] = ev.Workload
		}
		names, err = workloads.Resolve(named)
		sort.Strings(names)
	}
	if err != nil {
		die(2, "%v (try -list)", err)
	}
	// Replays trust the trace's policies; generated load validates its mix
	// before paying for a deploy.
	polMix, err := o.PolicyMix()
	if err != nil {
		die(2, "%v (try -list)", err)
	}
	opts, err := o.ServeOptions()
	if err != nil {
		die(2, "%v", err)
	}
	opts.Trace = o.Tracing(time.Now)

	srv := conduit.NewServer(conduit.DefaultConfig(), opts)
	fmt.Printf("registering %d workload(s) at scale %d across %d shard(s) each ...\n",
		len(names), o.Scale, o.Shards)
	deployStart := time.Now()
	for _, name := range names {
		if err := srv.RegisterWorkload(name, o.Scale, o.Shards); err != nil {
			die(1, "%v", err)
		}
	}
	deployed := time.Since(deployStart).Round(time.Millisecond)

	var rec *loadgen.Recorder
	submit := srv.OpenLoop(nil)
	if o.Record != "" {
		rec = loadgen.NewRecorder()
		admit := submit
		submit = func(ev loadgen.Event) (func() loadgen.Outcome, loadgen.Outcome) {
			rec.Record(ev.Tenant, ev.Workload, ev.Policy, ev.Deadline)
			return admit(ev)
		}
	}
	var tally loadgen.Tally
	switch {
	case o.Replay != "":
		fmt.Printf("deployed in %v; replaying %d-event trace at %gx speed\n", deployed, len(schedule), o.Speed)
		tally = loadgen.Drive(schedule, o.Speed, submit)
	case o.Open > 0:
		if schedule, err = o.Schedule(names, polMix); err != nil {
			die(2, "%v", err)
		}
		fmt.Printf("deployed in %v; offering %g req/s (%s arrivals, %d events) for %v (policies: %s)\n",
			deployed, o.Open, o.Arrival, len(schedule), o.Duration, strings.Join(polMix, ", "))
		tally = loadgen.Drive(schedule, 1, submit)
	default:
		fmt.Printf("deployed in %v; serving %d closed-loop clients for %v (policies: %s)\n",
			deployed, o.Clients, o.Duration, strings.Join(polMix, ", "))
		tally = serveClosedLoop(srv, o, names, polMix, rec)
	}
	srv.Drain()

	if rec != nil {
		events := rec.Events()
		if err := jsonl.WriteFile(o.Record, events); err != nil {
			die(1, "record: %v", err)
		}
		fmt.Printf("recorded %d-event trace -> %s\n", len(events), o.Record)
	}
	if o.TraceJSONL != "" || o.Trace != "" {
		spans := srv.Tracer().Spans()
		if o.TraceJSONL != "" {
			err := drive.WriteFile(o.TraceJSONL, func(w io.Writer) error { return jsonl.Write(w, spans) })
			if err != nil {
				die(1, "tracejsonl: %v", err)
			}
			fmt.Printf("wrote %d-span JSONL trace -> %s\n", len(spans), o.TraceJSONL)
		}
		if o.Trace != "" {
			if err := drive.WriteTrace(o.Trace, trace.Process{Name: "conduit-serve", Spans: spans}); err != nil {
				die(1, "trace: %v", err)
			}
			fmt.Printf("wrote %d-span Perfetto trace -> %s\n", len(spans), o.Trace)
		}
	}
	// One scrape feeds both the -metrics export and the tenant report.
	samples := srv.Metrics()
	if o.Metrics != "" {
		if err := drive.WriteMetrics(o.Metrics, samples); err != nil {
			die(1, "metrics: %v", err)
		}
	}

	fmt.Println()
	drive.Render(os.Stdout, serve.Report("conduit-serve: per-tenant service report", samples),
		drive.PoolTable("device pools (pre-forked Deployment clones)", router.TargetDrain{
			Target: "conduit-serve", Ack: wire.DrainAck{Pools: target.WirePools(srv.PoolStats())}}))

	total := srv.Total()
	if o.Chaos() {
		log := srv.FaultLog()
		drive.Render(os.Stdout, faultTable(log, total.Recovery),
			drive.BreakerTable("circuit breakers", srv.Breakers()))
		if o.FaultLog != "" {
			if err := conduit.WriteFaultLog(o.FaultLog, log); err != nil {
				die(1, "faultlog: %v", err)
			}
			fmt.Printf("recorded %d-fault schedule -> %s\n\n", len(log), o.FaultLog)
		}
	}
	sec := tally.Elapsed.Seconds()
	st := stats.NewTable("load summary", "metric", "value")
	st.AddRowf("wall_time", tally.Elapsed.Round(time.Millisecond).String())
	st.AddRowf("requests_offered", tally.Offered)
	st.AddRowf("requests_served", tally.Served)
	st.AddRowf("requests_shed", tally.Shed)
	st.AddRowf("requests_expired", tally.Expired)
	st.AddRowf("requests_failed", tally.Failed)
	st.AddRowf("throughput_req_per_s", float64(tally.Served)/sec)
	st.AddRowf("goodput_req_per_s", float64(total.Attained)/sec)
	st.AddRowf("slo_attainment_pct", fmt.Sprintf("%.1f", 100*total.Attainment()))
	st.Render(os.Stdout)
	// Under chaos, exhausted-recovery failures are the experiment working
	// as designed; only fault-free runs treat backend errors as fatal.
	if tally.Failed > 0 && !o.Chaos() {
		os.Exit(1)
	}
}

// faultTable summarizes the injected schedule by kind next to the
// recovery work it cost.
func faultTable(log []conduit.Fault, rec conduit.Recovery) *stats.Table {
	kinds := make(map[string]int)
	for _, f := range log {
		kinds[string(f.Kind)]++
	}
	kindNames := make([]string, 0, len(kinds))
	for k := range kinds {
		kindNames = append(kindNames, k)
	}
	sort.Strings(kindNames)
	t := stats.NewTable("fault injection & recovery", "metric", "value")
	t.AddRowf("faults_injected", len(log))
	for _, k := range kindNames {
		t.AddRowf("injected_"+k, kinds[k])
	}
	t.AddRowf("attempts", rec.Attempts)
	t.AddRowf("retries", rec.Retries)
	t.AddRowf("hedges", rec.Hedges)
	t.AddRowf("hedge_wins", rec.HedgeWins)
	t.AddRowf("fallbacks", rec.Fallbacks)
	t.AddRowf("backoff_sim_ms", float64(rec.BackoffSim)/1e6)
	return t
}

// serveClosedLoop runs the classic -clients loop: each client issues
// back-to-back blocking requests until the deadline. Per-client RNGs are
// loadgen.Stream substreams of the root seed — a SplitMix64-style split,
// so client streams are decorrelated and collision-free.
func serveClosedLoop(srv *conduit.Server, o *drive.Flags, names, policies []string, rec *loadgen.Recorder) loadgen.Tally {
	var offered, served, expired, failed int64
	start := time.Now()
	deadline := start.Add(o.Duration)
	var wg sync.WaitGroup
	for i := 0; i < o.Clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := sim.NewRNG(loadgen.Stream(o.Seed, uint64(id)))
			tenant := fmt.Sprintf("tenant-%02d", id%o.Tenants)
			for time.Now().Before(deadline) {
				req := conduit.Request{
					Tenant:   tenant,
					Workload: names[rng.Intn(len(names))],
					Policy:   policies[rng.Intn(len(policies))],
					Deadline: o.SLO,
				}
				atomic.AddInt64(&offered, 1)
				if rec != nil {
					rec.Record(req.Tenant, req.Workload, req.Policy, req.Deadline)
				}
				_, err := srv.Do(req)
				switch {
				case err == nil:
					atomic.AddInt64(&served, 1)
				case errors.Is(err, conduit.ErrDeadlineExceeded):
					atomic.AddInt64(&expired, 1)
				default:
					atomic.AddInt64(&failed, 1)
				}
			}
		}(i)
	}
	wg.Wait()
	return loadgen.Tally{Offered: offered, Served: served, Expired: expired, Failed: failed,
		Elapsed: time.Since(start)}
}
