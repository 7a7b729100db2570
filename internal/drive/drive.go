// Package drive is the front end the serving binaries share: everything
// between flag.Parse and the serving stack that conduit-serve,
// conduit-target and conduit-router would otherwise each spell out. It
// declares every flag of the three exactly once (Declare), turns the
// parsed values into the options the stack takes (ServeOptions, Tracing,
// Workloads, PolicyMix, Schedule), and renders and exports what the
// binaries report in common (PoolTable over drain acknowledgements,
// BreakerTable, Render, WriteFile and its trace/metrics wrappers; the
// tenant table is serve.Report over a metrics scrape). A binary's main is
// left to parse, wire and print.
//
// To add a flag: one line in Declare under the binaries that take it, one
// field on Flags, its use in the one method that builds the option it
// feeds, and a row in README's flag table (TestFlagSurface checks it). The
// package reads no clock — binaries pass time.Now where a wall clock is
// wanted, as they do for router.Clock — so it needs no nondeterm
// allowlist entry.
package drive

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	conduit "conduit"
	"conduit/internal/faultinject"
	"conduit/internal/loadgen"
	"conduit/internal/metrics"
	"conduit/internal/router"
	"conduit/internal/stats"
	"conduit/internal/trace"
	"conduit/internal/workloads"
)

// Binary names one of the three serving binaries; it decides which flags
// Declare registers.
type Binary int

const (
	Serve  Binary = iota // conduit-serve: hosts a server and drives load at it
	Target               // conduit-target: hosts a server behind a listener
	Router               // conduit-router: drives load at a fleet of targets
)

// Flags holds the parsed value of every flag of the serving binaries.
// Which fields are live depends on the Binary they were declared for.
type Flags struct {
	// Every binary.
	Mix                           string
	TraceSample, Retries, Breaker int
	Hedge                         bool

	// Serving — the binary hosts a conduit.Server (Serve, Target).
	Scale, Shards, Concurrency, Queue, Prefork int
	Coalesce                                   bool
	Faults, HedgeThreshold                     float64
	FaultSeed                                  uint64
	Fallback, FaultLog, FaultReplay            string

	// Load — the binary generates open-loop traffic (Serve, Router).
	Policies, Arrival, Trace, Metrics string
	Tenants                           int
	Seed                              uint64
	Open                              float64
	Duration, SLO                     time.Duration

	// Serve only.
	Clients                    int
	Record, Replay, TraceJSONL string
	Speed                      float64
	List                       bool

	// Target only.
	Listen, Name string

	// Router only.
	Targets    string
	HedgeAfter time.Duration
	Cooldown   int
	Drain      bool
}

// Declare registers bin's flags on fs and returns where their values land
// after fs.Parse. Every flag name appears here once; the one default that
// differs between binaries is -open (0 keeps conduit-serve closed-loop;
// the router has no other mode).
func Declare(fs *flag.FlagSet, bin Binary) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Mix, "mix", "all", `comma-separated workload mix, or "all" for every workload available`)
	fs.IntVar(&f.TraceSample, "tracesample", 0, "trace every Nth request (0 traces all when a trace output is set; a target then records only wire-sampled requests)")
	fs.IntVar(&f.Retries, "retries", 3, "max attempts: per shard sub-run when serving with recovery active, per request across the failover order when routing")
	fs.BoolVar(&f.Hedge, "hedge", false, "hedge stragglers with a duplicate dispatch (a shard when serving, a request when routing)")
	fs.IntVar(&f.Breaker, "breaker", 0, "circuit-breaker consecutive-failure threshold, per shard when serving, per target when routing (0 disables)")
	if bin != Router {
		fs.IntVar(&f.Scale, "scale", 1, "workload scale factor")
		fs.IntVar(&f.Shards, "shards", 1, "simulated drives per workload (>1 registers sharded clusters)")
		fs.IntVar(&f.Concurrency, "concurrency", 0, "simultaneously executing requests (0 = GOMAXPROCS)")
		fs.IntVar(&f.Queue, "queue", 0, "admission-queue depth (0 = 4x concurrency)")
		fs.IntVar(&f.Prefork, "prefork", 2, "devices cloned ready per application before its first request (0: none, and no pool stats)")
		fs.BoolVar(&f.Coalesce, "coalesce", true, "share one execution among identical in-flight requests")
		fs.Float64Var(&f.Faults, "faults", 0, "master injected-fault rate, mapped onto the dispatch/pool/device seams (0 disables chaos)")
		fs.Uint64Var(&f.FaultSeed, "faultseed", 42, "chaos RNG seed (independent of the load seed)")
		fs.Float64Var(&f.HedgeThreshold, "hedgethreshold", 8, "straggler multiple (vs the fastest shard) that triggers a hedge")
		fs.StringVar(&f.Fallback, "fallback", "", "policy served while a breaker is open (empty refuses with an error)")
		fs.StringVar(&f.FaultLog, "faultlog", "", "write the injected-fault schedule as a JSONL record to `file`")
		fs.StringVar(&f.FaultReplay, "faultreplay", "", "replay the recorded fault schedule in `file` instead of drawing from -faults")
	}
	if bin != Target {
		open := 0.0
		if bin == Router {
			open = 200
		}
		fs.StringVar(&f.Policies, "policies", "Conduit", "comma-separated policy mix requests draw from")
		fs.IntVar(&f.Tenants, "tenants", 4, "tenants the requests round-robin across")
		fs.Uint64Var(&f.Seed, "seed", 1, "load-generator root RNG seed (split per client/substream)")
		fs.Float64Var(&f.Open, "open", open, "open-loop offered load in req/s (0 = closed-loop -clients mode, conduit-serve only)")
		fs.StringVar(&f.Arrival, "arrival", "poisson", "open-loop arrival process: poisson, burst, diurnal")
		fs.DurationVar(&f.Duration, "duration", 2*time.Second, "load-generation window")
		fs.DurationVar(&f.SLO, "slo", 0, "per-request deadline; queued requests past it are dropped undispatched (0 = none)")
		fs.StringVar(&f.Trace, "trace", "", "write sampled request spans as a Chrome/Perfetto trace to `file` (one process per participant)")
		fs.StringVar(&f.Metrics, "metrics", "", `write the metrics scrape (text exposition) to "file" ("-" = stdout)`)
	}
	switch bin {
	case Serve:
		fs.IntVar(&f.Clients, "clients", 32, "closed-loop client goroutines")
		fs.StringVar(&f.Record, "record", "", "write the issued request stream as a JSONL trace to `file`")
		fs.StringVar(&f.Replay, "replay", "", "re-issue the JSONL trace in `file` instead of generating load")
		fs.Float64Var(&f.Speed, "speed", 1, "replay time scale (2 = twice as fast as recorded)")
		fs.StringVar(&f.TraceJSONL, "tracejsonl", "", "write sampled request spans as JSONL to `file`")
		fs.BoolVar(&f.List, "list", false, "list workloads and policies, then exit")
	case Target:
		fs.StringVar(&f.Listen, "listen", "127.0.0.1:0", "TCP listen address (port 0 picks a free port)")
		fs.StringVar(&f.Name, "name", "target", "target name reported in Hello and Snapshot frames")
	case Router:
		fs.StringVar(&f.Targets, "targets", "", "comma-separated target addresses to dial (required)")
		fs.DurationVar(&f.HedgeAfter, "hedgeafter", 50*time.Millisecond, "straggler patience before a hedge")
		fs.IntVar(&f.Cooldown, "cooldown", 8, "requests an open breaker refuses before a half-open probe")
		fs.BoolVar(&f.Drain, "drain", true, "drain the targets when the run ends")
	}
	return f
}

// MixNames splits -mix into the names as typed; nil for "all".
func (f *Flags) MixNames() []string {
	var mix []string
	if f.Mix != "all" {
		for _, w := range strings.Split(f.Mix, ",") {
			if w = strings.TrimSpace(w); w != "" {
				mix = append(mix, w)
			}
		}
	}
	return mix
}

// Workloads resolves -mix to the display names workloads are registered
// and requested under ("all" or empty: the whole evaluation suite).
func (f *Flags) Workloads() ([]string, error) { return workloads.Resolve(f.MixNames()) }

// PolicyMix splits and validates -policies up front, so a typo fails the
// command instead of every request that draws it.
func (f *Flags) PolicyMix() ([]string, error) {
	mix := strings.Split(f.Policies, ",")
	for i, p := range mix {
		mix[i] = strings.TrimSpace(p)
		if !conduit.KnownPolicy(mix[i]) {
			return nil, fmt.Errorf("unknown policy %q", mix[i])
		}
	}
	return mix, nil
}

// Schedule expands the load flags into the deterministic open-loop
// schedule over the given workloads and policies.
func (f *Flags) Schedule(names, policies []string) ([]loadgen.Event, error) {
	return loadgen.Generate(loadgen.Spec{
		Arrival: f.Arrival, QPS: f.Open, Duration: f.Duration,
		Seed: f.Seed, Tenants: f.Tenants,
		Workloads: names, Policies: policies, SLO: f.SLO,
	})
}

// Chaos reports whether the serving flags ask for fault injection, fresh
// or replayed — the condition under which the recovery flags take effect
// and failed requests stop being fatal.
func (f *Flags) Chaos() bool { return f.Faults > 0 || f.FaultReplay != "" }

// ServeOptions builds the conduit.Server configuration the serving flags
// describe: pools and batching always, the fault schedule (replayed from
// -faultreplay, else drawn at -faults) and the recovery ladder under
// Chaos. Tracing is the caller's to add (see Tracing).
func (f *Flags) ServeOptions() (conduit.ServeOptions, error) {
	opts := conduit.ServeOptions{
		Concurrency: f.Concurrency,
		QueueDepth:  f.Queue,
		Prefork:     f.Prefork,
		Coalesce:    f.Coalesce,
	}
	if !f.Chaos() {
		return opts, nil
	}
	if f.Fallback != "" && !conduit.KnownPolicy(f.Fallback) {
		return opts, fmt.Errorf("unknown -fallback policy %q", f.Fallback)
	}
	opts.Recovery = conduit.RecoveryOptions{
		MaxAttempts:      f.Retries,
		BreakerThreshold: f.Breaker,
		FallbackPolicy:   f.Fallback,
	}
	if f.Hedge { // -hedge arms the shard hedge; a -hedgethreshold at or below 1 means 2
		opts.Recovery.HedgeThreshold = f.HedgeThreshold
		if f.HedgeThreshold <= 1 {
			opts.Recovery.HedgeThreshold = 2
		}
	}
	if f.FaultReplay != "" {
		log, err := conduit.ReadFaultLog(f.FaultReplay)
		if err != nil {
			return opts, fmt.Errorf("faultreplay: %w", err)
		}
		opts.ReplayFaults = log
	} else {
		cfg := conduit.FaultsAtRate(f.Faults, f.FaultSeed)
		opts.Faults = &cfg
	}
	return opts, nil
}

// Tracing returns the tracer configuration of a load-generating binary:
// nil unless a trace output or -tracesample asks for a recording; a trace
// output with no cadence records every request. now is the wall clock
// stamped on spans.
func (f *Flags) Tracing(now func() time.Time) *trace.Options {
	if f.Trace == "" && f.TraceJSONL == "" && f.TraceSample < 1 {
		return nil
	}
	every := f.TraceSample
	if every < 1 {
		every = 1
	}
	return &trace.Options{
		SampleEvery: every,
		Now:         func() int64 { return now().UnixNano() },
	}
}

// PoolTable renders the drained device pools — quarantine/repair cycles
// and whether the drain closed the pool included — one row per
// (participant, pool), in the order given: Router.DrainAll sorts its
// participants, and every pool list on the wire is already name-sorted.
// Nil when there is no pool.
func PoolTable(title string, drains ...router.TargetDrain) *stats.Table {
	t := stats.NewTable(title, "target", "pool",
		"preforked", "hits", "misses", "quarantined", "repairs", "idle", "closed")
	for _, d := range drains {
		for _, p := range d.Ack.Pools {
			t.AddRowf(d.Target, p.Name, p.Preforked, p.Hits, p.Misses,
				p.Quarantined, p.Repairs, p.Idle, p.Closed)
		}
	}
	if t.NumRows() == 0 {
		return nil
	}
	return t
}

// BreakerTable renders circuit-breaker states; nil when there is none.
func BreakerTable(title string, brs []faultinject.BreakerStatus) *stats.Table {
	if len(brs) == 0 {
		return nil
	}
	t := stats.NewTable(title, "breaker", "state", "trips")
	for _, b := range brs {
		t.AddRowf(b.Name, b.State.String(), b.Trips)
	}
	return t
}

// Render prints each non-nil table followed by a blank line.
func Render(w io.Writer, tables ...*stats.Table) {
	for _, t := range tables {
		if t != nil {
			t.Render(w)
			fmt.Fprintln(w)
		}
	}
}

// WriteFile creates path, hands it to write, and reports the first error
// including Close's; "-" writes to stdout.
func WriteFile(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteMetrics exports a metrics scrape as text exposition.
func WriteMetrics(path string, samples []metrics.Sample) error {
	return WriteFile(path, func(w io.Writer) error { return metrics.WriteText(w, samples) })
}

// WriteTrace exports spans as a Chrome/Perfetto trace, one process per
// participant.
func WriteTrace(path string, procs ...trace.Process) error {
	return WriteFile(path, func(w io.Writer) error { return trace.WritePerfetto(w, procs) })
}
