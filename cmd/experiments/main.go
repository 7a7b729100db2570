// Command experiments regenerates the paper's tables and figures from the
// simulator. Each experiment prints the same rows/series the paper
// reports; docs/REPRO.md "Figure / table index" maps each to its command.
//
// Usage:
//
//	experiments [-scale N] [-workers N] [-fig10window N] [fig4|fig5|fig7a|fig7b|fig8|fig9|fig10|grid|table3|overhead|ablation|ablation-width|ablation-channels|scaling|latency|availability|all]
//
// Shared workload x policy sweeps execute concurrently across -workers
// goroutines, deploying each workload once and restoring the post-deploy
// snapshot per policy; tables are identical to a serial sweep.
//
// The scaling experiment shards every workload across multi-device
// Conduit clusters, sweeping shard counts up to -shards (powers of two
// plus -shards itself) and reporting scale-out speedup against the
// 1-shard cluster; combine with -csv for the scaling curve as data.
//
// The latency experiment drives the serving stack open-loop: for each
// policy in -lpolicies, each cluster size up to -shards, and each
// offered load in -loads, it replays a deterministic -arrival schedule
// against a pooled server for -loaddur and reports achieved throughput,
// goodput under the -slo deadline, shed/expired counts, and
// p50/p99/p999 wall-clock latency; combine with -csv for the
// throughput-latency curve as data.
//
// The availability experiment injects deterministic seeded faults at the
// dispatch, pool, and device seams of a sharded deployment and sweeps
// fault rate (-faultrates) against a ladder of recovery configurations
// (none, retry, retry+hedge, retry+hedge+breaker), reporting request
// success rate, SLO attainment in simulated time, and retry
// amplification per cell (-availreq requests each); combine with -csv
// for the sweep as data (testdata/availability.csv is its golden). Unlike
// the latency experiment it runs entirely in simulated time, so its
// table is byte-identical run to run.
//
// -cpuprofile/-memprofile write pprof profiles of whatever experiments
// the invocation runs. Performance is measured by cmd/conduit-bench
// (bash cmd/conduit-bench/run.sh), not by this command.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	conduit "conduit"
)

// options is the experiments flag surface.
type options struct {
	scale, window, workers, shards, availreq int
	csv                                      bool
	loads, lpolicies, arrival, faultrates    string
	slo, loaddur                             time.Duration
	cpuprofile, memprofile                   string
}

func declare(fs *flag.FlagSet) *options {
	o := &options{}
	fs.IntVar(&o.scale, "scale", 2, "workload scale factor (1 = smoke test)")
	fs.IntVar(&o.window, "fig10window", 12000, "instruction window for Fig 10")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of aligned tables")
	fs.IntVar(&o.workers, "workers", 0, "concurrent sweep runs (0 = GOMAXPROCS)")
	fs.IntVar(&o.shards, "shards", 4, "maximum cluster size for the scaling and latency experiments")
	fs.StringVar(&o.loads, "loads", "100,200,400", "offered-load points (req/s) for the latency experiment")
	fs.StringVar(&o.lpolicies, "lpolicies", "Conduit", "policies the latency experiment sweeps")
	fs.StringVar(&o.arrival, "arrival", "poisson", "latency-experiment arrival process: poisson, burst, diurnal")
	fs.DurationVar(&o.slo, "slo", 50*time.Millisecond, "latency-experiment per-request deadline (0 disables)")
	fs.DurationVar(&o.loaddur, "loaddur", 300*time.Millisecond, "latency-experiment schedule span per point")
	fs.StringVar(&o.faultrates, "faultrates", "0,0.02,0.05,0.1", "master fault rates the availability experiment sweeps")
	fs.IntVar(&o.availreq, "availreq", 200, "requests per availability cell")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to `file`")
	fs.StringVar(&o.memprofile, "memprofile", "", "write an allocation profile to `file` on exit")
	return o
}

func main() {
	o := declare(flag.CommandLine)
	flag.Parse()
	// All work happens in run so its defers — in particular stopping the
	// CPU profile and writing the heap profile — execute before os.Exit.
	which := "all"
	if flag.NArg() > 0 {
		which = flag.Arg(0)
	}
	os.Exit(run(o, which, os.Stdout))
}

// floats parses a comma-separated flag value; an entry that does not
// parse, is negative, or is zero where only positive values make sense
// fails the experiment with a useful error instead of a silent zero.
func floats(flagName, list string, positive bool) ([]float64, error) {
	var out []float64
	for _, s := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || v < 0 || (positive && v == 0) {
			return nil, fmt.Errorf("bad -%s entry %q", flagName, s)
		}
		out = append(out, v)
	}
	return out, nil
}

func (o *options) latency() (conduit.LatencyOptions, error) {
	loads, err := floats("loads", o.loads, true)
	if err != nil {
		return conduit.LatencyOptions{}, err
	}
	slo := o.slo
	if slo == 0 {
		slo = -1 // LatencyOptions: negative disables deadlines
	}
	policies := strings.Split(o.lpolicies, ",")
	for i := range policies {
		policies[i] = strings.TrimSpace(policies[i])
	}
	return conduit.LatencyOptions{
		Policies: policies,
		Shards:   conduit.ShardCounts(o.shards),
		Loads:    loads,
		Duration: o.loaddur,
		Arrival:  o.arrival,
		SLO:      slo,
	}, nil
}

func (o *options) availability() (conduit.AvailabilityOptions, error) {
	rates, err := floats("faultrates", o.faultrates, false)
	return conduit.AvailabilityOptions{FaultRates: rates, Requests: o.availreq}, err
}

// exp is one experiment run accepts by name.
type exp struct {
	name string
	run  func() (*conduit.Table, error)
}

// experiments lists every experiment run accepts, in the order "all"
// prints them.
func experiments(e *conduit.Experiments, o *options) []exp {
	return []exp{
		{"grid", e.GridTable},
		{"table3", e.Table3},
		{"fig4", e.Fig4},
		{"fig5", e.Fig5},
		{"fig7a", e.Fig7a},
		{"fig7b", e.Fig7b},
		{"fig8", e.Fig8},
		{"fig9", e.Fig9},
		{"fig10", func() (*conduit.Table, error) { return e.Fig10(o.window) }},
		{"overhead", e.Overhead},
		{"ablation", e.AblationCostFeatures},
		{"ablation-width", e.AblationVectorWidth},
		{"ablation-channels", e.AblationChannels},
		{"scaling", func() (*conduit.Table, error) {
			return e.ClusterScaling(conduit.ShardCounts(o.shards))
		}},
		{"latency", func() (*conduit.Table, error) {
			opts, err := o.latency()
			if err != nil {
				return nil, err
			}
			return e.LatencyCurve(opts)
		}},
		{"availability", func() (*conduit.Table, error) {
			opts, err := o.availability()
			if err != nil {
				return nil, err
			}
			return e.Availability(opts)
		}},
	}
}

// run prints experiment which ("all" for every paper table) to out and
// returns the exit code.
func run(o *options, which string, out io.Writer) int {
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if o.memprofile == "" {
			return
		}
		f, err := os.Create(o.memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: memprofile: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: memprofile: %v\n", err)
		}
	}()

	e := conduit.NewExperiments(conduit.DefaultConfig(), o.scale)
	e.SetWorkers(o.workers)
	ran := false
	for _, x := range experiments(e, o) {
		// "all" skips the latency sweep (it measures wall-clock serving
		// behavior, so including it would break "all"'s byte-identical
		// output contract) and the availability sweep (deterministic, but
		// a robustness artifact, not a paper figure). Request them by
		// name.
		if which != x.name && (which != "all" || x.name == "latency" || x.name == "availability") {
			continue
		}
		ran = true
		t, err := x.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", x.name, err)
			return 1
		}
		if o.csv {
			t.CSV(out)
		} else {
			t.Render(out)
		}
		fmt.Fprintln(out)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", which)
		return 2
	}
	return 0
}
