package conduit

import (
	"errors"
	"fmt"
	"time"

	"conduit/internal/histo"
	"conduit/internal/loadgen"
	"conduit/internal/stats"
	"conduit/internal/workloads"
)

// LatencyOptions configures the open-loop throughput-latency sweep
// (Experiments.LatencyCurve). Zero values select the documented defaults.
type LatencyOptions struct {
	// Workloads is the request mix each point draws from (default: the
	// full evaluation suite). Workloads that cannot shard to a swept
	// cluster size are skipped at that size, like ClusterScaling.
	Workloads []string
	// Policies are swept one curve each (default: Conduit).
	Policies []string
	// Shards are the cluster sizes swept (default: {1}).
	Shards []int
	// Loads are the offered-load points in requests/s (default:
	// {100, 200, 400}).
	Loads []float64
	// Duration is each point's schedule span (default 300ms).
	Duration time.Duration
	// Arrival names the arrival process: poisson, burst, or diurnal
	// (default poisson).
	Arrival string
	// SLO is the per-request deadline; requests served within it count
	// as goodput (default 50ms; negative disables deadlines).
	SLO time.Duration
	// Prefork is the server's per-application pool depth (default 2).
	Prefork int
}

func (o *LatencyOptions) defaults() {
	if len(o.Policies) == 0 {
		o.Policies = []string{"Conduit"}
	}
	if len(o.Shards) == 0 {
		o.Shards = []int{1}
	}
	if len(o.Loads) == 0 {
		o.Loads = []float64{100, 200, 400}
	}
	if o.Duration <= 0 {
		o.Duration = 300 * time.Millisecond
	}
	if o.Arrival == "" {
		o.Arrival = "poisson"
	}
	switch {
	case o.SLO == 0:
		o.SLO = 50 * time.Millisecond
	case o.SLO < 0:
		o.SLO = 0
	}
	if o.Prefork == 0 {
		o.Prefork = 2
	}
}

// LatencyCurve drives the serving stack open-loop across a grid of
// offered loads and reports the throughput-latency curve per policy and
// cluster size: offered vs achieved requests/s, goodput (responses
// within the SLO per second), shed/expired counts, and p50/p99/p999
// wall-clock latency from the bounded histogram. Unlike every other
// experiment this one measures the *serving* layer under real
// wall-clock arrivals — the schedule is deterministic (seed-split per
// point), the measured latencies are operational.
//
// Each swept cluster size deploys one server (every workload compiled
// and NVMe-deployed once, then pool-forked per request); each (policy,
// load) point drives a fresh deterministic schedule against it through
// the shared open-loop driver (loadgen.Drive) and accounts the executed
// responses' service latency client-side. Achieved throughput counts
// successfully executed responses only — expired drops recycle the queue
// in microseconds, so counting them would make "achieved" track offered
// load instead of saturating at service capacity.
func (e *Experiments) LatencyCurve(opts LatencyOptions) (*Table, error) {
	opts.defaults()
	for _, p := range opts.Policies {
		if !KnownPolicy(p) {
			return nil, errUnknownPolicy(p)
		}
	}
	names, err := workloads.Resolve(opts.Workloads)
	if err != nil {
		return nil, fmt.Errorf("conduit: %w", err)
	}
	t := stats.NewTable(
		fmt.Sprintf("Latency: open-loop %s arrivals, SLO %v, %v per point", opts.Arrival, opts.SLO, opts.Duration),
		"policy", "shards", "offered_qps", "achieved_qps", "goodput_qps",
		"shed", "expired", "p50_ms", "p99_ms", "p999_ms")
	point := 0
	for _, shards := range opts.Shards {
		// Four workers behind the default 4x admission queue.
		srv := NewServer(e.sys.cfg, ServeOptions{Concurrency: 4, Prefork: opts.Prefork})
		var mix []string
		for _, name := range names {
			err := srv.RegisterWorkload(name, e.scale, shards)
			if errors.Is(err, ErrTooManyShards) {
				continue // too small to shard this wide: skipped at this size
			}
			if err != nil {
				srv.Drain()
				return nil, err
			}
			mix = append(mix, name)
		}
		if len(mix) == 0 {
			srv.Drain()
			continue // every workload is too small for this cluster size
		}
		for _, policy := range opts.Policies {
			for _, load := range opts.Loads {
				schedule, err := loadgen.Generate(loadgen.Spec{
					Arrival:   opts.Arrival,
					QPS:       load,
					Duration:  opts.Duration,
					Seed:      loadgen.Stream(1, uint64(point)),
					Tenants:   4,
					Workloads: mix,
					Policies:  []string{policy},
					SLO:       opts.SLO,
				})
				point++
				if err != nil {
					srv.Drain()
					return nil, err
				}
				// The curve reports service latency: only executed
				// responses enter the histogram (an expired drop's
				// "latency" is just its queue wait).
				wall := histo.New()
				var attained int64
				pt := loadgen.Drive(schedule, 1, srv.OpenLoop(func(resp *Response) {
					if resp.Err != nil {
						return
					}
					wall.Add(resp.Latency.Nanoseconds())
					if resp.Request.Deadline == 0 || resp.Latency <= resp.Request.Deadline {
						attained++
					}
				}))
				sec := pt.Elapsed.Seconds()
				t.AddRowf(policy, shards, load,
					float64(pt.Served)/sec,
					float64(attained)/sec,
					pt.Shed, pt.Expired,
					float64(wall.P50())/1e6,
					float64(wall.P99())/1e6,
					float64(wall.P999())/1e6)
			}
		}
		srv.Drain()
	}
	return t, nil
}
