package conduit

import (
	"fmt"

	"conduit/internal/faultinject"
	"conduit/internal/loadgen"
	"conduit/internal/stats"
	"conduit/internal/workloads"
)

// AvailabilityOptions configures the fault-rate x recovery-config sweep
// (Experiments.Availability). Zero values select the documented defaults.
type AvailabilityOptions struct {
	// Requests is the per-cell request count (default 200).
	Requests int
	// FaultRates is the master fault-rate axis (default {0, 0.02, 0.05,
	// 0.10}). Each rate r maps onto the seams as: shard failures and
	// slow shards at r, fork failures and poisoned forks at r/2, and
	// dispatch backend errors at r/4 — device faults dominate, matching
	// a storage-centric failure model.
	FaultRates []float64
}

// The availability sweep serves availWorkload under availPolicy on a
// 2-shard cluster.
const availWorkload, availPolicy = "aes", "Conduit"

func (o *AvailabilityOptions) defaults() {
	if o.Requests < 1 {
		o.Requests = 200
	}
	if len(o.FaultRates) == 0 {
		o.FaultRates = []float64{0, 0.02, 0.05, 0.10}
	}
}

// availabilityConfigs is the recovery ladder the sweep compares: each
// rung adds one mechanism, so adjacent rows isolate its contribution.
func availabilityConfigs() []struct {
	name string
	rec  RecoveryOptions
} {
	return []struct {
		name string
		rec  RecoveryOptions
	}{
		// HedgeThreshold 8 sits above ordinary plan skew (aes's 2-shard
		// split is naturally ~5.6x uneven) and below the ratio an injected
		// slow shard produces (the injector's 4x slowdown of the
		// straggler), so hedges fire on degradation, not on the plan.
		{"none", RecoveryOptions{MaxAttempts: 1}},
		{"retry", RecoveryOptions{MaxAttempts: 3}},
		{"retry+hedge", RecoveryOptions{MaxAttempts: 3, HedgeThreshold: 8}},
		{"retry+hedge+breaker", RecoveryOptions{
			MaxAttempts: 3, HedgeThreshold: 8,
			BreakerThreshold: 4, FallbackPolicy: "CPU",
		}},
	}
}

// Availability sweeps fault rate x recovery configuration over a sharded
// deployment and reports, per cell: the fraction of requests that
// succeeded (ok_pct), the fraction served within the simulated-time SLO
// (slo_pct, over offered requests — a failed request misses its SLO by
// definition), retry amplification (shard attempts per ideal shard
// attempt), hedge/fallback/breaker-trip counts, and mean/p99 simulated
// service time of successful requests.
//
// Unlike LatencyCurve this sweep is entirely in simulated time — the
// request loop is serial, backoff and failed-attempt costs charge
// RunResult.Elapsed, and every chaos draw derives from Seed — so the
// table is byte-identical run to run.
func (e *Experiments) Availability(opts AvailabilityOptions) (*Table, error) {
	opts.defaults()
	w, ok := workloads.Find(availWorkload, e.scale)
	if !ok {
		return nil, fmt.Errorf("conduit: unknown workload %q", availWorkload)
	}
	cl, err := e.sys.DeployCluster(w.Source, ClusterOptions{Shards: 2, Prefork: 2})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	// Fault-free baseline run: the SLO budget is 3x its elapsed time.
	base, err := cl.Run(availPolicy)
	if err != nil {
		return nil, err
	}
	budget := Time(3 * float64(base.Elapsed))

	t := stats.NewTable(
		fmt.Sprintf("Availability: %s/%s x%d shards, %d requests/cell, SLO 3x baseline",
			availWorkload, availPolicy, cl.Shards(), opts.Requests),
		"fault_rate", "config", "ok_pct", "slo_pct", "retry_amp",
		"hedges", "fallbacks", "trips", "mean_ms", "p99_ms")
	pol := lookupPolicy(availPolicy)
	cell := 0 // every (rate, config) cell draws its own substream of seed 1
	for _, rate := range opts.FaultRates {
		for _, cfg := range availabilityConfigs() {
			inj := faultinject.New(FaultsAtRate(rate, loadgen.Stream(1, uint64(cell))))
			cell++
			r := newResilient(availWorkload, cl, inj, cfg.rec)
			var okCount, attained int
			var rec Recovery
			lat := stats.NewReservoir()
			for i := 0; i < opts.Requests; i++ {
				res, reqRec, err := r.run(pol, nil)
				rec.Merge(reqRec)
				if err != nil {
					continue
				}
				okCount++
				lat.Add(res.Elapsed)
				if res.Elapsed <= budget {
					attained++
				}
			}
			var trips int64
			if r.brk != nil {
				trips = r.brk.Trips()
			}
			ideal := float64(opts.Requests * cl.Shards())
			t.AddRowf(rate, cfg.name,
				100*float64(okCount)/float64(opts.Requests),
				100*float64(attained)/float64(opts.Requests),
				float64(rec.Attempts)/ideal,
				rec.Hedges, rec.Fallbacks, trips,
				float64(lat.Mean())/1e6,
				float64(lat.P99())/1e6)
		}
	}
	return t, nil
}
