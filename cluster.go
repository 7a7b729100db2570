package conduit

import (
	"fmt"
	"sync"

	"conduit/internal/cluster"
	"conduit/internal/energy"
	"conduit/internal/stats"
	"conduit/internal/workloads"
)

// ErrTooManyShards reports a cluster plan that asks for more shards than
// the workload has vector blocks; shard-scaling sweeps match it with
// errors.Is to stop scaling a workload out instead of failing.
var ErrTooManyShards = cluster.ErrTooManyShards

// ClusterOptions tunes a sharded multi-device deployment.
type ClusterOptions struct {
	// Shards is the number of independent simulated Conduit SSDs the
	// workload's arrays are row-block sharded across. < 1 selects 1 (a
	// single-device cluster, byte-identical to a plain Deployment).
	Shards int
	// Prefork is the per-shard device-pool depth (see Deployment.Prefork);
	// < 1 turns off only the eager clones, the shards' PoolStats rows and
	// ErrPoolClosed after Close, not device reuse.
	Prefork int
}

// ClusterPlan is the public description of how a cluster sharded its
// workload.
type ClusterPlan struct {
	Shards      int
	Blocks      int // vector blocks in the partitioned lane space
	PageLanes   int // lanes per vector block
	Partitioned []string
	Broadcast   []string
	// ReducePages counts the partial-result pages of reduce-shaped
	// kernels, summed across shards; nonzero means every N-shard run
	// pays a modeled host-side gather+combine step on top of the
	// parallel phase.
	ReducePages int
}

// A Cluster is a workload sharded across N independent simulated Conduit
// SSDs: each shard holds a row block of the partitionable arrays (plus a
// replica of every broadcast array) and carries its own compiled binary,
// NVMe-deployed exactly once per shard through the Deployment machinery.
// Run scatters a request into per-shard sub-runs on pooled clones and
// gathers the partial results through a deterministic merge, so a Cluster
// serves the same API as a Deployment at N-device capacity.
//
// The determinism contract extends Deployment's: a 1-shard Cluster run is
// byte-identical to Deployment.Run on the same workload, and an N-shard
// concurrent run is byte-identical to executing the shards one by one
// (RunSerial). Cluster is safe for concurrent use by multiple goroutines.
type Cluster struct {
	sys         *System
	plan        *cluster.Plan
	deps        []*Deployment
	reducePages int
}

// DeployCluster shards src across opts.Shards simulated drives: it plans
// the row-block partition from the workload's shardability metadata
// (internal/workloads, matched by source name; an unknown workload
// partitions every array), compiles each shard's source, deploys every
// shard binary over the NVMe path exactly once, and (when opts.Prefork is
// set) attaches a pre-fork pool per shard. With Shards <= 1 the single
// shard's source is the original, untouched — the resulting cluster is a
// plain Deployment behind the Cluster API.
func (s *System) DeployCluster(src *Source, opts ClusterOptions) (*Cluster, error) {
	shards := opts.Shards
	if shards < 1 {
		shards = 1
	}
	plan, err := cluster.PlanShards(src, s.cfg.SSD.PageSize, shards, workloads.Partition(src.Name))
	if err != nil {
		return nil, err
	}
	cl := &Cluster{sys: s, plan: plan}
	for i := 0; i < shards; i++ {
		shardSrc, err := plan.Shard(src, i)
		if err != nil {
			cl.Close()
			return nil, err
		}
		c, err := Compile(shardSrc, &s.cfg)
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("conduit: compile shard %d/%d: %w", i, shards, err)
		}
		dep, err := s.Deploy(c)
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("conduit: deploy shard %d/%d: %w", i, shards, err)
		}
		if opts.Prefork > 0 {
			dep.Prefork(opts.Prefork)
		}
		cl.deps = append(cl.deps, dep)
		// Summed across shards: each shard emits partial pages only for
		// the reduce destinations it actually executed, so the total is
		// exactly what the host must gather (uneven plans included).
		cl.reducePages += cluster.ReducePages(c.Prog)
	}
	return cl, nil
}

// Shards reports the number of devices in the cluster.
func (cl *Cluster) Shards() int { return len(cl.deps) }

// Plan describes the partition the cluster deployed.
func (cl *Cluster) Plan() ClusterPlan {
	return ClusterPlan{
		Shards:      cl.plan.Shards,
		Blocks:      cl.plan.Blocks,
		PageLanes:   cl.plan.PageLanes,
		Partitioned: append([]string(nil), cl.plan.Partitioned...),
		Broadcast:   append([]string(nil), cl.plan.Broadcast...),
		ReducePages: cl.reducePages,
	}
}

// guardShardRun executes one shard's sub-run with panic containment:
// a panicking shard surfaces as a `shard %d panicked` error on that
// shard — matching the serve engine's backend containment contract —
// instead of killing the process. Containment matters doubly for the
// concurrent scatter path, where the panic fires on a scatter goroutine
// that no caller-side recover could ever reach.
func guardShardRun(i int, run func() (*RunResult, error)) (r *RunResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			r, err = nil, fmt.Errorf("shard %d panicked: %v", i, p)
		}
	}()
	return run()
}

// runShards scatters run across the shards concurrently — one goroutine
// per shard, each with panic containment — and gathers the partial
// results through the deterministic merge. The returned error is the
// first failing shard's, in shard order. It is the shared scatter-gather
// engine behind Run and the fault-tolerant dispatch path.
func (cl *Cluster) runShards(run func(i int, dep *Deployment) (*RunResult, error)) (*RunResult, error) {
	parts := make([]*RunResult, len(cl.deps))
	errs := make([]error, len(cl.deps))
	var wg sync.WaitGroup
	for i, dep := range cl.deps {
		wg.Add(1)
		go func(i int, dep *Deployment) {
			defer wg.Done()
			parts[i], errs[i] = guardShardRun(i, func() (*RunResult, error) {
				return run(i, dep)
			})
		}(i, dep)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("conduit: shard %d/%d: %w", i, len(cl.deps), err)
		}
	}
	return cl.merge(parts), nil
}

// Run executes the deployed program under the named policy on every shard
// concurrently — each sub-run on its own pooled fork — and gathers the
// partial results through the deterministic merge. The returned error is
// the first failing shard's, in shard order; a panicking shard run is
// contained into such an error rather than crashing the process. Safe
// for concurrent use.
func (cl *Cluster) Run(policy string) (*RunResult, error) {
	p := lookupPolicy(policy)
	if p.run == unknownPolicy {
		return nil, errUnknownPolicy(policy)
	}
	return cl.runShards(func(i int, dep *Deployment) (*RunResult, error) {
		return dep.runParked(p)
	})
}

// RunSerial executes the shards one by one in shard order and merges
// identically to Run. It exists as the executable half of the determinism
// proof: concurrent scatter-gather must be byte-identical to this serial
// loop (enforced by tests), which is what licenses running shards in
// parallel at all. Panic containment matches Run's.
func (cl *Cluster) RunSerial(policy string) (*RunResult, error) {
	p := lookupPolicy(policy)
	if p.run == unknownPolicy {
		return nil, errUnknownPolicy(policy)
	}
	parts := make([]*RunResult, len(cl.deps))
	for i, dep := range cl.deps {
		r, err := guardShardRun(i, func() (*RunResult, error) { return dep.runParked(p) })
		if err != nil {
			return nil, fmt.Errorf("conduit: shard %d/%d: %w", i, len(cl.deps), err)
		}
		parts[i] = r
	}
	return cl.merge(parts), nil
}

// merge gathers per-shard partial results into one RunResult, processing
// shards strictly in index order so every float sum, sample sequence, and
// counter ordering is a deterministic function of the parts alone:
//
//   - Elapsed and OverheadTime take the max over shards — the shards run
//     in parallel on independent devices, so the slowest one bounds the
//     phase (plus the modeled host-side reduction step, below).
//   - Compute and movement energy sum in shard order (energy.MergeShards).
//   - Latency reservoirs union (stats.MergeReservoirs) and decision
//     traces concatenate, both in shard order.
//   - Substrate counters sum (stats.Counters.Merge) in shard order.
//   - Reduce-shaped kernels pay a host-side reduction: each shard's
//     partial reduce pages travel over PCIe and combine in host memory
//     (internal/cluster.ReduceModel), charged once on the merged elapsed
//     time and energy. 1-shard clusters skip it, keeping the 1-shard
//     merge an exact identity.
//
// The merged result carries no Device: there is no single drive to
// expose, and each part's device was parked by its shard's deployment.
// A served request's parts may be shared (runShared), so merge only reads
// them.
func (cl *Cluster) merge(parts []*RunResult) *RunResult {
	merged := &RunResult{Policy: parts[0].Policy}
	compute := make([]float64, len(parts))
	movement := make([]float64, len(parts))
	reservoirs := make([]*Reservoir, len(parts))
	for i, r := range parts {
		if r.Elapsed > merged.Elapsed {
			merged.Elapsed = r.Elapsed
		}
		if r.OverheadTime > merged.OverheadTime {
			merged.OverheadTime = r.OverheadTime
		}
		compute[i], movement[i] = r.ComputeEnergy, r.MovementEnergy
		reservoirs[i] = r.InstLatencies
		merged.Decisions = append(merged.Decisions, r.Decisions...)
		if r.Counters != nil {
			if merged.Counters == nil {
				merged.Counters = stats.NewCounters()
			}
			merged.Counters.Merge(r.Counters)
		}
	}
	merged.InstLatencies = stats.MergeReservoirs(reservoirs...)
	merged.ComputeEnergy, merged.MovementEnergy = energy.MergeShards(compute, movement)
	if red := cluster.ReduceModel(&cl.sys.cfg, len(parts), cl.reducePages); red.Time > 0 {
		merged.Elapsed += red.Time
		merged.ComputeEnergy += red.ComputeJ
		merged.MovementEnergy += red.MovementJ
	}
	return merged
}

// settle implements the serving layer's application interface.
func (cl *Cluster) settle() {
	for _, dep := range cl.deps {
		dep.settle()
	}
}

// poolStats implements the serving layer's application interface: a
// cluster contributes one "name#shard" entry per pooled shard.
func (cl *Cluster) poolStats(name string, out map[string]PoolStats) {
	for i, dep := range cl.deps {
		if p := dep.Pool(); p != nil {
			out[fmt.Sprintf("%s#%d", name, i)] = p.Stats()
		}
	}
}

// Close closes every shard's prefork pool, if any. After Close returns no
// fork is ready or parked on any shard; later device-policy runs on pooled
// shards fail with ErrPoolClosed.
func (cl *Cluster) Close() {
	for _, dep := range cl.deps {
		dep.Close()
	}
}
