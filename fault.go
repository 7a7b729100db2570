package conduit

import (
	"errors"
	"fmt"
	"strconv"

	"conduit/internal/cluster"
	"conduit/internal/faultinject"
	"conduit/internal/jsonl"
	"conduit/internal/serve"
	"conduit/internal/sim"
	"conduit/internal/trace"
)

// Fault-injection building blocks, re-exported like the compiler types.
type (
	// FaultConfig sets the per-seam injection rates and the chaos seed
	// (internal/faultinject). The zero value injects nothing.
	FaultConfig = faultinject.Config
	// Fault is one recorded injected fault; slices of them round-trip
	// through JSONL (WriteFaultLog/ReadFaultLog) for record/replay.
	Fault = faultinject.Fault
	// Recovery is the per-request fault-recovery accounting the serving
	// layer aggregates per tenant (attempts, retries, hedges, fallbacks,
	// simulated backoff time).
	Recovery = serve.Recovery
	// BreakerStatus is one circuit breaker's snapshot (Server.Breakers).
	BreakerStatus = faultinject.BreakerStatus
)

// WriteFaultLog records a fault schedule to path as JSONL, one fault per
// line (internal/jsonl).
func WriteFaultLog(path string, faults []Fault) error { return jsonl.WriteFile(path, faults) }

// ReadFaultLog loads a fault schedule for ServeOptions.ReplayFaults. It
// refuses, naming the line, any record an injector could not have
// written (faultinject.Check): a replay cannot inject a fault, or a
// slowdown, that no live run could draw.
func ReadFaultLog(path string) ([]Fault, error) { return jsonl.ReadFile(path, faultinject.Check) }

// FaultsAtRate maps one master fault rate onto the per-seam injection
// rates the availability experiment and conduit-serve -faults share:
// shard failures and slow shards at rate, fork failures and poisoned
// forks at rate/2, dispatch backend errors at rate/4 — device faults
// dominate, matching a storage-centric failure model. Slow shards run at
// the injector's default latency multiplier.
func FaultsAtRate(rate float64, seed uint64) FaultConfig {
	return FaultConfig{
		Seed:         seed,
		ShardFail:    rate,
		SlowShard:    rate,
		ForkFail:     rate / 2,
		PoisonFork:   rate / 2,
		BackendError: rate / 4,
	}
}

// ErrInjected marks errors manufactured by the fault-injection layer;
// match with errors.Is to tell injected chaos from organic failures.
var ErrInjected = errors.New("injected fault")

// ErrCircuitOpen is returned when a shard's circuit breaker is open and
// no fallback policy is configured to degrade to.
var ErrCircuitOpen = errors.New("circuit breaker open")

// RecoveryOptions tunes the fault-tolerant dispatch path: retries with
// capped deterministic backoff, hedged duplicate dispatch against
// straggler shards, per-(workload, shard) circuit breakers, and graceful
// degradation to a fallback policy. Every served request goes through
// this path; the zero value performs a single attempt per shard with no
// breaker, hedge, or fallback, and its results are byte-identical to
// calling Deployment.Run or Cluster.Run directly.
//
// All recovery costs are charged to simulated time: backoff between
// retries, the burnt simulated time of failed attempts, and the
// degraded-but-discarded time of slow shards all land on the request's
// RunResult.Elapsed, never on the wall clock — so recovery behavior is
// as deterministic as the runs it protects.
type RecoveryOptions struct {
	// MaxAttempts bounds tries per shard sub-run (and per dispatch);
	// < 1 selects 1 — no retries.
	MaxAttempts int
	// HedgeThreshold, when above 1, arms hedging: a duplicate dispatch
	// against the slowest shard of a cluster scatter when it straggles
	// past HedgeThreshold times the fastest shard. The faster of primary
	// and hedge wins (ties keep the primary, so hedging never perturbs a
	// fault-free run). At or below 1 nothing is hedged.
	HedgeThreshold float64
	// BreakerThreshold trips a shard's circuit breaker after that many
	// consecutive failures; 0 disables breakers.
	BreakerThreshold int
	// FallbackPolicy, when set, serves requests that hit an open
	// breaker under this (typically host) policy instead of refusing
	// them with ErrCircuitOpen. Fallback runs bypass the injection
	// seams: recovery must not be chaos's victim too.
	FallbackPolicy string
}

func (o RecoveryOptions) maxAttempts() int {
	if o.MaxAttempts < 1 {
		return 1
	}
	return o.MaxAttempts
}

// The simulated backoff before a retry starts at backoffBase and doubles
// per retry up to backoffCap. An open breaker absorbs breakerCooldown
// refused requests before admitting a half-open probe.
const (
	backoffBase     = 100 * sim.Microsecond
	backoffCap      = 10 * sim.Millisecond
	breakerCooldown = 8
)

// resilient is the dispatcher wrapped around every registered
// application — the one path a served request takes: it threads each run
// through the injection seams and recovers with retries, hedging,
// breakers, and fallback per its RecoveryOptions. A nil injector disables
// injection but keeps the recovery machinery live for organic failures.
// Safe for concurrent use (the injector and breakers lock internally;
// options are immutable).
type resilient struct {
	name     string
	app      application
	inj      *faultinject.Injector
	rec      RecoveryOptions
	fallback *policyEntry            // rec.FallbackPolicy resolved; nil when unset
	brk      *faultinject.BreakerSet // nil when breakers are disabled
}

func newResilient(name string, app application, inj *faultinject.Injector, rec RecoveryOptions) *resilient {
	r := &resilient{name: name, app: app, inj: inj, rec: rec}
	if rec.FallbackPolicy != "" {
		r.fallback = lookupPolicy(rec.FallbackPolicy)
	}
	if rec.BreakerThreshold > 0 {
		r.brk = faultinject.NewBreakerSet(rec.BreakerThreshold, breakerCooldown)
	}
	return r
}

// run executes one request through the dispatch seam and the shard-level
// recovery machinery, returning the merged result plus the request's
// recovery accounting. Injected dispatch-seam backend errors retry with
// backoff up to MaxAttempts; shard-level faults are retried per shard by
// runShard, so the two retry budgets never multiply.
//
// sp is the request's execution span (nil unless sampled). Every
// recovery action — injected faults, retries, breaker trips, hedges,
// fallbacks — lands on it as an event whose simulated offset is the
// backoff penalty charged so far, so the trace is as deterministic as
// the fault schedule that produced it.
func (r *resilient) run(p *policyEntry, sp *trace.Span) (*RunResult, serve.Recovery, error) {
	var rec serve.Recovery
	max := r.rec.maxAttempts()
	var penalty Time
	for attempt := 1; ; attempt++ {
		if f := r.inj.Draw(faultinject.Serve, r.name, 0, attempt); f.Kind != "" {
			rec.Injected++
			sp.Event("fault_injected", int64(penalty),
				trace.Attr{Key: "kind", Value: string(f.Kind)})
			if attempt >= max {
				return nil, rec, fmt.Errorf("conduit: dispatch %s: backend error after %d attempts: %w",
					r.name, attempt, ErrInjected)
			}
			rec.Retries++
			b := faultinject.Backoff(backoffBase, backoffCap, attempt)
			rec.BackoffSim += b
			penalty += b
			sp.Event("retry", int64(penalty),
				trace.Attr{Key: "attempt", Value: strconv.Itoa(attempt + 1)})
			continue
		}
		var res *RunResult
		var err error
		// A type switch, not a method of application: through an
		// interface call rec would escape, one allocation per request.
		switch app := r.app.(type) {
		case *Cluster:
			res, err = r.runCluster(app, p, &rec, sp)
		case *Deployment:
			res, err = r.runShard(app, 0, p, &rec, sp)
		}
		if err != nil {
			return nil, rec, err
		}
		return res.withElapsed(res.Elapsed + penalty), rec, nil
	}
}

// runCluster scatters the request across the shards with per-shard
// recovery, then optionally hedges the straggler: a duplicate sub-run
// against the slowest shard, first-wins in simulated time (the primary
// keeps ties, so a deterministic tie — e.g. a fault-free duplicate —
// never changes the merged result). Per-shard recovery accounting is
// merged into rec in shard order.
func (r *resilient) runCluster(cl *Cluster, p *policyEntry, rec *serve.Recovery, sp *trace.Span) (*RunResult, error) {
	if p.run == unknownPolicy {
		return nil, errUnknownPolicy(p.name)
	}
	recs := make([]serve.Recovery, len(cl.deps))
	parts := make([]*RunResult, len(cl.deps))
	gather := func(i int, dep *Deployment) (*RunResult, error) {
		ssp := sp.Child("cluster.shard", strconv.Itoa(i), 0)
		ssp.SetAttr("shard", strconv.Itoa(i))
		res, err := r.runShard(dep, i, p, &recs[i], ssp)
		parts[i] = res
		if res != nil {
			ssp.End(int64(res.Elapsed))
		} else {
			ssp.End(0)
		}
		return res, err
	}
	merged, err := cl.runShards(gather)
	for i := range recs {
		rec.Merge(recs[i])
	}
	if err != nil {
		return nil, err
	}
	if r.rec.HedgeThreshold > 1 && len(cl.deps) >= 2 {
		elapsed := make([]Time, len(parts))
		for i, p := range parts {
			elapsed[i] = p.Elapsed
		}
		if s := cluster.HedgePick(elapsed, r.rec.HedgeThreshold); s >= 0 {
			rec.Hedges++
			sp.Event("hedge", int64(parts[s].Elapsed),
				trace.Attr{Key: "shard", Value: strconv.Itoa(s)})
			var hrec serve.Recovery
			hsp := sp.Child("cluster.shard", "hedge:"+strconv.Itoa(s), 0)
			hsp.SetAttr("shard", strconv.Itoa(s))
			hsp.SetAttr("hedge", "true")
			dup, derr := guardShardRun(s, func() (*RunResult, error) {
				return r.runShard(cl.deps[s], s, p, &hrec, hsp)
			})
			if dup != nil {
				hsp.End(int64(dup.Elapsed))
			} else {
				hsp.End(0)
			}
			rec.Merge(hrec)
			if derr == nil && dup.Elapsed < parts[s].Elapsed {
				// The hedge won: in simulated time the duplicate finishes
				// first, the straggling primary is cancelled, and the
				// merge sees only the winner.
				rec.HedgeWins++
				sp.Event("hedge_win", int64(dup.Elapsed),
					trace.Attr{Key: "shard", Value: strconv.Itoa(s)})
				parts[s] = dup
				return cl.merge(parts), nil
			}
		}
	}
	return merged, nil
}

// runShard serves one shard's sub-run with the full per-shard recovery
// stack: breaker admission (checked before every attempt, so a breaker
// tripping mid-request degrades the request's remaining attempts),
// injected fork/shard faults, retries with simulated backoff, and
// fallback. The simulated time burnt by failed attempts and backoff is
// charged to the winning attempt's Elapsed.
func (r *resilient) runShard(dep *Deployment, shard int, p *policyEntry, rec *serve.Recovery, sp *trace.Span) (*RunResult, error) {
	var b *faultinject.Breaker
	if r.brk != nil {
		b = r.brk.Get(fmt.Sprintf("%s#%d", r.name, shard))
	}
	max := r.rec.maxAttempts()
	var penalty Time
	var lastErr error
	for attempt := 1; attempt <= max; attempt++ {
		if b != nil && !b.Allow() {
			sp.Event("breaker_open", int64(penalty),
				trace.Attr{Key: "shard", Value: strconv.Itoa(shard)})
			if fb := r.fallback; fb != nil {
				rec.Fallbacks++
				sp.Event("fallback", int64(penalty),
					trace.Attr{Key: "policy", Value: fb.name})
				res, err := guardShardRun(shard, func() (*RunResult, error) { return dep.runAttempt(fb, sp, "fallback") })
				if err != nil {
					return nil, err
				}
				return res.withElapsed(res.Elapsed + penalty), nil
			}
			return nil, fmt.Errorf("conduit: %s shard %d: %w", r.name, shard, ErrCircuitOpen)
		}
		rec.Attempts++
		if attempt > 1 {
			rec.Retries++
			back := faultinject.Backoff(backoffBase, backoffCap, attempt-1)
			rec.BackoffSim += back
			penalty += back
			sp.Event("retry", int64(penalty),
				trace.Attr{Key: "attempt", Value: strconv.Itoa(attempt)})
		}
		res, cost, err := r.attemptShard(dep, shard, p, attempt, rec, sp)
		if err == nil {
			if b != nil {
				b.Success()
			}
			return res.withElapsed(res.Elapsed + penalty), nil
		}
		if b != nil {
			b.Failure()
		}
		penalty += cost
		lastErr = err
	}
	return nil, fmt.Errorf("conduit: %s shard %d: %d attempts exhausted: %w",
		r.name, shard, max, lastErr)
}

// attemptShard executes one attempt through the pool and device seams.
// cost is the simulated time the attempt burnt if it failed (a failed
// run still ran; a slow-then-failed run burnt its degraded time); it is
// zero on success, where the run's own time lives in res.Elapsed.
func (r *resilient) attemptShard(dep *Deployment, shard int, p *policyEntry, attempt int, rec *serve.Recovery, sp *trace.Span) (*RunResult, Time, error) {
	// Injection events carry the attempt number rather than a simulated
	// offset of their own: the draws happen "at" the attempt, and the
	// deterministic offsets of interest (backoff penalties) live on the
	// surrounding retry events.
	inject := func(kind faultinject.Kind) {
		rec.Injected++
		sp.Event("fault_injected", 0,
			trace.Attr{Key: "kind", Value: string(kind)},
			trace.Attr{Key: "attempt", Value: strconv.Itoa(attempt)})
	}
	run := func() (*RunResult, error) { return dep.runAttempt(p, sp, strconv.Itoa(attempt)) }
	if p.run == onHost {
		// Host baselines fork no device and touch no pool: only the
		// dispatch seam applies to them.
		res, err := guardShardRun(shard, run)
		return res, 0, err
	}
	if f := r.inj.Draw(faultinject.Pool, r.name, shard, attempt); f.Kind != "" {
		inject(f.Kind)
		if f.Kind == faultinject.KindForkFail {
			return nil, 0, fmt.Errorf("conduit: %s shard %d: fork acquisition failed: %w",
				r.name, shard, ErrInjected)
		}
		// A poisoned clone really consumes a fork, is found unusable, and
		// is discarded; the pool drops its ready and parked devices as
		// suspect and re-clones its ready list from the master.
		if _, err := dep.fork(); err != nil {
			return nil, 0, err
		}
		if p := dep.Pool(); p != nil {
			p.Quarantine()
			sp.Event("pool_quarantine", 0,
				trace.Attr{Key: "attempt", Value: strconv.Itoa(attempt)})
		}
		return nil, 0, fmt.Errorf("conduit: %s shard %d: poisoned fork: %w",
			r.name, shard, ErrInjected)
	}
	f := r.inj.Draw(faultinject.Device, r.name, shard, attempt)
	if f.Kind == faultinject.KindPanic {
		inject(f.Kind)
		_, err := guardShardRun(shard, func() (*RunResult, error) {
			panic(fmt.Sprintf("faultinject: injected panic (%s shard %d attempt %d)", r.name, shard, attempt))
		})
		return nil, 0, err
	}
	res, err := guardShardRun(shard, run)
	if err != nil {
		return nil, 0, err
	}
	if f.Slowdown > 1 {
		res = res.withElapsed(Time(float64(res.Elapsed) * f.Slowdown))
	}
	if f.Kind != "" {
		inject(f.Kind)
	}
	if f.Kind == faultinject.KindShardFail {
		// The run completed but its result is injected-lost; its (possibly
		// degraded) simulated time was still burnt and charges the retry.
		return nil, res.Elapsed, fmt.Errorf("conduit: %s shard %d: shard run failed: %w",
			r.name, shard, ErrInjected)
	}
	return res, 0, nil
}
