package conduit

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"conduit/internal/faultinject"
	"conduit/internal/loadgen"
	"conduit/internal/metrics"
	"conduit/internal/serve"
	"conduit/internal/trace"
	"conduit/internal/workloads"
)

// Serving-layer building blocks, re-exported like the compiler types.
type (
	// Request names one offload execution on behalf of a tenant; its
	// Deadline (0 = none) is the request's SLO budget from submission.
	Request = serve.Request
	// Response is the served result of one request; its Outcome.Value
	// holds the *RunResult (see ResultOf).
	Response = serve.Response
	// TenantSnapshot is one tenant's accounting totals.
	TenantSnapshot = serve.TenantSnapshot
	// TraceOptions configures the server's request tracer
	// (internal/trace): sampling cadence, the optional wall-clock source,
	// and the retained-trace bound. The zero value records only requests
	// whose wire context demands sampling, and keeps every span on the
	// deterministic simulated timeline.
	TraceOptions = trace.Options
	// MetricSample is one series in a metrics snapshot (internal/metrics).
	MetricSample = metrics.Sample
)

// ErrDraining is returned by Server.Do and Server.Submit once Drain has
// begun.
var ErrDraining = serve.ErrDraining

// ErrOverloaded is returned by Server.Submit when the admission queue is
// full: the request is shed without ever executing.
var ErrOverloaded = serve.ErrOverloaded

// ErrDeadlineExceeded is the Response.Err of a request whose Deadline
// expired while it waited in the admission queue; it never consumed a
// pooled fork.
var ErrDeadlineExceeded = serve.ErrDeadlineExceeded

// ServeOptions tunes a Server.
type ServeOptions struct {
	// Concurrency bounds simultaneously executing requests; < 1 selects
	// GOMAXPROCS.
	Concurrency int
	// QueueDepth is the admission-queue capacity; < 1 selects
	// 4 x Concurrency.
	QueueDepth int
	// Prefork is the per-application device-pool depth: how many
	// post-deploy clones to make ready ahead of the first request.
	// Sharded registrations apply it per shard — each device in the
	// cluster gets its own pool of this depth. Served requests reuse
	// their devices either way; < 1 turns off only the eager clones, the
	// application's PoolStats rows and ErrPoolClosed after a drain.
	Prefork int
	// Coalesce shares one execution among identical in-flight requests.
	Coalesce bool
	// Faults enables the deterministic chaos layer: the server injects
	// faults at the dispatch, pool, and device seams per the config's
	// seeded rates (internal/faultinject) and records every injection.
	// Nil serves fault-free. Enabling faults forces Coalesce off:
	// injection draws are per-request, so requests must not share
	// executions.
	Faults *FaultConfig
	// ReplayFaults, when non-nil, replays the given recorded fault
	// schedule instead of drawing fresh: each seam consults the log and
	// re-injects exactly the faults it recorded, yielding the identical
	// outcome sequence. Takes precedence over Faults' rates.
	ReplayFaults []Fault
	// Recovery tunes the fault-tolerance machinery (retries, hedging,
	// circuit breakers, fallback) every request is dispatched through.
	// The zero value makes one attempt per shard; a non-zero value
	// protects against organic failures even without Faults.
	Recovery RecoveryOptions
	// Trace arms the per-request tracer. Nil disables tracing entirely
	// (the hot path pays one nil check). A non-nil value records a span
	// tree for every sampled request — see TraceOptions for the cadence
	// and Server.Tracer for retrieval.
	Trace *TraceOptions
}

// application is the serving-layer view of a registered app: pool
// teardown and pool reporting. Both a single-device Deployment and a
// sharded Cluster satisfy it, and resilient.run dispatches either through
// the recovery ladder — shard 0 of a Deployment, a per-shard scatter of a
// Cluster — so the engine serves either transparently.
type application interface {
	Close()
	// poolStats contributes the application's device-pool snapshots to
	// out, keying each entry off the registered name (a cluster adds one
	// "name#shard" entry per pooled shard). Pool-less apps add nothing.
	poolStats(name string, out map[string]PoolStats)
	// settle readies what a served request parked, every shard's.
	settle()
}

// Server serves offload requests for a set of registered applications —
// single-device Deployments or sharded Clusters — over pool-managed
// forks. Each application is compiled and NVMe-deployed exactly once per
// device, at registration; every request then runs on restored
// post-deploy clones, so sustained traffic never re-drives the deploy
// path. All methods are safe for concurrent use.
type Server struct {
	sys    *System
	opts   ServeOptions
	eng    *serve.Engine
	inj    *faultinject.Injector // nil = no injection
	tracer *trace.Tracer         // nil = tracing disabled

	mu       sync.Mutex
	apps     map[string]*resilient // each application behind its dispatcher
	draining bool
}

// NewServer starts a serving engine over a fresh System for cfg. Callers
// must Drain it when done.
func NewServer(cfg Config, opts ServeOptions) *Server {
	s := &Server{sys: NewSystem(cfg), apps: make(map[string]*resilient)}
	switch {
	case opts.ReplayFaults != nil:
		s.inj = faultinject.NewReplay(opts.ReplayFaults)
	case opts.Faults != nil:
		s.inj = faultinject.New(*opts.Faults)
	}
	if s.inj != nil {
		// Injection draws are per-request: sharing one execution among
		// requests would let a single draw decide many requests' fates
		// and desynchronize the recorded schedule from the request
		// stream, so chaos configs force batching off.
		opts.Coalesce = false
	}
	s.opts = opts
	if opts.Trace != nil {
		s.tracer = trace.New(*opts.Trace)
	}
	s.eng = serve.NewEngine(backend{s}, serve.Config{
		Concurrency: opts.Concurrency,
		QueueDepth:  opts.QueueDepth,
		Coalesce:    opts.Coalesce,
		Tracer:      s.tracer,
	})
	return s
}

// Register compiles src and installs it under name (see RegisterCompiled).
func (s *Server) Register(name string, src *Source) error {
	c, err := Compile(src, &s.sys.cfg)
	if err != nil {
		return err
	}
	return s.RegisterCompiled(name, c)
}

// RegisterCompiled deploys c once over the NVMe path, attaches a prefork
// pool of opts.Prefork ready clones, and makes the application requestable
// under name. Registering a name twice is an error.
func (s *Server) RegisterCompiled(name string, c *Compiled) error {
	return s.install(name, func() (application, error) {
		dep, err := s.sys.Deploy(c)
		if err != nil {
			return nil, err
		}
		if s.opts.Prefork > 0 {
			dep.Prefork(s.opts.Prefork)
		}
		return dep, nil
	})
}

// RegisterSharded shards src row-block-wise across a cluster of the given
// number of simulated drives (see System.DeployCluster) and makes it
// requestable under name: each request scatters into per-shard sub-runs
// on pooled clones — opts.Prefork applies per shard — and gathers a
// merged result. Partitionable vs broadcast arrays follow the workload's
// shardability metadata. shards <= 1 registers a single-device cluster,
// which serves byte-identically to Register.
func (s *Server) RegisterSharded(name string, src *Source, shards int) error {
	return s.install(name, func() (application, error) {
		return s.sys.DeployCluster(src, ClusterOptions{
			Shards:  shards,
			Prefork: s.opts.Prefork,
		})
	})
}

// RegisterWorkload builds the named evaluation workload
// (internal/workloads, matched like workloads.Find) at scale and registers
// it under its display name: as a shards-device cluster when shards > 1
// (see RegisterSharded), on a single Deployment otherwise. A failure
// wraps its cause, so errors.Is sees ErrTooManyShards for a workload too
// small to shard that wide.
func (s *Server) RegisterWorkload(name string, scale, shards int) error {
	w, ok := workloads.Find(name, scale)
	if !ok {
		return fmt.Errorf("conduit: unknown workload %q", name)
	}
	var err error
	if shards > 1 {
		err = s.RegisterSharded(w.Name, w.Source, shards)
	} else {
		err = s.Register(w.Name, w.Source)
	}
	if err != nil {
		return fmt.Errorf("register %s at %d shards: %w", w.Name, shards, err)
	}
	return nil
}

// install runs the registration protocol around a deploy: check the name
// (and drain state) before paying for the deploy, build, then re-check at
// insertion in case of a concurrent registration of the same name or a
// concurrent Drain — tearing the freshly built application down if it
// lost either race.
func (s *Server) install(name string, build func() (application, error)) error {
	errDup := fmt.Errorf("conduit: application %q already registered", name)
	s.mu.Lock()
	_, dup := s.apps[name]
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return ErrDraining
	}
	if dup {
		return errDup
	}
	app, err := build()
	if err != nil {
		return err
	}
	s.mu.Lock()
	_, dup = s.apps[name]
	draining = s.draining
	if !dup && !draining {
		s.apps[name] = newResilient(name, app, s.inj, s.opts.Recovery)
	}
	s.mu.Unlock()
	if dup || draining {
		app.Close()
		if draining {
			return ErrDraining
		}
		return errDup
	}
	return nil
}

// Applications lists registered application names, sorted.
func (s *Server) Applications() []string {
	apps := s.sorted()
	names := make([]string, len(apps))
	for i, r := range apps {
		names[i] = r.name
	}
	return names
}

// sorted snapshots the registered applications in name order, the order
// every walk over them uses so output and shutdown are reproducible.
func (s *Server) sorted() []*resilient {
	s.mu.Lock()
	apps := make([]*resilient, 0, len(s.apps))
	for _, r := range s.apps {
		apps = append(apps, r)
	}
	s.mu.Unlock()
	sort.Slice(apps, func(i, j int) bool { return apps[i].name < apps[j].name })
	return apps
}

// backend is the Server as its engine's serve.Runner and serve.Settler.
type backend struct{ *Server }

// RunCell is one request = one policy run, through the application's
// recovery dispatcher, on pool-managed forks of the workload's deployment
// (every shard's, for a clustered application). sp is the engine's
// execution span for the request (nil when the request is unsampled);
// shard and device work recorded under it stays on the simulated timeline.
func (s backend) RunCell(workload, policy string, sp *trace.Span) (serve.Outcome, error) {
	app := s.app(workload)
	if app == nil {
		return serve.Outcome{}, fmt.Errorf("conduit: no application %q registered (have: %s)",
			workload, strings.Join(s.Applications(), ", "))
	}
	r, rec, err := app.run(lookupPolicy(policy), sp)
	if err != nil {
		// A failed request still reports its recovery accounting: the
		// retries it burnt are real work the books must show.
		return serve.Outcome{Recovery: rec}, err
	}
	// r carries no Device (runAttempt and merge parked it) and may be
	// shared by every request that reproduced it: read-only, and so safe
	// to share between coalesced responses too (the Reservoir locks
	// internally).
	return serve.Outcome{Value: r, Elapsed: r.Elapsed, EnergyJ: r.TotalEnergy(), Recovery: rec}, nil
}

// Settle implements serve.Settler.
func (s backend) Settle(workload string) {
	if app := s.app(workload); app != nil {
		app.app.settle()
	}
}

// app returns the application registered under name, or nil.
func (s *Server) app(name string) *resilient {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.apps[name]
}

// Do submits one request and blocks until it is served (closed-loop). The
// returned error is ErrDraining after Drain, otherwise Response.Err.
func (s *Server) Do(req Request) (*Response, error) { return s.eng.Do(req) }

// Submit admits one request without blocking (open-loop) and calls
// notify exactly once with its response when served, on the serving
// goroutine: notify must hand the response off, not block, and copy what
// it keeps, since the response is lent until notify returns (Request.Tag,
// echoed, tells requests apart). When the admission queue is full the
// request is shed with ErrOverloaded — it never executes, never consumes
// a pooled fork, and notify is never called — and after Drain the error
// is ErrDraining. Open-loop load
// generators pace Submit calls off a schedule (internal/loadgen), so
// overload surfaces as shed requests and queueing delay instead of
// silently throttling the generator.
func (s *Server) Submit(req Request, notify func(*Response)) error {
	return s.eng.Submit(req, notify)
}

// Dispatch is Submit for a caller that can serve the request itself: with
// inline non-nil, Concurrency 1 and nothing executing or queued, the
// request runs on the calling goroutine, inline is lent its response
// there, and Dispatch reports true. A target's connection reader
// dispatches through it.
func (s *Server) Dispatch(req Request, notify, inline func(*Response)) (bool, error) {
	return s.eng.Dispatch(req, notify, inline)
}

// OpenLoop adapts Submit to the open-loop load driver (loadgen.Drive):
// a full admission queue sheds, a deadline that passes in the queue
// expires, anything else that is not a result fails. observe, when
// non-nil, sees every answered response as the driver collects it (on
// the driver's goroutine, in issue order).
func (s *Server) OpenLoop(observe func(*Response)) loadgen.SubmitFunc {
	return func(ev loadgen.Event) (func() loadgen.Outcome, loadgen.Outcome) {
		ch := make(chan Response, 1)
		err := s.Submit(Request{
			Tenant: ev.Tenant, Workload: ev.Workload, Policy: ev.Policy, Deadline: ev.Deadline,
		}, func(r *Response) { ch <- *r })
		switch {
		case errors.Is(err, ErrOverloaded):
			return nil, loadgen.Shed
		case err != nil:
			return nil, loadgen.Failed
		}
		return func() loadgen.Outcome {
			resp := <-ch
			if observe != nil {
				observe(&resp)
			}
			switch {
			case resp.Err == nil:
				return loadgen.Served
			case errors.Is(resp.Err, ErrDeadlineExceeded):
				return loadgen.Expired
			}
			return loadgen.Failed
		}, 0
	}
}

// ResultOf unwraps the RunResult a successful response carries; it returns
// nil for a nil or failed response.
func ResultOf(resp *Response) *RunResult {
	if resp == nil || resp.Err != nil {
		return nil
	}
	r, _ := resp.Outcome.Value.(*RunResult)
	return r
}

// Drain stops admission, waits for every in-flight request to complete,
// and closes every application's prefork pools — every shard's, for
// clustered applications. After Drain returns, no fork is ready or
// parked anywhere, Do rejects with ErrDraining, and further registrations are
// refused. Idempotent.
func (s *Server) Drain() {
	s.eng.Drain()
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	for _, r := range s.sorted() {
		r.app.Close()
	}
}

// Tenants returns per-tenant accounting totals sorted by tenant name.
func (s *Server) Tenants() []TenantSnapshot { return s.eng.Snapshot() }

// Total returns the all-tenants aggregate accounting snapshot.
func (s *Server) Total() TenantSnapshot { return s.eng.Total() }

// FaultLog returns the faults injected so far in injection order — the
// replayable record of this server's chaos schedule (WriteFaultLog
// persists it; ServeOptions.ReplayFaults re-runs it). It returns nil
// when the server was built without Faults or ReplayFaults.
func (s *Server) FaultLog() []Fault { return s.inj.Log() }

// Breakers reports every circuit breaker's state, sorted by breaker name
// ("workload#shard"), across all registered applications. Empty unless
// RecoveryOptions.BreakerThreshold is set.
func (s *Server) Breakers() []BreakerStatus {
	var out []BreakerStatus
	for _, r := range s.sorted() {
		if r.brk != nil {
			out = append(out, r.brk.Snapshot()...)
		}
	}
	return out
}

// PoolStats reports each registered application's device-pool counters,
// keyed by application name — a clustered application contributes one
// entry per shard, keyed "name#shard". Applications (and shards) without
// a pool are omitted.
func (s *Server) PoolStats() map[string]PoolStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]PoolStats, len(s.apps))
	for name, r := range s.apps {
		r.app.poolStats(name, out)
	}
	return out
}

// Tracer returns the server's request tracer, or nil when ServeOptions.
// Trace was not set. Retained traces are read via Tracer().Spans() (or
// per-trace via Traces()); exporting is the caller's business — see
// jsonl.Write and trace.WritePerfetto.
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// Metrics snapshots the server's unified metrics registry: per-tenant
// serving counters and latency histograms (from the engine's accounting),
// per-pool fork counters, and circuit-breaker state gauges. The registry
// is filled at scrape time from the authoritative counters, so scraping
// costs the hot path nothing. It is the server's one accounting surface:
// serve.Report renders the tenant table from it, and a target ships it in
// its Snapshot frame. Samples are sorted by series identity; merge
// fleet-wide with metrics.Registry.Add after metrics.Relabel.
func (s *Server) Metrics() []MetricSample {
	reg := metrics.New()
	s.eng.FillMetrics(reg)
	pools := s.PoolStats()
	names := make([]string, 0, len(pools))
	for name := range pools {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ps := pools[name]
		lbl := metrics.Label{Key: "pool", Value: name}
		reg.Count("conduit_pool_preforked_total", ps.Preforked, lbl)
		reg.Count("conduit_pool_hits_total", ps.Hits, lbl)
		reg.Count("conduit_pool_misses_total", ps.Misses, lbl)
		reg.Count("conduit_pool_quarantined_total", ps.Quarantined, lbl)
		reg.Count("conduit_pool_repairs_total", ps.Repairs, lbl)
		reg.Count("conduit_pool_restored_total", ps.Restored, lbl)
		reg.SetGauge("conduit_pool_idle", float64(ps.Idle), lbl)
	}
	for _, b := range s.Breakers() {
		lbl := metrics.Label{Key: "breaker", Value: b.Name}
		reg.SetGauge("conduit_breaker_state", float64(b.State), lbl)
		reg.Count("conduit_breaker_trips_total", b.Trips, lbl)
	}
	return reg.Snapshot()
}
