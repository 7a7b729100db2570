package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"conduit/internal/histo"
	"conduit/internal/metrics"
	"conduit/internal/sim"
	"conduit/internal/stats"
	"conduit/internal/trace"
)

// Request names one offload execution issued on behalf of a tenant.
type Request struct {
	// Tenant is the accounting principal the request is billed to.
	Tenant string
	// Workload names a registered application.
	Workload string
	// Policy is the execution policy (see conduit.Policies and
	// conduit.AblationPolicies).
	Policy string
	// Deadline is the request's latency budget measured from submission
	// (its SLO); 0 means none. A request still queued when its budget is
	// exhausted is dropped at dispatch with ErrDeadlineExceeded — it never
	// reaches the backend, so an expired request never consumes a pooled
	// fork. A served request that finishes within Deadline counts toward
	// the tenant's SLO attainment.
	Deadline time.Duration
	// Trace is the issuer's trace context for a request that arrived
	// over the wire: when Sampled is set the engine records spans into
	// the issuer's trace instead of consulting its own sampler.
	Trace trace.Ctx
	// Tag is the issuer's own: echoed in Response.Request, never read.
	Tag uint64
}

// cell is the batching identity: requests of one cell compute the same
// deterministic result and may share one execution.
type cell struct{ workload, policy string }

func (r Request) key() cell { return cell{r.Workload, r.Policy} }

// Outcome is the backend's product for one executed (workload, policy)
// cell. It carries the simulated cost alongside the opaque result so the
// engine can keep energy/latency accounts without depending on the
// backend's result type.
type Outcome struct {
	// Value is the backend result (the conduit facade stores a
	// *conduit.RunResult here).
	Value interface{}
	// Elapsed is the simulated execution time of the cell, including
	// any simulated-time retry backoff the backend charged.
	Elapsed sim.Time
	// EnergyJ is the cell's total consumed energy in joules.
	EnergyJ float64
	// Recovery carries the fault-tolerance accounting of the execution
	// (zero for a clean first-attempt run on a fault-free backend).
	Recovery Recovery
}

// Recovery is the fault-tolerance accounting of one served execution:
// how much extra work the retry/hedge/breaker machinery spent to
// produce the response. A zero Recovery is a clean first-try success.
type Recovery struct {
	// Attempts counts executed run attempts, across every shard
	// (1 per shard = clean).
	Attempts int64
	// Retries counts re-attempts after a failed attempt.
	Retries int64
	// Hedges counts duplicate dispatches issued against slow shards;
	// HedgeWins counts those whose duplicate beat the primary.
	Hedges    int64
	HedgeWins int64
	// Fallbacks counts shard executions served by the degraded
	// fallback policy because a circuit breaker was open.
	Fallbacks int64
	// Injected counts faults the chaos layer injected into this
	// execution.
	Injected int64
	// BackoffSim is the simulated-time retry backoff charged into the
	// response's Elapsed.
	BackoffSim sim.Time
}

// Merge accumulates o into r; backends assemble a request's Recovery
// from per-shard pieces with it, and the accountant folds per-response
// recovery into tenant totals.
func (r *Recovery) Merge(o Recovery) {
	r.Attempts += o.Attempts
	r.Retries += o.Retries
	r.Hedges += o.Hedges
	r.HedgeWins += o.HedgeWins
	r.Fallbacks += o.Fallbacks
	r.Injected += o.Injected
	r.BackoffSim += o.BackoffSim
}

// Runner executes one (workload, policy) cell. Implementations must be
// safe for concurrent use; the engine calls RunCell from many workers.
// sp is the request's execution span — nil unless the request is
// sampled — and backends annotate it with child spans and events
// (shard scatter, pool activity, recovery work) on the request's
// simulated timeline.
type Runner interface {
	RunCell(workload, policy string, sp *trace.Span) (Outcome, error)
}

// RunnerFunc adapts a function to the Runner interface.
type RunnerFunc func(workload, policy string, sp *trace.Span) (Outcome, error)

// RunCell implements Runner.
func (f RunnerFunc) RunCell(workload, policy string, sp *trace.Span) (Outcome, error) {
	return f(workload, policy, sp)
}

// Config tunes an Engine.
type Config struct {
	// Concurrency bounds the number of simultaneously executing
	// requests; < 1 selects GOMAXPROCS.
	Concurrency int
	// QueueDepth is the admission-queue capacity; < 1 selects
	// 4 x Concurrency. When the queue is full, Do blocks for space
	// (closed-loop admission) rather than rejecting.
	QueueDepth int
	// Coalesce shares one backend execution among requests for the same
	// (workload, policy) that are in flight at the same time. Because the
	// backend is deterministic this is observationally identical to a
	// private execution per request.
	Coalesce bool
	// Tracer, when non-nil, records per-request spans. Requests are
	// sampled by admission sequence (Tracer's SampleEvery) or by an
	// incoming wire trace context; with a nil Tracer every tracing site
	// degenerates to a nil check.
	Tracer *trace.Tracer
}

// Response is the served result of one request.
type Response struct {
	Request Request
	Outcome Outcome
	// Err is the backend error, if the cell failed.
	Err error
	// Queued is the wall-clock time spent waiting in the admission queue.
	Queued time.Duration
	// Latency is the wall-clock time from submission to completion.
	Latency time.Duration
	// Shared marks a response served by an execution that another
	// request started.
	Shared bool
	// Trace is the request's recorded trace; nil unless the request was
	// sampled.
	Trace *trace.Trace
}

// ErrDraining is returned by Do and Submit once Drain has begun.
var ErrDraining = errors.New("serve: engine is draining")

// ErrOverloaded is returned by Submit when the admission queue is full:
// the request is shed at the door — never queued, never executed — which
// is what keeps an open-loop overload from growing the queue (and every
// queued request's latency) without bound.
var ErrOverloaded = errors.New("serve: overloaded, admission queue full")

// ErrDeadlineExceeded is the Response.Err of a request whose Deadline
// passed while it waited in the admission queue. The backend is never
// invoked for such a request.
var ErrDeadlineExceeded = errors.New("serve: deadline exceeded before dispatch")

// A Settler is a Runner with work left once a response is out: the engine
// calls Settle on the goroutine that finished the request, after yielding
// once unless it is an inline Do's caller, so that the goroutine the
// response woke runs first.
type Settler interface {
	Settle(workload string)
}

// Engine multiplexes concurrent requests over a bounded worker set with
// optional same-cell batching and per-tenant accounting; a Do that finds
// a slot free and nothing queued, and a Dispatch that finds a one-slot
// engine idle, run on the caller's goroutine. All methods are safe for
// concurrent use.
type Engine struct {
	cfg    Config
	runner Runner

	queue   chan *pending
	workers sync.WaitGroup

	slots   chan struct{} // one token per executing request, inline or not
	queued  atomic.Int64  // requests admitted to the queue and not yet holding a slot
	admit   sync.Mutex    // guards closed and seq; admitWG.Add races with Drain
	closed  bool
	seq     uint64         // 1-based admission sequence; drives trace sampling
	admitWG sync.WaitGroup // Do calls between admission and completion

	flight FlightGroup[cell, Outcome]

	acct    sync.Mutex
	tenants map[string]*tenantAccount
	all     tenantAccount
}

// pending is one admitted request. Its Request lives only in resp.
type pending struct {
	submitted time.Time
	// seq is the request's 1-based admission sequence, stamped under the
	// admission lock. Sheds never consume a sequence number, so the
	// sampled set of an open-loop schedule does not depend on which
	// submissions happened to shed.
	seq  uint64
	resp Response
	// done releases a Do waiting for a worker; nil for Submit and inline Do.
	done chan struct{}
	// root is the request's root span; nil unless sampled.
	root *trace.Span
	// notify, when non-nil (Submit), is handed the finished response on
	// the goroutine that finished it.
	notify func(*Response)
}

// pendings lends Submit its pendings; recycle clears one and returns it.
var pendings = sync.Pool{New: func() any { return new(pending) }}

// tenantAccount attributes served work to a tenant. Simulated time and
// energy are billed per response — a shared (coalesced) response
// bills the full cell cost to every tenant that received it, so the
// columns read as attributed demand, not device-side consumption; the
// shared count times the per-cell cost is the saving batching bought.
//
// Wall-clock latency lives in a bounded log-linear histogram, not a
// Reservoir: the open-loop path produces an unbounded sample stream, and
// the histogram admits it in O(1) space with a fixed relative error
// (1/64, internal/histo) while staying exactly mergeable. Reservoirs
// remain authoritative for simulated-time experiment statistics, where
// sample counts are bounded and figures want exact percentiles.
type tenantAccount struct {
	requests int64 // completed responses (served, failed, or expired)
	errors   int64 // backend failures
	shed     int64 // rejected at admission (ErrOverloaded); not in requests
	expired  int64 // dropped at dispatch (ErrDeadlineExceeded)
	shared   int64
	attained int64            // served within their deadline (or with none)
	recovery Recovery         // fault-tolerance work behind served responses
	wall     *histo.Histogram // wall-clock latency of completed responses, ns
	sim      sim.Time         // simulated time attributed to the tenant
	energyJ  float64          // simulated energy attributed to the tenant
}

func newTenantAccount() *tenantAccount {
	return &tenantAccount{wall: histo.New()}
}

// NewEngine starts an engine with cfg.Concurrency workers (< 1 selects
// GOMAXPROCS) draining the admission queue. Callers must Drain it when
// done.
func NewEngine(r Runner, cfg Config) *Engine {
	if cfg.Concurrency < 1 {
		cfg.Concurrency = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 4 * cfg.Concurrency
	}
	e := &Engine{
		cfg:     cfg,
		runner:  r,
		queue:   make(chan *pending, cfg.QueueDepth),
		slots:   make(chan struct{}, cfg.Concurrency),
		tenants: make(map[string]*tenantAccount),
	}
	e.all.wall = histo.New()
	for i := 0; i < cfg.Concurrency; i++ {
		e.workers.Add(1)
		go func() {
			defer e.workers.Done()
			for p := range e.queue {
				e.slots <- struct{}{} // p counts as queued until it holds a slot
				e.queued.Add(-1)
				e.serveOne(p)
				<-e.slots
			}
		}()
	}
	return e
}

// Do submits req and blocks until it is served — the closed-loop client
// primitive, run on the calling goroutine when a slot is free and nothing
// is queued. The returned error is ErrDraining if admission is closed,
// otherwise it equals Response.Err (the response carries timing and
// accounting detail either way).
func (e *Engine) Do(req Request) (*Response, error) {
	p := &pending{submitted: time.Now(), resp: Response{Request: req}}
	e.admit.Lock()
	if e.closed {
		e.admit.Unlock()
		return nil, ErrDraining
	}
	e.seq++
	p.seq = e.seq
	e.admitWG.Add(1)
	slots := e.slots
	if e.queued.Load() > 0 {
		slots = nil // never ready: req queues behind what is there
	}
	select {
	case slots <- struct{}{}:
	default:
		e.queued.Add(1)
		p.done = make(chan struct{})
	}
	e.admit.Unlock()
	defer e.admitWG.Done()
	if p.inline() {
		e.serveOne(p)
		<-e.slots
	} else {
		e.queue <- p
		<-p.done
	}
	return &p.resp, p.resp.Err
}

// Submit admits req without blocking — the open-loop client primitive: a
// load generator paces submissions off a schedule, not off completions,
// so admission must shed instead of exerting back-pressure. If the
// admission queue is full the request is rejected with ErrOverloaded
// (counted against the tenant as shed; the backend never sees it). After
// Drain the error is ErrDraining. Otherwise Submit returns nil and
// calls notify exactly once with the finished Response — even if the
// request's deadline expires in the queue (Response.Err is then
// ErrDeadlineExceeded). notify runs on the engine worker that finished
// the request (or, for a request that joined a coalesced execution, on
// the goroutine that waited for it), so it must hand the response off
// and return: a notify that blocks holds a worker. It is lent the
// Response until it returns and keeps a copy if any (Request.Tag tells
// requests apart); callers that want a channel make their own.
func (e *Engine) Submit(req Request, notify func(*Response)) error {
	_, err := e.Dispatch(req, notify, nil)
	return err
}

// Dispatch is Submit for a caller that can serve req itself: when inline
// is non-nil and a one-slot engine is idle (nothing executing, nothing
// queued) it serves req on the calling goroutine, lends the response to
// inline there and returns true; otherwise it queues or sheds exactly as
// Submit does and returns false. A caller serving one request cannot read
// its next meanwhile, so it serves only what nothing else could: with a
// second slot, the request it has not read would run beside this one.
func (e *Engine) Dispatch(req Request, notify, inline func(*Response)) (bool, error) {
	p := pendings.Get().(*pending)
	p.submitted, p.resp.Request, p.notify = time.Now(), req, notify
	e.admit.Lock()
	if e.closed {
		e.admit.Unlock()
		return false, ErrDraining // p is left to the collector
	}
	// Slots are taken only under the admission lock or for a queued
	// request, so the send cannot block; and with no slot taken no flight
	// is in progress, so req leads its own and never waits on another.
	if inline != nil && cap(e.slots) == 1 && len(e.slots) == 0 && e.queued.Load() == 0 {
		e.slots <- struct{}{}
		e.seq++
		p.seq, p.notify = e.seq, inline
		e.admitWG.Add(1)
		e.admit.Unlock()
		e.serveOne(p)
		<-e.slots
		e.admitWG.Done()
		return true, nil
	}
	// The try-send happens under the admission lock, so it is ordered
	// against Drain's closed=true (same lock) and therefore can never
	// race close(e.queue). The sequence number is committed only on
	// admission, so a shed never burns one.
	p.seq = e.seq + 1
	select {
	case e.queue <- p:
		e.seq++
		e.queued.Add(1)
		e.admit.Unlock()
		return false, nil
	default:
		e.admit.Unlock()
		p.recycle()
		e.accountShed(req.Tenant)
		return false, ErrOverloaded
	}
}

func (p *pending) recycle() {
	*p = pending{}
	pendings.Put(p)
}

// serveOne executes one admitted request on the calling worker (or inline
// Do). A panicking backend is contained: the request fails with an error
// instead of crashing the serving process, and the worker keeps serving.
//
// Under Coalesce a joined request does not hold its worker while
// the in-flight execution finishes — the wait moves to a goroutine and
// the slot immediately serves other queued cells, so batching frees
// capacity instead of head-of-line blocking distinct cells behind a hot
// one. An inline Do has nobody else to answer it, so it waits in place.
func (e *Engine) serveOne(p *pending) {
	start := time.Now()
	p.resp.Queued = start.Sub(p.submitted)
	e.startTrace(p)
	// Deadline gate: a request whose budget expired in the queue is
	// dropped here, before the backend — and in particular before the
	// coalescing flight group — so an expired request can neither consume
	// a pooled fork nor lead an execution other requests join.
	if p.resp.Request.Deadline > 0 && p.resp.Queued > p.resp.Request.Deadline {
		p.root.Event("deadline_expired", 0)
		e.finish(p, Outcome{}, ErrDeadlineExceeded, false)
		return
	}
	exec := func() (out Outcome, err error) {
		run := p.root.Child("serve.run", "", 0)
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("serve: %s under %s panicked: %v",
					p.resp.Request.Workload, p.resp.Request.Policy, r)
			}
		}()
		out, err = e.runner.RunCell(p.resp.Request.Workload, p.resp.Request.Policy, run)
		run.End(int64(out.Elapsed))
		// The outcome travels even with a non-nil error: a failed request
		// may still carry recovery accounting (retries attempted, backoff
		// charged) that the tenant's books must not lose.
		return out, err
	}
	if !e.cfg.Coalesce {
		out, err := exec()
		e.finish(p, out, err, false)
		return
	}
	key := p.resp.Request.key()
	c, leader := e.flight.begin(key)
	if !leader {
		join := func() {
			c.wg.Wait()
			e.finish(p, c.val, c.err, true)
		}
		// Unless the leader has finished meanwhile, or nobody else can
		// answer an inline Do, the wait moves to a goroutine.
		if !c.done.Load() && !p.inline() {
			go join()
			return
		}
		join()
		return
	}
	out, err := exec()
	e.flight.complete(key, c, out, err, true)
	e.finish(p, out, err, false)
}

// inline reports whether p is a Do served on its caller's goroutine.
func (p *pending) inline() bool { return p.done == nil && p.notify == nil }

// startTrace decides whether the admitted request is sampled and, if
// so, opens its trace and root span. A wire context with the Sampled
// bit continues the issuer's trace under the issuer's trace ID; a
// locally sampled request starts a fresh trace whose ID is its
// admission sequence — deterministic for a given schedule.
func (e *Engine) startTrace(p *pending) {
	t := e.cfg.Tracer
	if t == nil {
		return
	}
	var tr *trace.Trace
	switch {
	case p.resp.Request.Trace.Sampled && p.resp.Request.Trace.ID != 0:
		tr = t.Start(p.resp.Request.Trace.ID)
	case t.ShouldSample(p.seq):
		tr = t.Start(p.seq)
	default:
		return
	}
	p.resp.Trace = tr
	p.root = tr.Root("serve.request", p.resp.Request.Trace.Parent, 0)
	p.root.SetAttr("tenant", p.resp.Request.Tenant)
	p.root.SetAttr("workload", p.resp.Request.Workload)
	p.root.SetAttr("policy", p.resp.Request.Policy)
}

// finish completes a request: record the outcome, account it, release
// the blocked Do or hand the response to the open-loop submitter's
// notify, and then settle it (see Settler); a Submit's is then recycled.
func (e *Engine) finish(p *pending, out Outcome, err error, shared bool) {
	p.resp.Outcome = out
	p.resp.Err = err
	p.resp.Shared = shared
	p.resp.Latency = time.Since(p.submitted)
	if shared {
		p.root.Event("coalesced", 0)
	}
	p.root.End(int64(p.resp.Outcome.Elapsed))
	e.account(&p.resp, p.resp.Request.Tenant)
	switch {
	case p.notify != nil:
		p.notify(&p.resp)
	case p.done != nil:
		close(p.done)
	}
	if s, ok := e.runner.(Settler); ok {
		if !p.inline() {
			runtime.Gosched()
		}
		s.Settle(p.resp.Request.Workload)
	}
	if p.notify != nil {
		p.recycle()
	}
}

// MaxTenants bounds the named tenant accounts; later tenants share
// OverflowTenant's. At 16 series per account a target's worst-case
// scrape is 2 119 series, so it fits one frame (wire.MaxList).
const (
	MaxTenants     = 128
	OverflowTenant = "(other tenants)"
)

// tenant returns (creating if needed) the account for tenant; the caller
// holds e.acct.
func (e *Engine) tenant(tenant string) *tenantAccount {
	t := e.tenants[tenant]
	if t == nil && len(e.tenants) >= MaxTenants {
		tenant = OverflowTenant
		t = e.tenants[tenant]
	}
	if t == nil {
		t = newTenantAccount()
		e.tenants[tenant] = t
	}
	return t
}

// accountShed bills an admission rejection: the request never completed,
// so it joins no latency sample and no request count — only the shed
// tally, which SLO attainment treats as an offered-but-missed request.
func (e *Engine) accountShed(tenant string) {
	e.acct.Lock()
	defer e.acct.Unlock()
	e.tenant(tenant).shed++
	e.all.shed++
}

func (e *Engine) account(r *Response, tenant string) {
	e.acct.Lock()
	defer e.acct.Unlock()
	t := e.tenant(tenant)
	for _, a := range [...]*tenantAccount{t, &e.all} {
		a.requests++
		a.wall.Add(r.Latency.Nanoseconds())
		// Recovery accounting lands regardless of the final verdict: a
		// request that exhausted its retries still attempted them.
		a.recovery.Merge(r.Outcome.Recovery)
		switch {
		case errors.Is(r.Err, ErrDeadlineExceeded):
			a.expired++
			continue
		case r.Err != nil:
			a.errors++
			continue
		}
		if r.Shared {
			a.shared++
		}
		if r.Request.Deadline == 0 || r.Latency <= r.Request.Deadline {
			a.attained++
		}
		a.sim += r.Outcome.Elapsed
		a.energyJ += r.Outcome.EnergyJ
	}
}

// Drain closes admission, waits for every in-flight request to be served,
// and stops the workers. It is idempotent; after it returns no request is
// outstanding and Do returns ErrDraining.
func (e *Engine) Drain() {
	e.admit.Lock()
	already := e.closed
	e.closed = true
	e.admit.Unlock()
	if !already {
		e.admitWG.Wait()
		close(e.queue)
	}
	e.workers.Wait()
}

// TenantSnapshot is one tenant's accounting totals (see Snapshot). Sim
// and EnergyJ are attributed demand: shared responses bill the full cell
// cost to each recipient. Latency percentiles come from the tenant's
// bounded histogram (relative error 1/64, internal/histo) over completed
// responses; shed requests never completed and appear only in Shed.
type TenantSnapshot struct {
	Tenant   string
	Requests int64 // completed responses
	Errors   int64
	Shed     int64 // rejected at admission (ErrOverloaded)
	Expired  int64 // dropped at dispatch (ErrDeadlineExceeded)
	Shared   int64 // responses served by a coalesced execution
	Attained int64 // served within their deadline (or with none set)
	// Recovery aggregates the fault-tolerance work (retries, hedges,
	// breaker fallbacks, injected faults, charged backoff) behind the
	// tenant's served responses.
	Recovery Recovery
	P50      time.Duration
	P99      time.Duration
	P999     time.Duration
	Max      time.Duration
	Sim      sim.Time
	EnergyJ  float64
}

// Attainment is the tenant's SLO attainment over *offered* load: the
// fraction of all admission attempts (completed + shed) that were served
// within their deadline. Shedding therefore costs attainment — exactly
// the accounting that makes an overloaded open-loop run legible.
func (s TenantSnapshot) Attainment() float64 {
	offered := s.Requests + s.Shed
	if offered == 0 {
		return 0
	}
	return float64(s.Attained) / float64(offered)
}

// snapshotOf renders one account; the caller holds e.acct.
func snapshotOf(name string, t *tenantAccount) TenantSnapshot {
	return TenantSnapshot{
		Tenant:   name,
		Requests: t.requests,
		Errors:   t.errors,
		Shed:     t.shed,
		Expired:  t.expired,
		Shared:   t.shared,
		Attained: t.attained,
		Recovery: t.recovery,
		P50:      time.Duration(t.wall.P50()),
		P99:      time.Duration(t.wall.P99()),
		P999:     time.Duration(t.wall.P999()),
		Max:      time.Duration(t.wall.Max()),
		Sim:      t.sim,
		EnergyJ:  t.energyJ,
	}
}

// Snapshot returns per-tenant accounting totals sorted by tenant name.
func (e *Engine) Snapshot() []TenantSnapshot {
	e.acct.Lock()
	defer e.acct.Unlock()
	out := make([]TenantSnapshot, 0, len(e.tenants))
	for name, t := range e.tenants {
		out = append(out, snapshotOf(name, t))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// Total returns the all-tenants aggregate account.
func (e *Engine) Total() TenantSnapshot {
	e.acct.Lock()
	defer e.acct.Unlock()
	return snapshotOf("TOTAL", &e.all)
}

// LatencySeries is the wall-clock latency histogram FillMetrics fills:
// one series per tenant plus the all-tenant aggregate, which carries no
// tenant label.
const LatencySeries = "conduit_serve_latency_wall_ns"

// energySeries is the per-tenant attributed-energy gauge.
const energySeries = "conduit_serve_energy_joules"

// tenantCounters is the per-tenant accounting schema: one row per
// counter series FillMetrics exposes, naming the account field it
// reads. Report reads the same rows back to rebuild accounts from a
// scrape, so a new counter is one row here.
var tenantCounters = [...]struct {
	name  string
	field func(*tenantAccount) *int64
}{
	{"conduit_serve_requests_total", func(a *tenantAccount) *int64 { return &a.requests }},
	{"conduit_serve_errors_total", func(a *tenantAccount) *int64 { return &a.errors }},
	{"conduit_serve_shed_total", func(a *tenantAccount) *int64 { return &a.shed }},
	{"conduit_serve_expired_total", func(a *tenantAccount) *int64 { return &a.expired }},
	{"conduit_serve_shared_total", func(a *tenantAccount) *int64 { return &a.shared }},
	{"conduit_serve_attained_total", func(a *tenantAccount) *int64 { return &a.attained }},
	{"conduit_serve_attempts_total", func(a *tenantAccount) *int64 { return &a.recovery.Attempts }},
	{"conduit_serve_retries_total", func(a *tenantAccount) *int64 { return &a.recovery.Retries }},
	{"conduit_serve_hedges_total", func(a *tenantAccount) *int64 { return &a.recovery.Hedges }},
	{"conduit_serve_hedge_wins_total", func(a *tenantAccount) *int64 { return &a.recovery.HedgeWins }},
	{"conduit_serve_fallbacks_total", func(a *tenantAccount) *int64 { return &a.recovery.Fallbacks }},
	{"conduit_serve_faults_injected_total", func(a *tenantAccount) *int64 { return &a.recovery.Injected }},
	{"conduit_serve_backoff_sim_ns_total", func(a *tenantAccount) *int64 { return (*int64)(&a.recovery.BackoffSim) }},
	{"conduit_serve_sim_ns_total", func(a *tenantAccount) *int64 { return (*int64)(&a.sim) }},
}

// FillMetrics exposes the engine's accounting as named, labeled series
// in reg: every tenantCounters row and the attributed-energy gauge per
// tenant, and the wall-clock latency histograms (LatencySeries). The
// registry is filled at scrape time from the engine's books, so the hot
// path pays nothing for the metrics surface.
func (e *Engine) FillMetrics(reg *metrics.Registry) {
	e.acct.Lock()
	defer e.acct.Unlock()
	for name, t := range e.tenants {
		lbl := metrics.Label{Key: "tenant", Value: name}
		for _, c := range tenantCounters {
			reg.Count(c.name, *c.field(t), lbl)
		}
		reg.SetGauge(energySeries, t.energyJ, lbl)
		reg.MergeHist(LatencySeries, t.wall, lbl)
	}
	reg.MergeHist(LatencySeries, e.all.wall)
}

// add folds one FillMetrics series into the account; other series are
// ignored.
func (a *tenantAccount) add(s metrics.Sample) {
	switch s.Name {
	case LatencySeries:
		a.wall.Merge(s.Hist)
	case energySeries:
		a.energyJ += s.Value
	default:
		for _, c := range tenantCounters {
			if c.name == s.Name {
				*c.field(a) += int64(s.Value)
			}
		}
	}
}

// Report renders the per-tenant accounting in a metrics scrape as a
// table: request, error, shed, and deadline-expiry counts, how many
// responses rode on a shared execution, the recovery work behind them
// (retries, hedges, breaker fallbacks), SLO attainment over offered
// load, wall-clock latency percentiles, and the simulated time/energy
// attributed to the tenant (shared responses bill the full cell cost to
// each recipient — see tenantAccount). Tenants sort lexically.
//
// A series folds into its tenant's row whatever its other labels, so a
// fleet scrape whose series are relabelled target="<name>" renders as
// the sum of its targets. The closing TOTAL row is the column sums, with
// the percentiles of the all-tenant histogram (LatencySeries without a
// tenant label).
func Report(title string, samples []metrics.Sample) *stats.Table {
	tenants := make(map[string]*tenantAccount)
	total := newTenantAccount()
	for _, s := range samples {
		name, ok := tenantOf(s.Labels)
		switch {
		case ok:
			a := tenants[name]
			if a == nil {
				a = newTenantAccount()
				tenants[name] = a
			}
			a.add(s)
			if s.Kind != metrics.KindHistogram {
				total.add(s)
			}
		case s.Name == LatencySeries:
			total.add(s)
		}
	}
	names := make([]string, 0, len(tenants))
	for name := range tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	t := stats.NewTable(title,
		"tenant", "requests", "errors", "shed", "expired", "shared",
		"retries", "hedges", "fallback", "slo_pct",
		"p50_ms", "p99_ms", "p999_ms", "max_ms", "sim_ms", "energy_J")
	row := func(name string, a *tenantAccount) {
		s := snapshotOf(name, a)
		t.AddRowf(name, a.requests, a.errors, a.shed, a.expired, a.shared,
			a.recovery.Retries, a.recovery.Hedges, a.recovery.Fallbacks,
			fmt.Sprintf("%.1f", 100*s.Attainment()),
			float64(s.P50)/1e6,
			float64(s.P99)/1e6,
			float64(s.P999)/1e6,
			float64(s.Max)/1e6,
			float64(a.sim)/1e6,
			fmt.Sprintf("%.3g", a.energyJ))
	}
	for _, name := range names {
		row(name, tenants[name])
	}
	row("TOTAL", total)
	return t
}

func tenantOf(labels []metrics.Label) (string, bool) {
	for _, l := range labels {
		if l.Key == "tenant" {
			return l.Value, true
		}
	}
	return "", false
}
