package router

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"conduit/internal/faultinject"
	"conduit/internal/histo"
	"conduit/internal/metrics"
	"conduit/internal/trace"
	"conduit/internal/wire"
)

// Clock is the router's only source of wall time, injected by the
// caller: cmd/conduit-router passes the real clock, deterministic
// tests pass fakes or leave it zero. With Now nil the router records
// no wall latency; with After nil it never hedges. This package calls
// no time.* function directly — that is the conduitlint nondeterm
// contract, kept without an allowlist entry.
type Clock struct {
	Now   func() time.Time
	After func(time.Duration) <-chan time.Time
}

// Options tunes a Router.
type Options struct {
	// Retries is the maximum attempts per request, walking the ring
	// preference order (home, then successors, wrapping). < 1 means one
	// attempt: pure home placement, no failover.
	Retries int
	// HedgeAfter, when positive and Clock.After is set, arms hedging: a
	// request still unanswered after HedgeAfter is duplicated to the next
	// target in the preference order, and the first response wins. <= 0
	// disables hedging.
	HedgeAfter time.Duration
	// BreakerThreshold opens a target's circuit breaker after this many
	// consecutive failures (0 disables breakers).
	BreakerThreshold int
	// BreakerCooldown is how many refused requests an open breaker eats
	// before letting a half-open probe through; < 1 selects 1. Counted
	// in requests, not wall time, so breaker trips replay exactly.
	BreakerCooldown int
	// Clock supplies wall time for latency recording and hedge timers.
	Clock Clock
	// Tracer records router-side placement spans (home choice, failover,
	// hedging) for sampled requests and stamps the trace context into
	// their wire frames, so the serving target records the request's
	// server-side spans under the same trace ID. Nil disables routing
	// traces. The router has no simulated clock of its own, so its spans
	// carry the winning response's simulated elapsed time and put events
	// at simulated offset 0; wall timestamps appear only when the
	// tracer's Options.Now is set.
	Tracer *trace.Tracer
}

// Stats counts the router's recovery activity — the cross-process
// mirror of serve.Recovery.
type Stats struct {
	// Requests counts calls to Do.
	Requests int64
	// Attempts counts request submissions to targets, including hedges.
	Attempts int64
	// Retries counts failover re-submissions after a failed attempt.
	Retries int64
	// Hedges counts duplicate dispatches to a successor target.
	Hedges int64
	// HedgeWins counts hedges whose duplicate answered first.
	HedgeWins int64
	// Refusals counts attempts short-circuited by an open breaker.
	Refusals int64
}

// ErrNoTargets is returned by Do when every attempt was refused or
// failed at the transport before any target produced a response.
var ErrNoTargets = errors.New("router: no target answered")

// ErrBreakerOpen marks attempts refused by a router-side per-target
// circuit breaker (distinct from wire.CodeCircuitOpen, which is a
// target-side per-shard breaker refusing).
var ErrBreakerOpen = errors.New("router: target breaker open")

// Router places requests across a fleet of target clients.
type Router struct {
	clients  []*Client
	ring     *Ring
	breakers *faultinject.BreakerSet
	opts     Options

	// The Stats counters and the routed-request sequence (the trace ID of
	// a sampled request) are atomics, so Do takes mu only to record wall
	// latency.
	seq atomic.Uint64

	requests, attempts, retries, hedges, hedgeWins, refusals atomic.Int64

	mu   sync.Mutex
	wall *histo.Histogram // router-observed request latency (needs Clock.Now)
}

// New builds a router over connected clients. Target names (from their
// Hello frames) must be distinct; they are the ring's keys and the
// breakers' names.
func New(clients []*Client, opts Options) (*Router, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("router: need at least one target")
	}
	names := make([]string, len(clients))
	for i, c := range clients {
		names[i] = c.Name()
	}
	ring, err := NewRing(names)
	if err != nil {
		return nil, err
	}
	r := &Router{
		clients: clients,
		ring:    ring,
		opts:    opts,
		wall:    histo.New(),
	}
	if opts.BreakerThreshold > 0 {
		cooldown := opts.BreakerCooldown
		if cooldown < 1 {
			cooldown = 1
		}
		r.breakers = faultinject.NewBreakerSet(opts.BreakerThreshold, cooldown)
	}
	return r, nil
}

// Home names the target a workload hashes to.
func (r *Router) Home(workload string) string {
	return r.clients[r.ring.Home(workload)].Name()
}

// retryable reports whether an attempt outcome should fail over to the
// next target. Transport errors, target-internal errors, draining, and
// target-side open breakers are the target's problem — walk the ring.
// Overload, deadline expiry, and bad requests are properties of the
// request or the offered load; replaying them elsewhere would let the
// fleet overdrive the very admission control being measured.
func retryable(resp wire.Response, err error) bool {
	if err != nil {
		return true
	}
	switch resp.Code {
	case wire.CodeError, wire.CodeDraining, wire.CodeCircuitOpen:
		return true
	}
	return false
}

// Do routes one request: home target first, ring successors on
// retryable failure, an optional hedge against stragglers. It returns
// the winning response and the name of the target that produced it.
// The error is non-nil only when no target produced a response at all.
func (r *Router) Do(req wire.Request) (wire.Response, string, error) {
	var start time.Time
	if r.opts.Clock.Now != nil {
		start = r.opts.Clock.Now()
	}
	resp, name, err := r.route(req)
	if r.opts.Clock.Now != nil {
		r.mu.Lock()
		r.wall.Add(int64(r.opts.Clock.Now().Sub(start)))
		r.mu.Unlock()
	}
	return resp, name, err
}

func (r *Router) route(req wire.Request) (wire.Response, string, error) {
	r.requests.Add(1)
	seq := r.seq.Add(1)

	// Sampled requests get a router-rooted span tree; the trace ID (the
	// routed-request sequence number) rides the wire so the serving
	// target's spans land in the same trace.
	var root *trace.Span
	if t := r.opts.Tracer; t.ShouldSample(seq) {
		tr := t.Start(seq)
		root = tr.Root("router.request", 0, 0)
		root.SetAttr("workload", req.Workload)
		root.SetAttr("policy", req.Policy)
		root.SetAttr("home", r.Home(req.Workload))
	}

	order := r.ring.Order(make([]int, 0, 8), req.Workload)
	attempts := r.opts.Retries
	if attempts < 1 {
		attempts = 1
	}
	var (
		lastResp wire.Response
		lastName string
		lastErr  error
		answered bool
	)
	for attempt := 0; attempt < attempts; attempt++ {
		c := r.clients[order[attempt%len(order)]]
		if r.breakers != nil && !r.breakers.Get(c.Name()).Allow() {
			r.refusals.Add(1)
			root.Event("breaker_open", 0, trace.Attr{Key: "target", Value: c.Name()})
			if lastErr == nil && !answered {
				lastErr = fmt.Errorf("target %s: %w", c.Name(), ErrBreakerOpen)
			}
			continue
		}
		if attempt > 0 {
			r.retries.Add(1)
			if root != nil {
				root.Event("retry", 0,
					trace.Attr{Key: "attempt", Value: strconv.Itoa(attempt)},
					trace.Attr{Key: "target", Value: c.Name()})
			}
		}
		resp, by, err := r.attempt(c, req, order, attempt, root)
		if err == nil {
			answered = true
			lastResp, lastName, lastErr = resp, by.Name(), nil
		} else if !answered {
			lastErr = err
		}
		if r.breakers != nil {
			b := r.breakers.Get(c.Name())
			if retryable(resp, err) {
				b.Failure()
			} else {
				b.Success()
			}
		}
		if !retryable(resp, err) {
			root.End(resp.ElapsedSimNS)
			return resp, by.Name(), nil
		}
	}
	if answered {
		// Every attempt failed retryably but at least one target did
		// answer: surface that final response (e.g. the injected-fault
		// error after the ladder is exhausted).
		root.End(lastResp.ElapsedSimNS)
		return lastResp, lastName, nil
	}
	if lastErr == nil {
		lastErr = ErrNoTargets
	}
	root.End(0)
	return wire.Response{}, "", fmt.Errorf("%w: %v", ErrNoTargets, lastErr)
}

// attempt submits to one target, optionally racing a hedge on the next
// distinct target in the preference order, and returns the outcome and
// the client it came from: c, or the hedge's target when the hedge won.
// Under a sampled trace each submission gets its own child span whose ID
// becomes the wire parent, so target-side span trees hang off the exact
// attempt that caused them.
func (r *Router) attempt(c *Client, req wire.Request, order []int, attempt int, root *trace.Span) (wire.Response, *Client, error) {
	r.attempts.Add(1)
	sp := r.attemptSpan(root, c, "", attempt, &req)
	ch, err := c.start(&req, &req.ID)
	if err != nil {
		sp.End(0)
		return wire.Response{}, c, err
	}
	hedging := r.opts.HedgeAfter > 0 && r.opts.Clock.After != nil && len(order) > 1
	if !hedging {
		resp, err := r.resolve(c, sp, ch)
		return resp, c, err
	}
	select {
	case rep, ok := <-ch:
		resp, err := r.settle(c, sp, ch, rep, ok)
		return resp, c, err
	case <-r.opts.Clock.After(r.opts.HedgeAfter):
	}
	// Primary is straggling: duplicate to the next distinct target.
	hc := r.clients[order[(attempt+1)%len(order)]]
	r.hedges.Add(1)
	r.attempts.Add(1)
	root.Event("hedge", 0, trace.Attr{Key: "target", Value: hc.Name()})
	hreq := req
	hsp := r.attemptSpan(root, hc, "hedge:", attempt, &hreq)
	hch, herr := hc.start(&hreq, &hreq.ID)
	if herr != nil {
		hsp.End(0)
		resp, err := r.resolve(c, sp, ch) // hedge stillborn; wait out the primary
		return resp, c, err
	}
	select { // the loser's channel is left to the GC: its reply may still come
	case rep, ok := <-ch:
		hsp.End(0)
		resp, err := r.settle(c, sp, ch, rep, ok)
		return resp, c, err
	case rep, ok := <-hch:
		sp.End(0)
		resp, err := r.settle(hc, hsp, hch, rep, ok)
		if err == nil {
			r.hedgeWins.Add(1)
			root.Event("hedge_win", 0, trace.Attr{Key: "target", Value: hc.Name()})
		}
		return resp, hc, err
	}
}

// attemptSpan opens one submission's span, keyed prefix+attempt, and
// stamps the trace context into the outgoing frame. Outside a sampled
// trace it leaves the frame's context zeroed, builds no key, and returns
// nil.
func (r *Router) attemptSpan(root *trace.Span, c *Client, prefix string, attempt int, req *wire.Request) *trace.Span {
	if root == nil {
		return nil
	}
	sp := root.Child("router.attempt", prefix+strconv.Itoa(attempt), 0)
	sp.SetAttr("target", c.Name())
	req.Trace = sp.Ctx()
	return sp
}

// resolve awaits a submission channel, then settles its span and
// collects any returned remote spans.
func (r *Router) resolve(c *Client, sp *trace.Span, ch chan reply) (wire.Response, error) {
	rep, ok := <-ch
	return r.settle(c, sp, ch, rep, ok)
}

// settle finishes one submission: check the reply, end the attempt span
// at the target's simulated elapsed time, and file the spans the target
// sent back under its name in the span's trace, which retains them as
// long as the tracer retains the trace.
func (r *Router) settle(c *Client, sp *trace.Span, ch chan reply, rep reply, ok bool) (wire.Response, error) {
	resp, err := answer[wire.Response](c, "a request", ch, rep, ok)
	if err != nil {
		sp.End(0)
		return resp, err
	}
	sp.End(resp.ElapsedSimNS)
	sp.Adopt(c.Name(), resp.Spans)
	return resp, nil
}

// Stats returns the recovery counters. Each is read atomically; under
// concurrent traffic the set is not one instant's snapshot.
func (r *Router) Stats() Stats {
	return Stats{
		Requests:  r.requests.Load(),
		Attempts:  r.attempts.Load(),
		Retries:   r.retries.Load(),
		Hedges:    r.hedges.Load(),
		HedgeWins: r.hedgeWins.Load(),
		Refusals:  r.refusals.Load(),
	}
}

// Wall returns a clone of the router-observed request-latency
// histogram (empty unless a Clock.Now was injected).
func (r *Router) Wall() *histo.Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wall.Clone()
}

// Breakers reports per-target breaker states, sorted by target name;
// empty when breakers are disabled.
func (r *Router) Breakers() []faultinject.BreakerStatus {
	if r.breakers == nil {
		return nil
	}
	return r.breakers.Snapshot()
}

// Snapshot polls every live target once and folds the answers into one
// fleet scrape: each target's samples, relabelled target="<name>", added
// into one registry (counters and gauges sum, histograms merge exactly),
// beside the router's own series. serve.Report renders the fleet tenant
// table from it, summing each tenant across targets. Targets that fail to
// answer (e.g. killed mid-run) are skipped; their name is listed in
// missing.
func (r *Router) Snapshot() (samples []metrics.Sample, missing []string) {
	reg := metrics.New()
	for _, c := range r.clients {
		snap, err := c.Snapshot()
		if err != nil {
			missing = append(missing, c.Name())
			continue
		}
		for _, s := range metrics.Relabel(snap.Samples, "target", c.Name()) {
			reg.Add(s)
		}
	}
	st := r.Stats()
	reg.Count("conduit_router_requests_total", st.Requests)
	reg.Count("conduit_router_attempts_total", st.Attempts)
	reg.Count("conduit_router_retries_total", st.Retries)
	reg.Count("conduit_router_hedges_total", st.Hedges)
	reg.Count("conduit_router_hedge_wins_total", st.HedgeWins)
	reg.Count("conduit_router_refusals_total", st.Refusals)
	reg.MergeHist("conduit_router_wall_ns", r.Wall())
	return reg.Snapshot(), missing
}

// TargetDrain pairs one target's name with its drain acknowledgement.
type TargetDrain struct {
	Target string
	Ack    wire.DrainAck
}

// DrainAll drains every live target in client order and returns their
// acknowledgements (final pool counters). The ordering contract, which
// fleet drain reports rely on for byte-stable output: entries are
// sorted by target name, and each ack's pool rows are already
// name-sorted by the target (the wire-canonical order), so walking the
// result front to back visits (target, pool) pairs in one global
// deterministic order.
func (r *Router) DrainAll() []TargetDrain {
	var acks []TargetDrain
	for _, c := range r.clients {
		if ack, err := c.Drain(); err == nil {
			acks = append(acks, TargetDrain{Target: c.Name(), Ack: ack})
		}
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i].Target < acks[j].Target })
	return acks
}

// RemoteSpans returns the spans targets attached to sampled responses,
// keyed by target name, for the traces the router's tracer still retains
// (Options.MaxTraces bounds both). Merge with the router's own
// Tracer.Spans() for the fleet-wide flight record; cmd/conduit-router
// writes exactly that merge as a Perfetto trace with one process per
// target.
func (r *Router) RemoteSpans() map[string][]*trace.Span {
	return r.opts.Tracer.Remote()
}

// Close tears down every client connection without draining targets.
func (r *Router) Close() {
	for _, c := range r.clients {
		c.Close()
	}
}
