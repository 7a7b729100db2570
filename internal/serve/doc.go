// Package serve is the request-serving engine that turns the one-shot
// experiment harness into a multi-tenant service: it multiplexes many
// concurrent offload requests over a bounded pool of executing workers,
// coalesces identical in-flight requests onto one backend execution, keeps
// per-tenant latency/energy accounts, and drains gracefully on shutdown.
//
// Admission is two-mode. Do is closed-loop: it blocks for queue space and
// then for the response, so offered load self-throttles to service
// capacity. Submit is open-loop: it never blocks, and lends the finished
// response to a callback on the worker that finished it (a caller that
// wants a channel sends a copy on one). Dispatch is Submit for a caller
// that can serve the request itself: on an idle one-slot engine — nothing
// executing, nothing queued — it serves on the caller's goroutine and
// lends the response to a second callback there before it returns. With
// more slots it always queues: the caller could not read its next request
// while it served this one, and that request would have run beside it.
// A full admission queue sheds the request with ErrOverloaded, and a
// request whose Deadline expires while queued is dropped at dispatch with ErrDeadlineExceeded
// before the backend (and thus any pooled device fork) is touched. Shed
// and expired requests are accounted per tenant, and SLO attainment is
// measured against offered load, so an overloaded run reads as exactly
// what it is. Wall-clock latency is tracked in bounded, exactly-mergeable
// log-linear histograms (internal/histo) rather than full-sample
// reservoirs, because an open-loop source generates samples without
// bound.
//
// The package is deliberately backend-agnostic — an Engine drives any
// Runner that can execute one (workload, policy) cell — so the same
// machinery serves the simulated Conduit SSD today and could front a
// different device model tomorrow. The root conduit package provides the
// typed facade (conduit.Server) that wires an Engine to pooled
// Deployment forks; cmd/conduit-serve adds a closed-loop load generator
// on top.
//
// Determinism contract: the simulator is a deterministic function of
// (workload, policy), so coalescing concurrent cells is observationally
// identical to running each request on its own fork — responses are
// byte-identical to a serial loop. The engine's own accounting (wall-clock
// queueing and service latency) is operational telemetry and naturally
// varies run to run.
package serve
