// Package router is the front end of the conduit wire tier: it places
// workload requests onto a fleet of conduit-target processes and lifts
// the PR8 recovery ladder across process boundaries.
//
// Placement is consistent hashing of the workload name onto a ring of
// virtual nodes: every target registers the full workload suite, the
// ring picks each workload's home target (so its device pools stay hot
// there), and the ring's distinct successors
// are the failover order. Retries walk that order; hedges race the
// home target against its first successor when the injected clock says
// the primary is straggling; per-target circuit breakers (the same
// faultinject.Breaker state machine the serving tier uses per shard)
// short-circuit targets that keep failing, counting cooldown in
// refused requests rather than wall time.
//
// A routed request takes the router's mutex only to record its wall
// latency (when a clock is injected) and to file a sampled request's
// remote spans: the Stats counters and the request sequence are
// atomics, the ring walk allocates only the order it returns, and a
// Client encodes each frame into its connection's scratch buffer and
// reads replies through one wire.Reader.
//
// Determinism discipline: this package never reads the wall clock
// directly — callers inject a Clock (cmd/conduit-router passes the real
// one, tests pass fakes or none), and with no clock the router degrades
// to pure sequential failover, which is what the wiretest equivalence
// harness runs: a zero-fault routed run is then byte-identical to
// in-process serving.
//
// The fleet view is one poll of per-target snapshots — each a target's
// metrics scrape — folded with metrics.Registry.Add: counters and gauges
// sum exactly, and wall-latency histograms merge exactly
// (internal/histo), so fleet-wide and per-tenant p50/p99/p999 are
// computed from the same counters a single process would have produced.
package router
