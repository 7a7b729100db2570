// Package target is the target half of the conduit wire tier: a TCP
// server that exposes one conduit.Server — its registered workloads,
// device pools, shard clusters, and PR8 recovery ladder — behind the
// framed protocol of internal/wire. cmd/conduit-target is its thin
// command wrapper; the wiretest harness spawns the same Main in child
// processes to prove routed serving equivalent to in-process serving.
//
// A connection begins with a Hello frame naming the target and the
// workloads it serves. Requests then dispatch through Server.Dispatch
// (the open-loop path: admission shedding and deadline expiry behave
// exactly as they do in process), and each response is written back as
// an outcome capsule when its execution completes — out of order under
// concurrency, correlated by request ID. SnapshotReq answers with the
// server's metrics scrape (conduit.Server.Metrics: per-tenant counters
// and mergeable wall-latency histograms, pool and breaker series) — the
// one accounting frame; Drain (or SIGTERM/SIGINT) stops admission,
// waits out in-flight requests, closes every pool, and acknowledges
// with the final pool counters so the router can verify no fork
// leaked.
//
// A connection is two goroutines however many of its requests are in
// flight: a reader that decodes and dispatches frames through one
// wire.Reader, and one writer. The reader serves and writes when idle:
// with no further bytes buffered and a one-slot engine idle, the engine
// serves the request on the reader (its inline callback), and with
// nothing queued and no write in progress the reader writes the response
// itself, so an idle connection's round trip wakes no other goroutine of
// the target. The writer takes the rest: the other callback (the wire ID
// rides as the request's Tag) runs on the engine worker and only queues
// a copy of the response it is lent. Whichever writes takes everything
// queued, encodes it into one scratch buffer and writes it, and only once
// all of it is written releases the responses it owed, so a Drain that
// finds nothing owed knows every answer reached the socket. The reader
// never waits for room: it writes what the socket takes at once and
// leaves the rest to the writer, so a peer that stops reading holds up
// neither the reader nor, through the slot an inline request holds, the
// engine (an in-memory connection, which has no such write, is the
// exception). A writer whose peer is gone releases what it owed
// unwritten, and exits with its connection.
//
// The conversion from a served conduit.Response to a wire.Response
// (WireResponse) and from pool stats to wire rows (WirePools) lives
// here precisely so the equivalence harness can apply the identical
// projection to an in-process server and compare encodings byte for
// byte.
package target
