// Package wire defines the framed request/response protocol the
// conduit serving fleet speaks: conduit-router (the host-side
// initiator) encodes requests into command capsules, conduit-target
// (the target-side poller) dispatches them to its serve engine and
// answers with outcome capsules — the NVMe-over-Fabrics shape scaled
// down to the simulator's needs.
//
// A frame on the wire is
//
//	uint32 big-endian payload length
//	byte   protocol version
//	byte   frame type
//	body   (type-specific, varint/length-prefixed fields)
//
// Every frame the protocol defines is carried by one Go struct (Hello,
// Request, Response, SnapshotReq, Snapshot, Drain, DrainAck), and the
// codec is canonical: encoding is a pure function of the struct, so
// equal frames encode to equal bytes — which is what lets the wiretest
// harness prove a routed fleet byte-identical to in-process serving by
// comparing encodings.
//
// A frame's layout is written once, as a walk over its fields on
// internal/walk's cursor, which runs it in either direction and owns the
// canonical-form rules: shortest varints, zigzag integers, bool bytes 0
// or 1, and no count the bytes left cannot hold. Encoder and decoder are
// the same code, and so are their limits. There is one protocol version:
// both ends are built from this tree, and a payload under any other
// version byte is refused. TestFrameBytesGolden pins the bytes.
//
// Frames are framed in one place and read in one place. AppendFrame
// appends a frame, length prefix and payload, to a caller's buffer: each
// end of a connection encodes whatever it has ready into one scratch
// buffer and issues one Write. A Reader reads a connection: it buffers
// the socket, so a frame's prefix and payload usually take one read;
// reuses one payload buffer of up to 64 KiB (a larger frame gets a
// buffer of its own); interns strings of up to 64 bytes in a table of
// at most 1024 entries, so the names every frame repeats — a Result's
// counters, a request's tenant, workload and policy — are allocated once
// per connection; and shares a repeated Result, which nobody may write,
// through a table keyed by up to 128 KiB of result bytes. None of these
// bounds is configurable, and a frame never aliases the Reader's buffer.
//
// Decoding is strict and allocation-bounded: on top of the cursor's
// rules, the length prefix is capped at MaxFrame before any buffer is
// sized, lists at MaxList and strings at MaxString, and a frame must
// consume its payload exactly — truncated, oversized, or trailing-byte
// inputs are errors, never panics. FuzzWireDecode and
// FuzzWireRoundTrip (with committed corpora) enforce this on
// adversarial inputs.
//
// Response frames deliberately carry only deterministic quantities —
// simulated time, energy, recovery accounting, substrate counters — so
// they are comparable across runs. The trace and recovery fields are the
// tiers' own types, with no wire copies: a Request carries a trace.Ctx,
// and a Response a serve.Recovery and the target's []*trace.Span, as the
// codec walks them. The span walk skips every wall-clock field, so a
// span's wall timeline never crosses the wire and a decoded span's is
// zero. Wall-clock latency crosses the wire
// only inside a Snapshot, as the target's metrics scrape
// (internal/metrics samples, histograms in internal/histo's canonical
// mergeable codec); per-request wall latency is measured by whoever
// holds the clock (the router, the target's serve engine), never
// shipped.
package wire
