package wire

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"conduit/internal/histo"
	"conduit/internal/metrics"
	"conduit/internal/serve"
	"conduit/internal/trace"
	"conduit/internal/walk"
)

// Protocol limits, enforced by encoder and decoder alike. A decoder
// checks MaxFrame, MaxString and MaxList (and that a list's count fits
// the bytes actually present) before it sizes the buffer they govern,
// so what a hostile peer can make a conduit process allocate is bounded
// by the bytes it really sent.
const (
	// Version is the one protocol revision: encoders emit it and
	// decoders refuse anything else. Both ends of a connection are built
	// from the same tree, so there is no compatibility window; bump it
	// with any change to a frame's bytes, so a stale binary is refused
	// by name instead of misread.
	Version = 3
	// MaxFrame bounds one frame's payload (version byte, type byte, and
	// body) on the wire.
	MaxFrame = 1 << 20
	// MaxString bounds every string field.
	MaxString = 1 << 12
	// MaxShardSet bounds a request's shard-set.
	MaxShardSet = 64
	// MaxList bounds every repeated field (workloads, metric samples,
	// pool rows, counters).
	MaxList = 1 << 12
)

// Type tags a frame's kind on the wire.
type Type uint8

// The frame types.
const (
	TypeHello       Type = 1 // target -> router, once per connection
	TypeRequest     Type = 2 // router -> target
	TypeResponse    Type = 3 // target -> router
	TypeSnapshotReq Type = 4 // router -> target
	TypeSnapshot    Type = 5 // target -> router
	TypeDrain       Type = 6 // router -> target: drain and shut down
	TypeDrainAck    Type = 7 // target -> router, after the drain finished
)

// Frame is one protocol message: one of the seven wire structs, or a
// pointer to one, which encoders and Reader.ReadInto walk in place.
type Frame interface{ frameType() Type }

func (Hello) frameType() Type       { return TypeHello }
func (Request) frameType() Type     { return TypeRequest }
func (Response) frameType() Type    { return TypeResponse }
func (SnapshotReq) frameType() Type { return TypeSnapshotReq }
func (Snapshot) frameType() Type    { return TypeSnapshot }
func (Drain) frameType() Type       { return TypeDrain }
func (DrainAck) frameType() Type    { return TypeDrainAck }

// Hello is the target's greeting, sent once when a connection opens: it
// names the target, its shard fan-out, and the workloads it serves, so
// the router can validate placement before routing a single request.
type Hello struct {
	Target    string
	Shards    int64
	Workloads []string
}

// Request is one offload command capsule.
type Request struct {
	// ID correlates the response; the issuer chooses it and the target
	// echoes it. IDs are per-connection.
	ID       uint64
	Tenant   string
	Workload string
	Policy   string
	// DeadlineNS is the request's SLO budget in nanoseconds from
	// submission at the target; 0 means none.
	DeadlineNS int64
	// Shards restricts the request to a subset of the target's shards.
	// Empty means every shard the target owns — the only set current
	// targets accept; the field exists so a future router can split one
	// request across targets that each own part of a dataset.
	Shards []uint32
	// Trace is the issuer's trace context. The field is optional in
	// meaning (the zero value is "untraced") but canonical on the wire:
	// every Request carries it.
	Trace trace.Ctx
}

// Code classifies a response, mirroring the serving tier's typed errors
// so the router can tell retryable conditions from verdicts.
type Code uint8

// The response codes.
const (
	CodeOK          Code = 0
	CodeError       Code = 1 // backend failure (recovery exhausted, organic error)
	CodeOverloaded  Code = 2 // shed at admission, never executed
	CodeDeadline    Code = 3 // deadline expired in the admission queue
	CodeDraining    Code = 4 // target is draining
	CodeCircuitOpen Code = 5 // a breaker refused it and no fallback is set
	CodeBadRequest  Code = 6 // unknown workload/policy or malformed frame
)

// Counter is one named substrate activity counter of a run result.
type Counter struct {
	Name  string
	Value int64
}

// Result is the deterministic summary of a successful run: the
// simulated-cost fields of a conduit RunResult, the offload-decision
// and instruction-latency fingerprints, and the substrate counters in
// first-use order. It deliberately omits the executed device and the
// raw latency reservoir — the wire carries verdicts, not simulator
// state.
type Result struct {
	Policy          string
	ComputeEnergyJ  float64
	MovementEnergyJ float64
	OverheadNS      int64
	Decisions       int64
	InstCount       int64
	InstMeanNS      int64
	Counters        []Counter
}

// Response is one outcome capsule. Every field is deterministic given
// the request stream and the target's seed/trace: wall-clock latency is
// deliberately absent, which is what makes two independent runs of the
// same schedule byte-comparable frame by frame.
type Response struct {
	ID   uint64
	Code Code
	// Error is the backend error text; empty iff Code is CodeOK.
	Error string
	// ElapsedSimNS is the simulated execution time, including charged
	// recovery backoff.
	ElapsedSimNS int64
	// EnergyJ is the total consumed energy in joules.
	EnergyJ  float64
	Recovery serve.Recovery
	// Result is present iff Code is CodeOK.
	Result *Result
	// Spans are the target-side trace spans for a sampled request, in
	// (TraceID, ID) order, empty otherwise. Like every other Response
	// field they carry only deterministic simulated quantities: the span
	// walk skips the wall-clock fields, so a decoded span's are zero.
	Spans []*trace.Span
}

// SnapshotReq asks the target for its accounting snapshot.
type SnapshotReq struct{ ID uint64 }

// PoolRow is one device pool's counters at a target ("workload" or
// "workload#shard").
type PoolRow struct {
	Name        string
	Preforked   int64
	Hits        int64
	Misses      int64
	Quarantined int64
	Repairs     int64
	Idle        int64
	Closed      bool
}

// Snapshot is the target's accounting state: its metrics registry
// scrape — per-tenant serving counters and latency histograms, pool and
// breaker series — in canonical (name, labels) order. The router folds
// the snapshots of a fleet into one registry with metrics.Registry.Add:
// counters and gauges sum, histograms merge exactly.
type Snapshot struct {
	ID      uint64
	Target  string
	Samples []metrics.Sample
}

// Drain asks the target to drain gracefully: stop admitting, finish
// in-flight requests, close every pool, then answer with DrainAck and
// shut down.
type Drain struct{ ID uint64 }

// DrainAck reports the completed drain, with the final pool counters —
// the cross-process version of the "no leaked forks after Drain" pin.
type DrainAck struct {
	ID    uint64
	Pools []PoolRow
}

// ---- codec ----

// codec walks a frame's fields in wire order on the shared cursor
// (internal/walk), in either direction, so a frame's layout is written
// once and the limits and consistency checks inside the walk hold for
// both directions. An encoder only reads through the pointers it is
// handed: a frame's slices are shared with the caller, who may be
// encoding it elsewhere at once. A failed encoder keeps appending —
// Append has no error to return, and a complete payload the peer rejects
// beats a silently truncated one.
type codec struct {
	walk.Cursor
	// intern, when non-nil, is a Reader's string table: a decoded short
	// string that is already in it costs no allocation.
	intern map[string]string
	// results, when non-nil, is a Reader's result table (decodedResult).
	results     map[string]*Result
	resultBytes int
	scratch     Result
}

func (c *codec) str(v *string) {
	n := uint64(len(*v))
	if c.Uvarint(&n); n > MaxString {
		c.Fail(fmt.Errorf("%d-byte string exceeds MaxString %d", n, MaxString))
	}
	if c.Enc {
		c.B = append(c.B, *v...)
	} else if b := c.Take(int(n)); c.Err == nil {
		*v = c.string(b)
	}
}

// string copies b out of the payload, through the intern table when
// there is one and b is short enough to be a name. The table stops
// growing at maxInterned entries; later strings are copied as usual.
func (c *codec) string(b []byte) string {
	if c.intern == nil || len(b) > maxInternLen {
		return string(b)
	}
	if s, ok := c.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(c.intern) < maxInterned {
		c.intern[s] = s
	}
	return s
}

// name walks a string that must not be empty.
func (c *codec) name(v *string, what string) {
	c.str(v)
	if *v == "" {
		c.Fail(fmt.Errorf("%s with empty name", what))
	}
}

// emptyHist is what a nil histogram encodes as; encoding only reads it.
var emptyHist histo.Histogram

// hist walks a length-prefixed internal/histo snapshot. A nil
// histogram encodes as an empty one, so it decodes non-nil. An encoder
// appends the snapshot in place behind a one-byte length, then widens the
// length to the varint of the size it turned out to have.
func (c *codec) hist(h **histo.Histogram, what string) {
	if c.Enc {
		start := len(c.B)
		c.B = cmp.Or(*h, &emptyHist).AppendBinary(append(c.B, 0))
		var n [binary.MaxVarintLen64]byte
		k := binary.PutUvarint(n[:], uint64(len(c.B)-start-1))
		c.B[start] = n[0]
		c.B = slices.Insert(c.B, start+1, n[1:k]...)
		return
	}
	var n uint64
	c.Uvarint(&n)
	if blob := c.Take(int(n)); c.Err == nil {
		if v, err := histo.Decode(blob); err != nil {
			c.Fail(fmt.Errorf("%s histogram: %w", what, err))
		} else {
			*h = v
		}
	}
}

// list walks a repeated field's count, held to MaxList and, decoding, to
// the bytes left (an element takes at least min of them) before it sizes
// the slice, and returns the length the caller's loop walks (a func walk
// would make c escape). A decoder reuses *s's array; an empty list decodes as nil.
func list[T any](c *codec, s *[]T, min int) int {
	n := uint64(len(*s))
	if c.Uvarint(&n); n > MaxList {
		c.Fail(fmt.Errorf("%d-element list exceeds MaxList %d", n, MaxList))
	} else if c.Count(int(n), min) && n > 0 {
		*s = slices.Grow((*s)[:0], int(n))[:n]
	}
	return len(*s)
}

// ---- frame layouts ----
//
// One walk per frame and per nested record: the order of the calls is
// the order of the fields on the wire. To add a field, add its line to
// the walk that owns it, bump Version, and give wire_test.go's
// sampleFrames a frame that sets it; TestFrameBytesGolden then shows
// the byte change for review.

func (c *codec) hello(h *Hello) {
	c.str(&h.Target)
	walk.Int(&c.Cursor, &h.Shards)
	if h.Shards < 0 {
		c.Fail(fmt.Errorf("negative shard count %d", h.Shards))
	}
	for i := range list(c, &h.Workloads, 1) {
		c.str(&h.Workloads[i])
	}
}

func (c *codec) request(q *Request) {
	c.U64(&q.ID)
	c.str(&q.Tenant)
	c.str(&q.Workload)
	c.str(&q.Policy)
	walk.Int(&c.Cursor, &q.DeadlineNS)
	if q.DeadlineNS < 0 {
		c.Fail(fmt.Errorf("negative deadline %d", q.DeadlineNS))
	}
	for i := range list(c, &q.Shards, 1) {
		c.shard(&q.Shards[i])
	}
	if len(q.Shards) > MaxShardSet {
		c.Fail(fmt.Errorf("%d-shard set exceeds MaxShardSet %d", len(q.Shards), MaxShardSet))
	}
	c.U64(&q.Trace.ID)
	c.U64(&q.Trace.Parent)
	c.Bool(&q.Trace.Sampled)
}

func (c *codec) shard(s *uint32) {
	v := uint64(*s)
	c.Uvarint(&v)
	if v > math.MaxUint32 {
		c.Fail(fmt.Errorf("shard index %d overflows uint32", v))
	} else if !c.Enc {
		*s = uint32(v)
	}
}

func (c *codec) response(p *Response) {
	c.U64(&p.ID)
	c.Byte((*byte)(&p.Code))
	if p.Code > CodeBadRequest {
		c.Fail(fmt.Errorf("unknown response code %d", p.Code))
	}
	c.str(&p.Error)
	if (p.Code == CodeOK) != (p.Error == "") {
		c.Fail(fmt.Errorf("code %d with error %q", p.Code, p.Error))
	}
	walk.Int(&c.Cursor, &p.ElapsedSimNS)
	c.F64(&p.EnergyJ)
	c.recovery(&p.Recovery)
	hasResult := p.Result != nil
	c.Bool(&hasResult)
	if hasResult != (p.Code == CodeOK) {
		c.Fail(fmt.Errorf("code %d with result=%v", p.Code, hasResult))
	}
	if hasResult && c.Enc {
		c.result(p.Result)
	} else if hasResult {
		p.Result = c.decodedResult()
	}
	for i := range list(c, &p.Spans, 29) {
		c.span(&p.Spans[i])
	}
}

func (c *codec) recovery(r *serve.Recovery) {
	walk.Int(&c.Cursor, &r.Attempts)
	walk.Int(&c.Cursor, &r.Retries)
	walk.Int(&c.Cursor, &r.Hedges)
	walk.Int(&c.Cursor, &r.HedgeWins)
	walk.Int(&c.Cursor, &r.Fallbacks)
	walk.Int(&c.Cursor, &r.Injected)
	walk.Int(&c.Cursor, &r.BackoffSim)
}

func (c *codec) result(r *Result) {
	c.str(&r.Policy)
	c.F64(&r.ComputeEnergyJ)
	c.F64(&r.MovementEnergyJ)
	walk.Int(&c.Cursor, &r.OverheadNS)
	walk.Int(&c.Cursor, &r.Decisions)
	walk.Int(&c.Cursor, &r.InstCount)
	walk.Int(&c.Cursor, &r.InstMeanNS)
	for i := range list(c, &r.Counters, 2) {
		c.counter(&r.Counters[i])
	}
}

// decodedResult decodes a result: Decode's afresh, a Reader's into the
// scratch, which never leaves the codec, looked up by its bytes in the
// table. A repeat is the *Result decoded then, a new one a copy kept
// while the table keys ≤ maxResultBytes. Equal bytes decode to equal
// values, so sharing is exact; nobody may write a shared Result.
func (c *codec) decodedResult() *Result {
	if c.results == nil {
		r := new(Result)
		c.result(r)
		return r
	}
	raw := c.B
	c.scratch = Result{Counters: c.scratch.Counters[:0]}
	if c.result(&c.scratch); c.Err != nil {
		return nil
	}
	raw = raw[:len(raw)-len(c.B)]
	if r := c.results[string(raw)]; r != nil {
		return r
	}
	r := c.scratch
	r.Counters = slices.Clip(append([]Counter(nil), r.Counters...))
	if c.resultBytes+len(raw) <= maxResultBytes {
		c.results[string(raw)] = &r
		c.resultBytes += len(raw)
	}
	return &r
}

func (c *codec) counter(n *Counter) {
	c.str(&n.Name)
	walk.Int(&c.Cursor, &n.Value)
}

func (c *codec) attr(a *trace.Attr) {
	c.str(&a.Key)
	c.str(&a.Value)
}

func (c *codec) label(l *metrics.Label) {
	c.str(&l.Key)
	c.str(&l.Value)
}

// span walks a span's identity, simulated timeline and annotations. It
// never visits WallStartNS, WallEndNS or an event's WallNS: the wall
// clock stays with the process that read it. A decoder allocates the
// span, which then has no backing trace.
func (c *codec) span(sp **trace.Span) {
	if !c.Enc {
		*sp = new(trace.Span)
	} else if *sp == nil {
		c.Fail(errors.New("nil span"))
		return
	}
	s := *sp
	c.U64(&s.TraceID)
	c.U64(&s.ID)
	c.U64(&s.Parent)
	c.name(&s.Name, "span")
	walk.Int(&c.Cursor, &s.SimStartNS)
	walk.Int(&c.Cursor, &s.SimEndNS)
	if s.SimEndNS < s.SimStartNS {
		c.Fail(fmt.Errorf("span %q ends at %d before start %d", s.Name, s.SimEndNS, s.SimStartNS))
	}
	for i := range list(c, &s.Attrs, 2) {
		c.attr(&s.Attrs[i])
	}
	for i := range list(c, &s.Events, 3) {
		c.event(&s.Events[i])
	}
}

func (c *codec) event(e *trace.Event) {
	c.name(&e.Name, "span event")
	walk.Int(&c.Cursor, &e.SimNS)
	for i := range list(c, &e.Attrs, 2) {
		c.attr(&e.Attrs[i])
	}
}

func (c *codec) snapshot(s *Snapshot) {
	c.U64(&s.ID)
	c.str(&s.Target)
	for i := range list(c, &s.Samples, 3) {
		c.sample(&s.Samples[i])
	}
}

// sample walks one series: counters and gauges carry their value,
// histograms their internal/histo snapshot (and no value byte).
func (c *codec) sample(m *metrics.Sample) {
	c.name(&m.Name, "metric sample")
	for i := range list(c, &m.Labels, 2) {
		c.label(&m.Labels[i])
	}
	c.Byte((*byte)(&m.Kind))
	if m.Kind > metrics.KindHistogram {
		c.Fail(fmt.Errorf("unknown metric kind %d", m.Kind))
	}
	if m.Kind == metrics.KindHistogram {
		c.hist(&m.Hist, "metric")
	} else {
		c.F64(&m.Value)
	}
}

func (c *codec) pool(p *PoolRow) {
	c.str(&p.Name)
	walk.Int(&c.Cursor, &p.Preforked)
	walk.Int(&c.Cursor, &p.Hits)
	walk.Int(&c.Cursor, &p.Misses)
	walk.Int(&c.Cursor, &p.Quarantined)
	walk.Int(&c.Cursor, &p.Repairs)
	walk.Int(&c.Cursor, &p.Idle)
	c.Bool(&p.Closed)
}

func (c *codec) drainAck(a *DrainAck) {
	c.U64(&a.ID)
	for i := range list(c, &a.Pools, 8) {
		c.pool(&a.Pools[i])
	}
}

// body walks the body of the frame f points to and returns its type. An
// encoder may be handed a frame by value: it walks the switch's copy, so
// no encoder moves a frame to the heap.
func (c *codec) body(f any) Type {
	switch fr := f.(type) {
	case *Hello:
		c.hello(fr)
		return TypeHello
	case *Request:
		c.request(fr)
		return TypeRequest
	case *Response:
		c.response(fr)
		return TypeResponse
	case *SnapshotReq:
		c.U64(&fr.ID)
		return TypeSnapshotReq
	case *Snapshot:
		c.snapshot(fr)
		return TypeSnapshot
	case *Drain:
		c.U64(&fr.ID)
		return TypeDrain
	case *DrainAck:
		c.drainAck(fr)
		return TypeDrainAck
	case Hello:
		return c.body(&fr)
	case Request:
		return c.body(&fr)
	case Response:
		return c.body(&fr)
	case SnapshotReq:
		return c.body(&fr)
	case Snapshot:
		return c.body(&fr)
	case Drain:
		return c.body(&fr)
	case DrainAck:
		return c.body(&fr)
	}
	panic("wire: encoding a nil frame")
}

// decodeAs decodes a body of frame type F: into *into, zeroed first, when
// into is an *F, returning into, and otherwise into a new F it returns.
func decodeAs[F Frame](c *codec, into Frame) Frame {
	var f F
	if p, ok := any(into).(*F); ok {
		*p = f
		c.body(p)
		return into
	}
	c.body(&f)
	return f
}

// decoders maps a type byte to the decoder of its frame.
var decoders = [...]func(*codec, Frame) Frame{
	TypeHello:       decodeAs[Hello],
	TypeRequest:     decodeAs[Request],
	TypeResponse:    decodeAs[Response],
	TypeSnapshotReq: decodeAs[SnapshotReq],
	TypeSnapshot:    decodeAs[Snapshot],
	TypeDrain:       decodeAs[Drain],
	TypeDrainAck:    decodeAs[DrainAck],
}

// ---- entry points ----

// encode appends f's payload, stamping the type the walk returns: asking
// f for it would make every frame escape.
func encode(dst []byte, f Frame) ([]byte, error) {
	c := codec{Cursor: walk.Cursor{B: append(dst, Version, 0), Enc: true}}
	t := c.body(f)
	c.B[len(dst)+1] = byte(t)
	return c.B, c.Err
}

// Append encodes f (version, type, body — everything but the length
// prefix) onto dst and returns the extended slice. It does not report
// limit violations; AppendFrame does.
func Append(dst []byte, f Frame) []byte {
	dst, _ = encode(dst, f)
	return dst
}

// AppendFrame appends f to dst as a complete wire frame — the 4-byte
// big-endian length prefix, then the payload Append produces — and
// returns the extended slice. It is the one place a frame is framed:
// both ends encode every outgoing frame into a per-connection scratch
// buffer with it and hand the batch to one Write. It errors, leaving
// dst as it was, if the frame exceeds MaxFrame or any field violates a
// protocol limit or consistency rule — the walk that writes a frame is
// the walk that reads it, so every encodable frame is decodable.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	start := len(dst)
	out, err := encode(append(dst, 0, 0, 0, 0), f)
	if err != nil {
		return dst, fmt.Errorf("wire: frame violates protocol limits: %w", err)
	}
	n := len(out) - start - 4
	if n > MaxFrame {
		return dst, fmt.Errorf("wire: %d-byte frame exceeds MaxFrame %d", n, MaxFrame)
	}
	binary.BigEndian.PutUint32(out[start:], uint32(n))
	return out, nil
}

// Decode parses one frame payload (version byte, type byte, body). It
// enforces the protocol version, the per-field limits, and exact
// payload consumption; malformed input yields an error, never a panic
// or an attacker-sized allocation. The frame it returns shares no
// memory with payload.
func Decode(payload []byte) (Frame, error) { return new(codec).decode(payload, nil) }

// decode is Decode, or ReadInto given into, on a cursor that keeps its
// intern and result tables and resets the rest, so one serves a stream.
func (c *codec) decode(payload []byte, into Frame) (Frame, error) {
	if len(payload) > MaxFrame {
		return nil, fmt.Errorf("wire: %d-byte payload exceeds MaxFrame %d", len(payload), MaxFrame)
	}
	c.Cursor = walk.Cursor{B: payload}
	var ver, t byte
	if c.Byte(&ver); ver != Version {
		c.Fail(fmt.Errorf("protocol version %d, want %d", ver, Version))
	}
	if c.Byte(&t); c.Err == nil && (int(t) >= len(decoders) || decoders[t] == nil) {
		c.Fail(fmt.Errorf("unknown frame type %d", t))
	}
	if c.Err != nil {
		return nil, fmt.Errorf("wire: %w", c.Err)
	}
	f := decoders[t](c, into)
	if c.Err == nil && len(c.B) != 0 {
		c.Fail(fmt.Errorf("%d trailing bytes after %T frame", len(c.B), f))
	}
	if c.Err != nil {
		return nil, fmt.Errorf("wire: %w", c.Err)
	}
	return f, nil
}
