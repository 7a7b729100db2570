package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"conduit/internal/histo"
	"conduit/internal/metrics"
	"conduit/internal/serve"
	"conduit/internal/trace"
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

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// appendInt64 zigzag-encodes v so small negatives stay small on the
// wire and every int64 round-trips exactly.
func appendInt64(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v)<<1^uint64(v>>63))
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

var (
	errShort    = errors.New("wire: truncated frame")
	errOverlong = errors.New("wire: overlong varint")
)

// codec is a cursor that walks a frame's fields in wire order, in one
// of two directions: encoding (enc) appends each field to b, decoding
// consumes each field from the front of b into the pointer it is
// handed. A frame's layout is therefore written once, as one walk, and
// the limits and consistency checks inside the walk hold for both
// directions.
//
// An encoder only reads through those pointers: a frame's slices are
// shared with the caller, who may be encoding it elsewhere at once.
//
// The first violation sticks in err. A decoder that failed drops the
// rest of its payload, so every later read comes up short and leaves
// its field zero: walks need no error checks of their own. An encoder
// that failed keeps appending — Append has no error to return, and a
// complete payload the peer rejects beats a silently truncated one.
type codec struct {
	b   []byte
	enc bool
	err error
	// intern, when non-nil, is a Reader's string table: a decoded short
	// string that is already in it costs no allocation.
	intern map[string]string
}

func (c *codec) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	if !c.enc {
		c.b = nil
	}
}

func (c *codec) byte(v *byte) {
	if c.enc {
		c.b = append(c.b, *v)
		return
	}
	if len(c.b) < 1 {
		c.fail(errShort)
		return
	}
	*v, c.b = c.b[0], c.b[1:]
}

func (c *codec) bool(v *bool) {
	var b byte
	if *v {
		b = 1
	}
	c.byte(&b)
	if b > 1 {
		c.fail(fmt.Errorf("wire: bool byte %d", b))
	}
	if !c.enc {
		*v = b == 1
	}
}

func (c *codec) u64(v *uint64) {
	if c.enc {
		c.b = binary.BigEndian.AppendUint64(c.b, *v)
		return
	}
	if len(c.b) < 8 {
		c.fail(errShort)
		return
	}
	*v, c.b = binary.BigEndian.Uint64(c.b), c.b[8:]
}

func (c *codec) f64(v *float64) {
	u := math.Float64bits(*v)
	c.u64(&u)
	if !c.enc {
		*v = math.Float64frombits(u)
	}
}

func (c *codec) uvarint(v *uint64) {
	if c.enc {
		c.b = appendUvarint(c.b, *v)
		return
	}
	u, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.fail(errShort)
		return
	}
	// Encoders write the shortest form; a trailing zero byte would
	// decode to the same value from different bytes.
	if n > 1 && c.b[n-1] == 0 {
		c.fail(errOverlong)
		return
	}
	*v, c.b = u, c.b[n:]
}

func (c *codec) i64(v *int64) {
	if c.enc {
		c.b = appendInt64(c.b, *v)
		return
	}
	var u uint64
	c.uvarint(&u)
	*v = int64(u>>1) ^ -int64(u&1)
}

func (c *codec) str(v *string) {
	if c.enc {
		if len(*v) > MaxString {
			c.fail(fmt.Errorf("wire: %d-byte string exceeds MaxString %d", len(*v), MaxString))
		}
		c.b = appendString(c.b, *v)
		return
	}
	var n uint64
	c.uvarint(&n)
	switch {
	case n > MaxString:
		c.fail(fmt.Errorf("wire: %d-byte string exceeds MaxString %d", n, MaxString))
	case n > uint64(len(c.b)):
		c.fail(errShort)
	default:
		*v, c.b = c.string(c.b[:n]), c.b[n:]
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
		c.fail(fmt.Errorf("wire: %s with empty name", what))
	}
}

// hist walks a length-prefixed internal/histo snapshot. A nil
// histogram encodes as an empty one, so it decodes non-nil.
func (c *codec) hist(h **histo.Histogram, what string) {
	if c.enc {
		v := *h
		if v == nil {
			v = histo.New()
		}
		blob := v.MarshalBinary()
		c.b = appendUvarint(c.b, uint64(len(blob)))
		c.b = append(c.b, blob...)
		return
	}
	var n uint64
	c.uvarint(&n)
	if n > uint64(len(c.b)) {
		c.fail(errShort)
		return
	}
	v, err := histo.Decode(c.b[:n])
	if err != nil {
		c.fail(fmt.Errorf("wire: %s histogram: %w", what, err))
		return
	}
	*h, c.b = v, c.b[n:]
}

// list walks a repeated field's count, held to MaxList, and returns the
// length the caller's loop walks (a func walk would make c escape). A
// decoder also holds the count to the bytes left — an element takes at
// least min of them — before it sizes the slice, so allocation is bounded
// by the input's real size; an empty list decodes as nil.
func list[T any](c *codec, s *[]T, min uint64) int {
	n := uint64(len(*s))
	c.uvarint(&n)
	if n > MaxList {
		c.fail(fmt.Errorf("wire: %d-element list exceeds MaxList %d", n, MaxList))
	} else if !c.enc && n*min > uint64(len(c.b)) {
		c.fail(errShort)
	}
	if !c.enc && c.err == nil && n > 0 {
		*s = make([]T, n)
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
	c.i64(&h.Shards)
	if h.Shards < 0 {
		c.fail(fmt.Errorf("wire: negative shard count %d", h.Shards))
	}
	for i := range list(c, &h.Workloads, 1) {
		c.str(&h.Workloads[i])
	}
}

func (c *codec) request(q *Request) {
	c.u64(&q.ID)
	c.str(&q.Tenant)
	c.str(&q.Workload)
	c.str(&q.Policy)
	c.i64(&q.DeadlineNS)
	if q.DeadlineNS < 0 {
		c.fail(fmt.Errorf("wire: negative deadline %d", q.DeadlineNS))
	}
	for i := range list(c, &q.Shards, 1) {
		c.shard(&q.Shards[i])
	}
	if len(q.Shards) > MaxShardSet {
		c.fail(fmt.Errorf("wire: %d-shard set exceeds MaxShardSet %d", len(q.Shards), MaxShardSet))
	}
	c.u64(&q.Trace.ID)
	c.u64(&q.Trace.Parent)
	c.bool(&q.Trace.Sampled)
}

func (c *codec) shard(s *uint32) {
	v := uint64(*s)
	c.uvarint(&v)
	if v > math.MaxUint32 {
		c.fail(fmt.Errorf("wire: shard index %d overflows uint32", v))
	} else if !c.enc {
		*s = uint32(v)
	}
}

func (c *codec) response(p *Response) {
	c.u64(&p.ID)
	c.byte((*byte)(&p.Code))
	if p.Code > CodeBadRequest {
		c.fail(fmt.Errorf("wire: unknown response code %d", p.Code))
	}
	c.str(&p.Error)
	if (p.Code == CodeOK) != (p.Error == "") {
		c.fail(fmt.Errorf("wire: code %d with error %q", p.Code, p.Error))
	}
	c.i64(&p.ElapsedSimNS)
	c.f64(&p.EnergyJ)
	c.recovery(&p.Recovery)
	hasResult := p.Result != nil
	c.bool(&hasResult)
	if hasResult != (p.Code == CodeOK) {
		c.fail(fmt.Errorf("wire: code %d with result=%v", p.Code, hasResult))
	}
	if hasResult {
		if p.Result == nil {
			p.Result = &Result{}
		}
		c.result(p.Result)
	}
	for i := range list(c, &p.Spans, 29) {
		c.span(&p.Spans[i])
	}
}

func (c *codec) recovery(r *serve.Recovery) {
	c.i64(&r.Attempts)
	c.i64(&r.Retries)
	c.i64(&r.Hedges)
	c.i64(&r.HedgeWins)
	c.i64(&r.Fallbacks)
	c.i64(&r.Injected)
	c.i64((*int64)(&r.BackoffSim))
}

func (c *codec) result(r *Result) {
	c.str(&r.Policy)
	c.f64(&r.ComputeEnergyJ)
	c.f64(&r.MovementEnergyJ)
	c.i64(&r.OverheadNS)
	c.i64(&r.Decisions)
	c.i64(&r.InstCount)
	c.i64(&r.InstMeanNS)
	for i := range list(c, &r.Counters, 2) {
		c.counter(&r.Counters[i])
	}
}

func (c *codec) counter(n *Counter) {
	c.str(&n.Name)
	c.i64(&n.Value)
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
	if !c.enc {
		*sp = new(trace.Span)
	} else if *sp == nil {
		c.fail(errors.New("wire: nil span"))
		return
	}
	s := *sp
	c.u64(&s.TraceID)
	c.u64(&s.ID)
	c.u64(&s.Parent)
	c.name(&s.Name, "span")
	c.i64(&s.SimStartNS)
	c.i64(&s.SimEndNS)
	if s.SimEndNS < s.SimStartNS {
		c.fail(fmt.Errorf("wire: span %q ends at %d before start %d", s.Name, s.SimEndNS, s.SimStartNS))
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
	c.i64(&e.SimNS)
	for i := range list(c, &e.Attrs, 2) {
		c.attr(&e.Attrs[i])
	}
}

func (c *codec) snapshot(s *Snapshot) {
	c.u64(&s.ID)
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
	c.byte((*byte)(&m.Kind))
	if m.Kind > metrics.KindHistogram {
		c.fail(fmt.Errorf("wire: unknown metric kind %d", m.Kind))
	}
	if m.Kind == metrics.KindHistogram {
		c.hist(&m.Hist, "metric")
	} else {
		c.f64(&m.Value)
	}
}

func (c *codec) pool(p *PoolRow) {
	c.str(&p.Name)
	c.i64(&p.Preforked)
	c.i64(&p.Hits)
	c.i64(&p.Misses)
	c.i64(&p.Quarantined)
	c.i64(&p.Repairs)
	c.i64(&p.Idle)
	c.bool(&p.Closed)
}

func (c *codec) drainAck(a *DrainAck) {
	c.u64(&a.ID)
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
		c.u64(&fr.ID)
		return TypeSnapshotReq
	case *Snapshot:
		c.snapshot(fr)
		return TypeSnapshot
	case *Drain:
		c.u64(&fr.ID)
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
	c := codec{b: append(dst, Version, 0), enc: true}
	t := c.body(f)
	c.b[len(dst)+1] = byte(t)
	return c.b, c.err
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
// intern table and resets everything else, so one serves a whole stream.
func (c *codec) decode(payload []byte, into Frame) (Frame, error) {
	if len(payload) > MaxFrame {
		return nil, fmt.Errorf("wire: %d-byte payload exceeds MaxFrame %d", len(payload), MaxFrame)
	}
	c.b, c.enc, c.err = payload, false, nil
	var ver, t byte
	c.byte(&ver)
	if ver != Version {
		c.fail(fmt.Errorf("wire: protocol version %d, want %d", ver, Version))
	}
	c.byte(&t)
	if c.err != nil {
		return nil, c.err
	}
	if int(t) >= len(decoders) || decoders[t] == nil {
		return nil, fmt.Errorf("wire: unknown frame type %d", t)
	}
	f := decoders[t](c, into)
	if c.err != nil {
		return nil, c.err
	}
	if len(c.b) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after %T frame", len(c.b), f)
	}
	return f, nil
}
