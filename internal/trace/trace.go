// Package trace implements deterministic request tracing for the
// conduit serving stack.
//
// Every span carries two timelines. The simulated timeline
// (SimStartNS/SimEndNS, and SimNS on events) is derived exclusively
// from simulator quantities — elapsed simulated nanoseconds, charged
// backoff penalties — so the same seed and fault schedule produce a
// byte-identical trace on every run. The wall-clock timeline
// (WallStartNS/WallEndNS) is populated only when the Tracer was armed
// with an injected clock via Options.Now; this package never calls
// time.Now itself, which keeps it clean under conduitlint's nondeterm
// analyzer with no allowlist entry. With Options.Now nil every wall
// field stays zero and is omitted from exports, so deterministic and
// operational deployments share one span model.
//
// Span identity is content-derived: a span's ID is an FNV-1a hash of
// (trace ID, parent span ID, name, sibling key). Two runs of the same
// schedule mint the same IDs no matter how goroutines interleave, and
// exports sort by (TraceID, ID), so registration order never shows
// through.
//
// Every method on Tracer, Trace, and Span is nil-receiver safe and
// turns into a no-op, so call sites thread spans unconditionally and
// the disabled path costs one nil check.
package trace

import "sync"

// Ctx is the trace identity that crosses process boundaries: it rides
// in a wire Request so a target continues the issuer's trace instead of
// starting its own.
type Ctx struct {
	// ID is the trace ID; 0 means untraced.
	ID uint64
	// Parent is the span at the issuer that dispatched the request.
	Parent uint64
	// Sampled asks the receiver to record spans for this request.
	Sampled bool
}

// Attr is one key/value annotation on a span or event.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Event is one point-in-time occurrence inside a span: a retry, an
// injected fault, a breaker trip, a pool quarantine.
type Event struct {
	Name string `json:"name"`
	// SimNS is the event's offset on the request's simulated timeline.
	SimNS int64 `json:"sim_ns"`
	// WallNS is set only when the tracer holds an injected wall clock.
	WallNS int64  `json:"wall_ns,omitempty"`
	Attrs  []Attr `json:"attrs,omitempty"`
}

// Span is one timed operation in a trace. Exported fields are written
// once while the span is open and read only after it ends (or under the
// span's lock via the mutating methods), and they marshal directly to
// the span JSONL export (internal/jsonl, one span per line). A Span also
// crosses the wire as is (internal/wire walks everything but the wall
// fields); a span decoded off the wire has no backing trace, so Child
// and Adopt do nothing on it and End and Event stamp no wall time.
type Span struct {
	TraceID uint64 `json:"trace_id"`
	ID      uint64 `json:"span_id"`
	Parent  uint64 `json:"parent_id,omitempty"`
	Name    string `json:"name"`
	// SimStartNS/SimEndNS bound the span on the request's simulated
	// timeline (nanoseconds from admission of that request).
	SimStartNS int64 `json:"sim_start_ns"`
	SimEndNS   int64 `json:"sim_end_ns"`
	// WallStartNS/WallEndNS are zero (and omitted from exports) unless
	// the tracer was armed with an injected clock.
	WallStartNS int64   `json:"wall_start_ns,omitempty"`
	WallEndNS   int64   `json:"wall_end_ns,omitempty"`
	Attrs       []Attr  `json:"attrs,omitempty"`
	Events      []Event `json:"events,omitempty"`

	tr *Trace
	mu sync.Mutex
}

// Trace is one request's span collection.
type Trace struct {
	ID uint64

	tracer *Tracer
	mu     sync.Mutex
	spans  []*Span
	remote map[string][]*Span // spans other processes recorded, by process
}

// Options configures a Tracer.
type Options struct {
	// SampleEvery samples every Nth locally admitted request (1 traces
	// everything). 0 disables local sampling: only requests whose
	// incoming wire context carries a set Sampled bit are traced, which
	// is how fleet targets defer the decision to the router.
	SampleEvery int
	// Now supplies wall-clock nanoseconds for the operational timeline.
	// It is the only wall-clock seam in this package: nil leaves every
	// wall field zero, keeping exports byte-deterministic.
	Now func() int64
	// MaxTraces bounds retained traces; once full, the oldest trace is
	// dropped. 0 means the default of 4096.
	MaxTraces int
}

// DefaultMaxTraces bounds retained traces when Options.MaxTraces is 0.
const DefaultMaxTraces = 4096

// Tracer mints and retains traces. A nil Tracer is valid and records
// nothing.
type Tracer struct {
	opts Options

	mu     sync.Mutex
	traces []*Trace
}

// New returns a Tracer with the given options.
func New(opts Options) *Tracer {
	if opts.MaxTraces <= 0 {
		opts.MaxTraces = DefaultMaxTraces
	}
	return &Tracer{opts: opts}
}

// ShouldSample reports whether the locally originated request with
// 1-based admission sequence seq should be traced.
func (t *Tracer) ShouldSample(seq uint64) bool {
	if t == nil || t.opts.SampleEvery <= 0 || seq == 0 {
		return false
	}
	return (seq-1)%uint64(t.opts.SampleEvery) == 0
}

func (t *Tracer) now() int64 {
	if t == nil || t.opts.Now == nil {
		return 0
	}
	return t.opts.Now()
}

// Start registers and returns a new trace with the given ID. The ID is
// the caller's to choose; deterministic call sites use their admission
// sequence number so two runs of one schedule mint identical IDs.
func (t *Tracer) Start(id uint64) *Trace {
	if t == nil {
		return nil
	}
	tr := &Trace{ID: id, tracer: t}
	t.mu.Lock()
	if len(t.traces) >= t.opts.MaxTraces {
		n := copy(t.traces, t.traces[1:])
		t.traces = t.traces[:n]
	}
	t.traces = append(t.traces, tr)
	t.mu.Unlock()
	return tr
}

// Traces returns the retained traces in start order.
func (t *Tracer) Traces() []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Trace, len(t.traces))
	copy(out, t.traces)
	return out
}

// Spans returns every retained span sorted by (TraceID, ID) — the
// canonical export order, independent of goroutine interleaving.
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	var out []*Span
	for _, tr := range t.Traces() {
		out = append(out, tr.Spans()...)
	}
	SortSpans(out)
	return out
}

// Root opens the trace's root span. parent is the span ID at a remote
// issuer (0 when the trace originates here); simStart is the span's
// offset on the request's simulated timeline.
func (tr *Trace) Root(name string, parent uint64, simStart int64) *Span {
	if tr == nil {
		return nil
	}
	return tr.newSpan(name, parent, "", simStart)
}

// Spans returns the trace's spans sorted by span ID.
func (tr *Trace) Spans() []*Span {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	out := make([]*Span, len(tr.spans))
	copy(out, tr.spans)
	tr.mu.Unlock()
	SortSpans(out)
	return out
}

// Remote returns the spans the retained traces adopted (Span.Adopt),
// keyed by the process that recorded them, in trace start order. They
// are retained, and dropped, with their trace.
func (t *Tracer) Remote() map[string][]*Span {
	out := make(map[string][]*Span)
	for _, tr := range t.Traces() {
		tr.mu.Lock()
		for proc, spans := range tr.remote {
			out[proc] = append(out[proc], spans...)
		}
		tr.mu.Unlock()
	}
	return out
}

// wallNow is the trace's wall clock; zero when the trace is nil (a span
// decoded off the wire has no backing trace) or the tracer unclocked.
func (tr *Trace) wallNow() int64 {
	if tr == nil {
		return 0
	}
	return tr.tracer.now()
}

func (tr *Trace) newSpan(name string, parent uint64, key string, simStart int64) *Span {
	sp := &Span{
		TraceID:     tr.ID,
		ID:          spanID(tr.ID, parent, name, key),
		Parent:      parent,
		Name:        name,
		SimStartNS:  simStart,
		SimEndNS:    simStart,
		WallStartNS: tr.tracer.now(),
		tr:          tr,
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, sp)
	tr.mu.Unlock()
	return sp
}

// Child opens a child span. key disambiguates siblings that share a
// name (a shard index, an attempt number); two runs of one schedule
// mint the same child ID regardless of interleaving.
func (sp *Span) Child(name, key string, simStart int64) *Span {
	if sp == nil || sp.tr == nil {
		return nil
	}
	return sp.tr.newSpan(name, sp.ID, key, simStart)
}

// End closes the span at the given simulated offset and stamps the wall
// end if the tracer holds a clock.
func (sp *Span) End(simEnd int64) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.SimEndNS = simEnd
	sp.WallEndNS = sp.tr.wallNow()
	sp.mu.Unlock()
}

// Event records a point-in-time occurrence at the given simulated
// offset.
func (sp *Span) Event(name string, simNS int64, attrs ...Attr) {
	if sp == nil {
		return
	}
	ev := Event{Name: name, SimNS: simNS, WallNS: sp.tr.wallNow(), Attrs: attrs}
	sp.mu.Lock()
	sp.Events = append(sp.Events, ev)
	sp.mu.Unlock()
}

// SetAttr annotates the span.
func (sp *Span) SetAttr(key, value string) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Value: value})
	sp.mu.Unlock()
}

// Adopt files spans another process recorded for this span's trace
// under that process's name (Tracer.Remote). A span with no backing
// trace adopts nothing.
func (sp *Span) Adopt(process string, spans []*Span) {
	if sp == nil || sp.tr == nil || len(spans) == 0 {
		return
	}
	tr := sp.tr
	tr.mu.Lock()
	if tr.remote == nil {
		tr.remote = make(map[string][]*Span)
	}
	tr.remote[process] = append(tr.remote[process], spans...)
	tr.mu.Unlock()
}

// Ctx returns the wire context that makes a downstream request continue
// this span's trace. The nil span yields the zero Ctx (untraced).
func (sp *Span) Ctx() Ctx {
	if sp == nil {
		return Ctx{}
	}
	return Ctx{ID: sp.TraceID, Parent: sp.ID, Sampled: true}
}

// FNV-1a, the 64-bit variant, inlined so ID minting allocates nothing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvU64(h, v uint64) uint64 {
	for shift := 56; shift >= 0; shift -= 8 {
		h = (h ^ (v >> uint(shift) & 0xff)) * fnvPrime64
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// spanID derives a span's identity from its position in the trace tree:
// the trace, the parent, the name, and a sibling key. The result is
// interleaving-independent. 0 is reserved for "no span", so a zero hash
// is nudged to 1.
func spanID(traceID, parent uint64, name, key string) uint64 {
	h := uint64(fnvOffset64)
	h = fnvU64(h, traceID)
	h = fnvU64(h, parent)
	h = fnvString(h, name)
	h = (h ^ 0) * fnvPrime64 // separator between name and key
	h = fnvString(h, key)
	if h == 0 {
		return 1
	}
	return h
}
