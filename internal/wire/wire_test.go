package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"conduit/internal/histo"
	"conduit/internal/metrics"
	"conduit/internal/serve"
	"conduit/internal/trace"
	"conduit/internal/walk"
)

// sampleFrames returns one representative of every frame type,
// populated with edge-flavored values (empty and non-empty lists,
// negative and large numbers, non-finite floats).
func sampleFrames() []Frame {
	wall := histo.New()
	for i := int64(0); i < 1000; i++ {
		wall.Add(i * i * 1000)
	}
	return []Frame{
		Hello{Target: "target-0", Shards: 4, Workloads: []string{"aes", "jacobi-1d", "llama2"}},
		Hello{Target: "t", Shards: 0},
		Request{ID: 1, Tenant: "tenant-00", Workload: "aes", Policy: "Conduit"},
		Request{ID: math.MaxUint64, Tenant: "", Workload: "w", Policy: "p",
			DeadlineNS: int64(1e12), Shards: []uint32{0, 3, math.MaxUint32}},
		Response{ID: 7, Code: CodeOK, ElapsedSimNS: 123456789, EnergyJ: 0.25,
			Recovery: serve.Recovery{Attempts: 3, Retries: 2, BackoffSim: 400000},
			Result: &Result{Policy: "Conduit", ComputeEnergyJ: 0.1, MovementEnergyJ: 0.15,
				OverheadNS: 42, Decisions: 9, InstCount: 100, InstMeanNS: 1234,
				Counters: []Counter{{"senses", 12}, {"bbops", -3}}}},
		Response{ID: 8, Code: CodeError, Error: "conduit: boom",
			ElapsedSimNS: -1, EnergyJ: math.Inf(1),
			Recovery: serve.Recovery{Attempts: 5, Injected: 5}},
		Response{ID: 9, Code: CodeDraining, Error: "serve: engine is draining"},
		SnapshotReq{ID: 11},
		Snapshot{ID: 12, Target: "target-1", Samples: []metrics.Sample{
			{Name: "conduit_serve_requests_total",
				Labels: []metrics.Label{{Key: "tenant", Value: "tenant-00"}},
				Kind:   metrics.KindCounter, Value: 12},
			{Name: "conduit_pool_idle", Kind: metrics.KindGauge, Value: -2.5},
			{Name: "conduit_serve_latency_wall_ns", Kind: metrics.KindHistogram, Hist: wall},
		}},
		Snapshot{ID: 13, Target: "empty"},
		Drain{ID: 14},
		DrainAck{ID: 15, Pools: []PoolRow{{Name: "aes", Idle: 0, Closed: true}}},
		DrainAck{ID: 16},
		Request{ID: 17, Tenant: "tenant-02", Workload: "aes", Policy: "Conduit",
			Trace: trace.Ctx{ID: 0xfeedface, Parent: 0x1234, Sampled: true}},
		Response{ID: 18, Code: CodeOK, ElapsedSimNS: 555, Result: &Result{Policy: "CPU"},
			Spans: []*trace.Span{
				{TraceID: 0xfeedface, ID: 2, Parent: 1, Name: "serve.request",
					SimStartNS: 0, SimEndNS: 555,
					Attrs: []trace.Attr{{Key: "tenant", Value: "tenant-02"}},
					Events: []trace.Event{{Name: "retry", SimNS: 100,
						Attrs: []trace.Attr{{Key: "attempt", Value: "1"}}}}},
				{TraceID: 0xfeedface, ID: 3, Parent: 2, Name: "serve.run",
					SimStartNS: -10, SimEndNS: 545},
			}},
	}
}

// TestFrameRoundTrip: decode(encode(f)) == f for every frame type, and
// the encoding is canonical (re-encoding the decoded frame reproduces
// the bytes).
func TestFrameRoundTrip(t *testing.T) {
	for i, f := range sampleFrames() {
		enc, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatalf("frame %d (%T): encode: %v", i, f, err)
		}
		got, err := NewReader(bytes.NewReader(enc)).ReadFrame()
		if err != nil {
			t.Fatalf("frame %d (%T): decode: %v", i, f, err)
		}
		if !reflect.DeepEqual(got, f) {
			t.Errorf("frame %d (%T): round trip changed the frame\n got: %+v\nwant: %+v", i, f, got, f)
		}
		re, err := AppendFrame(nil, got)
		if err != nil {
			t.Fatalf("frame %d (%T): re-encode: %v", i, f, err)
		}
		if !bytes.Equal(enc, re) {
			t.Errorf("frame %d (%T): encoding not canonical", i, f)
		}
	}
}

// TestWireRoundTrip: a Response carries a wall-clocked tracer's spans as
// exactly the bytes of the same spans with their wall fields zeroed, so
// the wall clock never crosses; decoding keeps every deterministic field
// and leaves the wall fields zero; and a decoded span, which has no
// backing trace, takes End and Event as safe no-ops on the wall timeline.
func TestWireRoundTrip(t *testing.T) {
	var tick int64
	tracer := trace.New(trace.Options{SampleEvery: 1, Now: func() int64 { tick++; return tick }})
	root := tracer.Start(9).Root("serve.request", 0, 0)
	root.SetAttr("tenant", "tenant-00")
	for _, key := range []string{"0", "1"} {
		sh := root.Child("cluster.shard", key, 10)
		sh.Event("retry", 20, trace.Attr{Key: "attempt", Value: key})
		sh.End(300)
	}
	root.Event("fault_injected", 5)
	root.End(400)
	spans := tracer.Spans()

	var zeroed []*trace.Span
	for _, sp := range spans {
		if sp.WallStartNS == 0 || sp.WallEndNS == 0 {
			t.Fatalf("span %q carries no wall timeline to drop", sp.Name)
		}
		events := make([]trace.Event, len(sp.Events))
		for i, ev := range sp.Events {
			if ev.WallNS == 0 {
				t.Fatalf("event %q carries no wall time to drop", ev.Name)
			}
			events[i] = trace.Event{Name: ev.Name, SimNS: ev.SimNS, Attrs: ev.Attrs}
		}
		if len(events) == 0 {
			events = nil
		}
		zeroed = append(zeroed, &trace.Span{TraceID: sp.TraceID, ID: sp.ID, Parent: sp.Parent,
			Name: sp.Name, SimStartNS: sp.SimStartNS, SimEndNS: sp.SimEndNS, Attrs: sp.Attrs, Events: events})
	}
	resp := func(spans []*trace.Span) Response {
		return Response{ID: 1, Code: CodeError, Error: "x", Recovery: serve.Recovery{Attempts: 2, BackoffSim: 7}, Spans: spans}
	}
	enc, err := AppendFrame(nil, resp(spans))
	if err != nil {
		t.Fatal(err)
	}
	want, err := AppendFrame(nil, resp(zeroed))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, want) {
		t.Fatal("a span's wall fields changed its bytes on the wire")
	}

	f, err := Decode(enc[4:])
	if err != nil {
		t.Fatal(err)
	}
	back := f.(Response)
	if !reflect.DeepEqual(back, resp(zeroed)) {
		t.Fatalf("round trip changed a deterministic field or kept a wall one\n got: %+v\nwant: %+v", back, resp(zeroed))
	}
	sp := back.Spans[0]
	sp.End(123)
	sp.Event("late", 0)
	if sp.WallEndNS != 0 || sp.Events[len(sp.Events)-1].WallNS != 0 {
		t.Error("a decoded span took a wall clock")
	}
}

// stream is every sample frame, AppendFrame'd back to back into one
// buffer — the bytes of one connection.
func stream(t *testing.T) []byte {
	t.Helper()
	var b []byte
	for _, f := range sampleFrames() {
		var err error
		if b, err = AppendFrame(b, f); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestFrameStream: frames written back to back decode in order through
// one Reader however the transport cuts them — all of them in one read,
// one byte per read, or half of what was asked for each time.
func TestFrameStream(t *testing.T) {
	b := stream(t)
	for name, src := range map[string]io.Reader{
		"one read": bytes.NewReader(b),
		"one byte": iotest.OneByteReader(bytes.NewReader(b)),
		"halves":   iotest.HalfReader(bytes.NewReader(b)),
	} {
		r := NewReader(src)
		for i, want := range sampleFrames() {
			got, err := r.ReadFrame()
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: frame %d: stream decode differs", name, i)
			}
		}
		if _, err := r.ReadFrame(); err != io.EOF {
			t.Errorf("%s: after the stream: %v, want io.EOF", name, err)
		}
	}
}

// TestReaderFramesOutliveTheBuffer: a decoded frame shares no memory with
// the Reader's reused payload buffer, so reading the next frame — which
// overwrites that buffer — leaves it unchanged. That holds for interned
// names, for strings too long to intern, and across a frame too large
// for the reused buffer.
func TestReaderFramesOutliveTheBuffer(t *testing.T) {
	long := strings.Repeat("e", maxInternLen+1)
	huge := strings.Repeat("h", MaxString)
	first := []Frame{
		Request{ID: 1, Tenant: "tenant-00", Workload: "aes", Policy: "Conduit"},
		Response{ID: 2, Code: CodeError, Error: long},
		Response{ID: 3, Code: CodeOK, Result: &Result{Policy: "CPU",
			Counters: []Counter{{Name: "senses", Value: 1}, {Name: long, Value: 2}}}},
	}
	var bigSamples []metrics.Sample
	for i := 0; len(bigSamples)*MaxString <= maxRetained; i++ {
		bigSamples = append(bigSamples, metrics.Sample{Name: fmt.Sprint("m", i),
			Labels: []metrics.Label{{Key: "k", Value: huge}}, Kind: metrics.KindGauge, Value: 1})
	}
	big := Snapshot{ID: 9, Target: "big", Samples: bigSamples}
	overwrite := Request{ID: 4, Tenant: strings.Repeat("x", 9), Workload: "zzz", Policy: strings.Repeat("y", maxInternLen+1)}
	for _, f := range first {
		for _, next := range []Frame{overwrite, big} {
			b, err := AppendFrame(nil, f)
			if err != nil {
				t.Fatal(err)
			}
			want := append([]byte(nil), b[4:]...)
			if b, err = AppendFrame(b, next); err != nil {
				t.Fatal(err)
			}
			if b, err = AppendFrame(b, overwrite); err != nil {
				t.Fatal(err)
			}
			r := NewReader(bytes.NewReader(b))
			got, err := r.ReadFrame()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if _, err := r.ReadFrame(); err != nil {
					t.Fatal(err)
				}
			}
			if again := Append(nil, got); !bytes.Equal(again, want) {
				t.Errorf("%T changed after the Reader read two more frames\n got: %x\nwant: %x", f, again, want)
			}
		}
	}
}

// TestReaderInternTableIsBounded: the intern table stops growing at
// maxInterned entries, every later string still decodes to its own
// value, and once a connection's names are interned a request frame
// costs one allocation (its Frame interface value).
func TestReaderInternTableIsBounded(t *testing.T) {
	var b []byte
	const extra = 100
	for i := 0; i < maxInterned+extra; i++ {
		var err error
		b, err = AppendFrame(b, Request{ID: uint64(i), Tenant: fmt.Sprintf("t%05d", i), Workload: "w", Policy: "p"})
		if err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(bytes.NewReader(b))
	for i := 0; i < maxInterned+extra; i++ {
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if q := f.(Request); q.Tenant != fmt.Sprintf("t%05d", i) || q.Workload != "w" || q.Policy != "p" {
			t.Fatalf("frame %d decoded as %+v", i, q)
		}
	}
	if len(r.dec.intern) != maxInterned {
		t.Errorf("intern table holds %d strings, cap %d", len(r.dec.intern), maxInterned)
	}

	one, err := AppendFrame(nil, Request{ID: 1, Tenant: "tenant-03", Workload: "jacobi-1d", Policy: "DM-Offloading"})
	if err != nil {
		t.Fatal(err)
	}
	r = NewReader(&repeat{b: one})
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := r.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("a repeated request frame costs %v allocations, want 1", allocs)
	}
}

// TestReaderResultTableIsBounded: a Reader's result table keys at most
// maxResultBytes of results. A result sent again before the table filled
// decodes to the *Result it decoded to then; one sent after decodes to
// its own copy each time; every frame equals what Decode makes of it.
func TestReaderResultTableIsBounded(t *testing.T) {
	result := func(i int) *Result {
		r := &Result{Policy: "Conduit", ComputeEnergyJ: 1.5, OverheadNS: 1<<30 + int64(i), InstCount: 9}
		for j := 0; j < 21; j++ {
			r.Counters = append(r.Counters, Counter{fmt.Sprintf("layer%02d.events", j), int64(i * j)})
		}
		return r
	}
	one := len(Append(nil, Response{Code: CodeOK, Result: result(0)}))
	n := maxResultBytes/one + 50 // results past the bound, each at most one bytes
	var b []byte
	for i := range n + 3 { // the n results, then the first again and the last twice
		i = [...]int{i, 0, n - 1, n - 1}[max(i-n+1, 0)]
		b, _ = AppendFrame(b, Response{ID: uint64(i), Code: CodeOK, Result: result(i)})
	}
	r := NewReader(bytes.NewReader(b))
	var got []*Result
	for range n + 3 {
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		p := f.(Response)
		if want, err := Decode(Append(nil, p)); err != nil || !reflect.DeepEqual(want, f) {
			t.Fatalf("frame %d: read %+v, Decode %+v (%v)", p.ID, f, want, err)
		}
		if !reflect.DeepEqual(p.Result, result(int(p.ID))) {
			t.Fatalf("frame %d: result %+v", p.ID, p.Result)
		}
		got = append(got, p.Result)
	}
	if used := r.dec.resultBytes; used > maxResultBytes || len(r.dec.results) >= n {
		t.Errorf("result table keys %d results in %d bytes, bound %d bytes", len(r.dec.results), used, maxResultBytes)
	}
	if got[n] != got[0] {
		t.Error("a result sent again before the table filled was not shared")
	}
	if got[n+1] == got[n-1] || got[n+2] == got[n+1] {
		t.Error("a result sent after the table filled was shared")
	}
}

// TestCodecAllocBudget: encoding a Request or a Response, by value or by
// pointer, or a Snapshot of eight 1 000-sample histograms, allocates
// nothing but the buffer it appends to; read into one reused frame, a
// Request of names the connection has seen costs nothing, and so does a
// Response whose result the connection has seen (the Reader's result
// table hands back the Result it decoded then).
func TestCodecAllocBudget(t *testing.T) {
	req := Request{ID: 3, Tenant: "tenant-03", Workload: "jacobi-1d", Policy: "Conduit", Trace: trace.Ctx{ID: 7}}
	resp := Response{ID: 3, Code: CodeOK, ElapsedSimNS: 1234, Recovery: serve.Recovery{Attempts: 1},
		Result: &Result{Policy: "Conduit", InstCount: 9, Counters: []Counter{{"flash.senses", 4}, {"dram.bbops", 2}}}}
	snap := Snapshot{ID: 4, Target: "t0"}
	for i := 0; i < 8; i++ {
		h := histo.New()
		for v := int64(0); v < 1000; v++ {
			h.Add(v * v * int64(i+1))
		}
		snap.Samples = append(snap.Samples, metrics.Sample{Name: fmt.Sprintf("latency_%d", i), Kind: metrics.KindHistogram, Hist: h})
	}
	buf := make([]byte, 0, 64<<10)
	for name, enc := range map[string]func(){
		"Snapshot":  func() { buf, _ = AppendFrame(buf[:0], &snap) },
		"Request":   func() { buf, _ = AppendFrame(buf[:0], req) },
		"*Request":  func() { buf, _ = AppendFrame(buf[:0], &req) },
		"Response":  func() { buf, _ = AppendFrame(buf[:0], resp) },
		"*Response": func() { buf = Append(buf[:0], &resp) },
	} {
		if n := testing.AllocsPerRun(100, enc); n != 0 {
			t.Errorf("encoding a %s costs %v allocations, want 0", name, n)
		}
	}
	reader := func(f Frame) *Reader {
		b, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		return NewReader(&repeat{b: b})
	}
	rq, rp := reader(req), reader(resp)
	var intoReq Request
	var intoResp Response
	if n := testing.AllocsPerRun(100, func() {
		if _, err := rq.ReadInto(&intoReq); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("reading a Request into the caller's frame costs %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := rp.ReadInto(&intoResp); err != nil || len(intoResp.Result.Counters) != 2 {
			t.Fatalf("read %+v, %v", intoResp, err)
		}
	}); n != 0 {
		t.Errorf("reading a repeated Response into the caller's frame costs %v allocations, want 0", n)
	}
}

// repeat is an endless stream of one frame.
type repeat struct {
	b   []byte
	off int
}

func (r *repeat) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

// TestDecodeRejectsMalformed: truncated payloads, bad versions, bad
// types, limit violations, and inconsistent frames all error. There is
// one protocol version: an otherwise valid frame under any other
// version byte is refused.
func TestDecodeRejectsMalformed(t *testing.T) {
	valid := Append(nil, sampleFrames()[0])
	for i := 0; i < len(valid); i++ {
		if _, err := Decode(valid[:i]); err == nil {
			t.Fatalf("prefix of length %d accepted", i)
		}
	}

	longStr := strings.Repeat("x", MaxString+1)
	cases := map[string]Frame{
		"oversized string":   Request{ID: 1, Tenant: longStr, Workload: "w", Policy: "p"},
		"oversized shardset": Request{ID: 1, Workload: "w", Policy: "p", Shards: make([]uint32, MaxShardSet+1)},
		"negative deadline":  Request{ID: 1, Workload: "w", Policy: "p", DeadlineNS: -1},
		"ok with error":      Response{ID: 1, Code: CodeOK, Error: "x", Result: &Result{}},
		"error with result":  Response{ID: 1, Code: CodeError, Error: "x", Result: &Result{}},
		"error without msg":  Response{ID: 1, Code: CodeError},
		"span unnamed": Response{ID: 1, Code: CodeError, Error: "x",
			Spans: []*trace.Span{{TraceID: 1, ID: 2, SimEndNS: 5}}},
		"span time-reversed": Response{ID: 1, Code: CodeError, Error: "x",
			Spans: []*trace.Span{{TraceID: 1, ID: 2, Name: "s", SimStartNS: 10, SimEndNS: 5}}},
		"span nil": Response{ID: 1, Code: CodeError, Error: "x", Spans: []*trace.Span{nil}},
		"span event unnamed": Response{ID: 1, Code: CodeError, Error: "x",
			Spans: []*trace.Span{{TraceID: 1, ID: 2, Name: "s", Events: []trace.Event{{SimNS: 1}}}}},
		"metric unnamed": Snapshot{ID: 1, Target: "t",
			Samples: []metrics.Sample{{Kind: metrics.KindCounter, Value: 1}}},
		"metric bad kind": Snapshot{ID: 1, Target: "t",
			Samples: []metrics.Sample{{Name: "m", Kind: metrics.Kind(9)}}},
	}
	for name, f := range cases {
		if _, err := AppendFrame(nil, f); err == nil {
			t.Errorf("%s: AppendFrame accepted an invalid frame", name)
		}
	}

	reversioned := func(ver byte) []byte {
		b := Append(nil, Request{ID: 1, Workload: "w", Policy: "p"})
		b[0] = ver
		return b
	}
	raw := map[string][]byte{
		"empty":         {},
		"version only":  {Version},
		"bad version":   {Version + 1, byte(TypeRequest)},
		"version-1":     reversioned(Version - 1),
		"version+1":     reversioned(Version + 1),
		"version 0":     reversioned(0),
		"unknown type":  {Version, 200},
		"trailing junk": append(Append(nil, Drain{ID: 1}), 9, 9),
		// Hello{Target: "t", Shards: 1} with its target length written
		// 81 00, an overlong 1.
		"overlong varint": {Version, byte(TypeHello), 0x81, 0x00, 't', 0x02, 0x00},
		"bool byte 2": func() []byte {
			// A response whose has-result flag is 2.
			b := Append(nil, Response{ID: 1, Code: CodeDraining, Error: "d"})
			b[len(b)-1] = 2
			return b
		}(),
	}
	for name, b := range raw {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadFrameBoundsAllocation: a Reader rejects a forged length prefix
// larger than MaxFrame before it sizes any buffer, and a prefix larger
// than the actual stream errors cleanly.
func TestReadFrameBoundsAllocation(t *testing.T) {
	var huge bytes.Buffer
	binary.Write(&huge, binary.BigEndian, uint32(MaxFrame+1))
	huge.WriteString("body never materializes")
	r := NewReader(&huge)
	if _, err := r.ReadFrame(); err == nil || !strings.Contains(err.Error(), "MaxFrame") {
		t.Errorf("oversized prefix: %v", err)
	}
	if r.buf != nil {
		t.Errorf("an oversized prefix sized a %d-byte buffer", cap(r.buf))
	}

	var lying bytes.Buffer
	binary.Write(&lying, binary.BigEndian, uint32(1000))
	lying.Write([]byte{Version, byte(TypeDrain)})
	if _, err := NewReader(&lying).ReadFrame(); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("lying prefix: %v", err)
	}

	var tiny bytes.Buffer
	binary.Write(&tiny, binary.BigEndian, uint32(1))
	tiny.WriteByte(Version)
	if _, err := NewReader(&tiny).ReadFrame(); err == nil {
		t.Error("sub-minimum frame accepted")
	}
}

// TestListCountCannotOverAllocate: a frame claiming a huge element
// count with a tiny body must be rejected by the remaining-bytes check,
// never allocated.
func TestListCountCannotOverAllocate(t *testing.T) {
	hello := func(workloads uint64) []byte {
		c := codec{Cursor: walk.Cursor{B: []byte{Version, byte(TypeHello)}, Enc: true}}
		target, shards := "t", int64(1)
		c.str(&target)
		walk.Int(&c.Cursor, &shards)
		c.Uvarint(&workloads)
		return c.B
	}
	// A hello frame claiming MaxList workloads with no bytes behind them.
	if _, err := Decode(hello(MaxList)); err == nil {
		t.Error("hello with phantom workloads accepted")
	}
	// Beyond MaxList is rejected by the limit itself.
	if _, err := Decode(hello(MaxList + 1)); err == nil || !strings.Contains(err.Error(), "MaxList") {
		t.Errorf("over-MaxList count: %v", err)
	}
}

// TestFrameBytesGolden pins the on-wire bytes of every sample frame
// (testdata/frames.golden: one line of hex per sampleFrames() entry,
// Append(nil, f)). The round-trip tests accept any codec that is its
// own inverse, so only committed bytes catch two fields swapped on
// both sides. A deliberate layout change bumps Version and rewrites
// the file, so the byte diff is reviewed rather than inferred.
func TestFrameBytesGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/frames.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	frames := sampleFrames()
	if len(frames) != len(want) {
		t.Fatalf("%d sample frames, golden has %d lines", len(frames), len(want))
	}
	for i, f := range frames {
		if got := fmt.Sprintf("%x", Append(nil, f)); got != want[i] {
			t.Errorf("frame %d (%T): on-wire bytes changed\n got: %s\nwant: %s", i, f, got, want[i])
		}
	}
}
