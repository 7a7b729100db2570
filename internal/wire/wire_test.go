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

	"conduit/internal/histo"
	"conduit/internal/metrics"
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
			Recovery: Recovery{Attempts: 3, Retries: 2, BackoffSimNS: 400000},
			Result: &Result{Policy: "Conduit", ComputeEnergyJ: 0.1, MovementEnergyJ: 0.15,
				OverheadNS: 42, Decisions: 9, InstCount: 100, InstMeanNS: 1234,
				Counters: []Counter{{"senses", 12}, {"bbops", -3}}}},
		Response{ID: 8, Code: CodeError, Error: "conduit: boom",
			ElapsedSimNS: -1, EnergyJ: math.Inf(1),
			Recovery: Recovery{Attempts: 5, Injected: 5}},
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
			Trace: TraceCtx{ID: 0xfeedface, Parent: 0x1234, Sampled: true}},
		Response{ID: 18, Code: CodeOK, ElapsedSimNS: 555, Result: &Result{Policy: "CPU"},
			Spans: []Span{
				{TraceID: 0xfeedface, ID: 2, Parent: 1, Name: "serve.request",
					SimStartNS: 0, SimEndNS: 555,
					Attrs: []Attr{{Key: "tenant", Value: "tenant-02"}},
					Events: []SpanEvent{{Name: "retry", SimNS: 100,
						Attrs: []Attr{{Key: "attempt", Value: "1"}}}}},
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
		enc, err := Encode(f)
		if err != nil {
			t.Fatalf("frame %d (%T): encode: %v", i, f, err)
		}
		got, err := ReadFrame(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("frame %d (%T): decode: %v", i, f, err)
		}
		if !reflect.DeepEqual(got, f) {
			t.Errorf("frame %d (%T): round trip changed the frame\n got: %+v\nwant: %+v", i, f, got, f)
		}
		re, err := Encode(got)
		if err != nil {
			t.Fatalf("frame %d (%T): re-encode: %v", i, f, err)
		}
		if !bytes.Equal(enc, re) {
			t.Errorf("frame %d (%T): encoding not canonical", i, f)
		}
	}
}

// TestFrameStream: many frames written back to back decode in order —
// the shape of one router connection.
func TestFrameStream(t *testing.T) {
	frames := sampleFrames()
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d: stream decode differs", i)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("after the stream: %v, want io.EOF", err)
	}
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
			Spans: []Span{{TraceID: 1, ID: 2, SimEndNS: 5}}},
		"span time-reversed": Response{ID: 1, Code: CodeError, Error: "x",
			Spans: []Span{{TraceID: 1, ID: 2, Name: "s", SimStartNS: 10, SimEndNS: 5}}},
		"span event unnamed": Response{ID: 1, Code: CodeError, Error: "x",
			Spans: []Span{{TraceID: 1, ID: 2, Name: "s", Events: []SpanEvent{{SimNS: 1}}}}},
		"metric unnamed": Snapshot{ID: 1, Target: "t",
			Samples: []metrics.Sample{{Kind: metrics.KindCounter, Value: 1}}},
		"metric bad kind": Snapshot{ID: 1, Target: "t",
			Samples: []metrics.Sample{{Name: "m", Kind: metrics.Kind(9)}}},
	}
	for name, f := range cases {
		if _, err := Encode(f); err == nil {
			t.Errorf("%s: Encode accepted an invalid frame", name)
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

// TestReadFrameBoundsAllocation: a forged length prefix larger than
// MaxFrame is rejected before any allocation, and a prefix larger than
// the actual stream errors cleanly.
func TestReadFrameBoundsAllocation(t *testing.T) {
	var huge bytes.Buffer
	binary.Write(&huge, binary.BigEndian, uint32(MaxFrame+1))
	huge.WriteString("body never materializes")
	if _, err := ReadFrame(&huge); err == nil || !strings.Contains(err.Error(), "MaxFrame") {
		t.Errorf("oversized prefix: %v", err)
	}

	var lying bytes.Buffer
	binary.Write(&lying, binary.BigEndian, uint32(1000))
	lying.Write([]byte{Version, byte(TypeDrain)})
	if _, err := ReadFrame(&lying); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("lying prefix: %v", err)
	}

	var tiny bytes.Buffer
	binary.Write(&tiny, binary.BigEndian, uint32(1))
	tiny.WriteByte(Version)
	if _, err := ReadFrame(&tiny); err == nil {
		t.Error("sub-minimum frame accepted")
	}
}

// TestListCountCannotOverAllocate: a frame claiming a huge element
// count with a tiny body must be rejected by the remaining-bytes check,
// never allocated.
func TestListCountCannotOverAllocate(t *testing.T) {
	// A hello frame claiming MaxList workloads with no bytes behind them.
	b := []byte{Version, byte(TypeHello)}
	b = appendString(b, "t")
	b = appendInt64(b, 1)
	b = appendUvarint(b, MaxList)
	if _, err := Decode(b); err == nil {
		t.Error("hello with phantom workloads accepted")
	}
	// Beyond MaxList is rejected by the limit itself.
	b2 := []byte{Version, byte(TypeHello)}
	b2 = appendString(b2, "t")
	b2 = appendInt64(b2, 1)
	b2 = appendUvarint(b2, MaxList+1)
	if _, err := Decode(b2); err == nil || !strings.Contains(err.Error(), "MaxList") {
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
