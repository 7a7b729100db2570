package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"conduit/internal/histo"
	"conduit/internal/metrics"
	"conduit/internal/serve"
	"conduit/internal/sim"
	"conduit/internal/walk"
)

// FuzzWireDecode feeds the decoder adversarial payloads: it must never
// panic, never allocate beyond the input's real size, and — when it
// does accept a payload — the decoded frame must re-encode to exactly
// the payload's bytes: every frame has one encoding.
func FuzzWireDecode(f *testing.F) {
	for _, fr := range sampleFrames() {
		f.Add(Append(nil, fr))
	}
	f.Add([]byte{})
	f.Add([]byte{Version})
	f.Add([]byte{Version + 1, byte(TypeRequest), 0})
	f.Add([]byte{Version, 255})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// A frame type retired with version 2, a snapshot under the previous
	// version, and a counter sample whose kind byte claims a histogram,
	// so its value bytes are read as a histogram blob.
	f.Add([]byte{Version, byte(TypeDrainAck) + 1, 0})
	prev := Append(nil, sampleFrames()[8])
	prev[0] = Version - 1
	f.Add(prev)
	counter := Append(nil, Snapshot{ID: 1, Target: "t",
		Samples: []metrics.Sample{{Name: "m", Kind: metrics.KindCounter, Value: 1}}})
	counter[len(counter)-9] = byte(metrics.KindHistogram)
	f.Add(counter)
	// The firmware image's canonical-form cases, on a Hello the walker
	// encodes up to its workload count: that count written 80 00 (a
	// non-shortest 0), the shard count a varint past 64 bits, and 127
	// workloads in no bytes.
	hello := codec{Cursor: walk.Cursor{B: []byte{Version, byte(TypeHello)}, Enc: true}}
	target, shards := "t", int64(1)
	hello.str(&target)
	named := len(hello.B)
	walk.Int(&hello.Cursor, &shards)
	f.Add(append(slices.Clip(hello.B), 0x80, 0x00))
	f.Add(append(slices.Clip(hello.B[:named]), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0))
	f.Add(append(slices.Clip(hello.B), 0x7f))
	f.Fuzz(func(t *testing.T, payload []byte) {
		fr, err := Decode(payload)
		// The same payload, length-prefixed, twice on one connection: a
		// Reader must agree with Decode both times, so neither its reused
		// buffer nor its intern and result tables carry one frame into the
		// next, and the second read of a result shares the first's.
		var framed []byte
		for i := 0; i < 2; i++ {
			framed = binary.BigEndian.AppendUint32(framed, uint32(len(payload)))
			framed = append(framed, payload...)
		}
		r := NewReader(bytes.NewReader(framed))
		if err != nil {
			if _, rerr := r.ReadFrame(); rerr == nil {
				t.Fatalf("Reader accepted a payload Decode rejects (%v)\npayload %x", err, payload)
			}
			return
		}
		// Compared as bytes, not with DeepEqual: a NaN field round-trips
		// bit-exactly but is not equal to itself.
		re := Append(nil, fr)
		if !bytes.Equal(re, payload) {
			t.Fatalf("accepted frame re-encodes differently:\npayload: %x\n    got: %x", payload, re)
		}
		var reads [2]Frame
		for i := range reads {
			if reads[i], err = r.ReadFrame(); err != nil {
				t.Fatalf("read %d: Reader rejected a payload Decode accepts: %v\npayload %x", i, err, payload)
			}
		}
		for i, rf := range reads {
			if got := Append(nil, rf); !bytes.Equal(got, re) {
				t.Fatalf("read %d: Reader decoded differently from Decode\nreader: %x\ndecode: %x", i, got, re)
			}
		}
		p, ok := reads[0].(Response)
		if ok && p.Result != nil && len(payload) <= maxResultBytes && reads[1].(Response).Result != p.Result {
			t.Fatalf("a repeated result was not shared\npayload %x", payload)
		}
	})
}

// FuzzWireRoundTrip builds structured request/response frames from
// fuzzed fields and requires exact round trips through the codec —
// the complement of FuzzWireDecode: every encodable frame decodes to
// itself.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint64(1), "tenant-00", "aes", "Conduit", int64(0), uint8(0), int64(1000), 0.5, "")
	f.Add(uint64(0), "", "w", "p", int64(1e15), uint8(1), int64(-7), math.Inf(-1), "some failure")
	f.Add(^uint64(0), "t\x00n", "w🚀", "p", int64(1), uint8(4), int64(1<<60), math.NaN(), "serve: engine is draining")
	f.Fuzz(func(t *testing.T, id uint64, tenant, workload, policy string,
		deadline int64, code uint8, elapsed int64, energy float64, errText string) {
		if len(tenant) > MaxString || len(workload) > MaxString ||
			len(policy) > MaxString || len(errText) > MaxString {
			return
		}
		if deadline < 0 {
			deadline = -deadline
		}
		if deadline < 0 { // MinInt64 negates to itself
			return
		}

		req := Request{ID: id, Tenant: tenant, Workload: workload, Policy: policy,
			DeadlineNS: deadline, Shards: []uint32{uint32(id), uint32(id >> 32)}}
		checkRoundTrip(t, req)

		resp := Response{ID: id, Code: Code(code % 7), ElapsedSimNS: elapsed,
			EnergyJ: energy, Recovery: serve.Recovery{Attempts: elapsed % 97, BackoffSim: sim.Time(deadline)}}
		if resp.Code == CodeOK {
			resp.Result = &Result{Policy: policy, ComputeEnergyJ: energy,
				OverheadNS: elapsed, InstCount: int64(id % 1024),
				Counters: []Counter{{Name: workload, Value: elapsed}}}
		} else {
			if errText == "" {
				errText = "x"
			}
			resp.Error = errText
		}
		checkRoundTrip(t, resp)

		wall := histo.New()
		for i := int64(0); i < int64(id%64); i++ {
			wall.Add(elapsed&math.MaxInt64 + i)
		}
		snap := Snapshot{ID: id, Target: tenant, Samples: []metrics.Sample{
			{Name: "conduit_serve_requests_total", Labels: []metrics.Label{{Key: "tenant", Value: tenant}},
				Kind: metrics.KindCounter, Value: float64(elapsed)},
			{Name: "conduit_pool_idle", Labels: []metrics.Label{{Key: "pool", Value: workload}},
				Kind: metrics.KindGauge, Value: -math.Abs(energy)},
			{Name: "conduit_serve_latency_wall_ns", Kind: metrics.KindHistogram, Hist: wall},
		}}
		checkRoundTrip(t, snap)
		checkRoundTrip(t, DrainAck{ID: id, Pools: []PoolRow{{Name: workload, Idle: elapsed % 13, Closed: code%2 == 0}}})
	})
}

// TestDecodeCorpusIsCurrent: every committed FuzzWireDecode seed carries
// the current protocol version, so the corpus reaches the frame walks
// instead of being refused at byte 0. A version bump re-stamps the seeds.
func TestDecodeCorpusIsCurrent(t *testing.T) {
	paths, err := filepath.Glob("testdata/fuzz/FuzzWireDecode/*")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed FuzzWireDecode seeds (%v)", err)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		if !ok || !strings.HasSuffix(lit, ")") {
			t.Fatalf("%s: not a one-[]byte corpus file", path)
		}
		payload, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(payload) == 0 || payload[0] != Version {
			t.Errorf("%s: seed is not stamped with version %d (%q)", path, Version, payload)
		}
	}
}

// checkRoundTrip: f survives encoding and decoding, and the pointer entry
// points agree with the value ones — AppendFrame of &f emits f's bytes,
// and ReadInto decodes them into a caller's zero frame, returned as is,
// exactly as Decode decodes them.
func checkRoundTrip[F Frame](t *testing.T, f F) {
	t.Helper()
	enc, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatalf("%T: encode: %v", f, err)
	}
	got, err := NewReader(bytes.NewReader(enc)).ReadFrame()
	if err != nil {
		t.Fatalf("%T: decode: %v", f, err)
	}
	if !equalFrame(got, f) {
		t.Fatalf("%T: round trip changed frame\n got: %+v\nwant: %+v", f, got, f)
	}
	if byPtr, err := AppendFrame(nil, any(&f).(Frame)); err != nil || !bytes.Equal(byPtr, enc) {
		t.Fatalf("%T: AppendFrame of a pointer emitted %x (%v), of the value %x", f, byPtr, err, enc)
	}
	var into F
	in, err := NewReader(bytes.NewReader(enc)).ReadInto(any(&into).(Frame))
	if err != nil || in != any(&into) {
		t.Fatalf("%T: ReadInto returned %T (%v), want the frame it was handed", f, in, err)
	}
	if want, err := Decode(enc[4:]); err != nil || !equalFrame(into, want) {
		t.Fatalf("%T: ReadInto decoded %+v, Decode %+v (%v)", f, into, want, err)
	}
}

// equalFrame is DeepEqual with NaN-tolerant float comparison: NaN
// round-trips bit-exactly but is not DeepEqual to itself.
func equalFrame(a, b Frame) bool {
	ea := Append(nil, a)
	eb := Append(nil, b)
	return bytes.Equal(ea, eb)
}
