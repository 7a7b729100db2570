package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"conduit/internal/jsonl"
)

// driveTrace records one representative request trace: a root, two
// keyed children, events, and attrs. order permutes which child is
// opened first so tests can prove interleaving-independence.
func driveTrace(t *Tracer, id uint64, swap bool) {
	tr := t.Start(id)
	root := tr.Root("serve.request", 0, 0)
	root.SetAttr("tenant", "tenant-00")
	open := func(key string) {
		c := root.Child("cluster.shard", key, 0)
		c.Event("retry", 100, Attr{Key: "attempt", Value: "1"})
		c.End(500)
	}
	if swap {
		open("1")
		open("0")
	} else {
		open("0")
		open("1")
	}
	root.Event("coalesced", 0)
	root.End(1000)
}

func exportJSONL(t *testing.T, tr *Tracer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := jsonl.Write(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeterministicExport: the same logical schedule produces a
// byte-identical JSONL export regardless of the order siblings were
// opened in — span IDs are content-derived and exports sort.
func TestDeterministicExport(t *testing.T) {
	a := New(Options{SampleEvery: 1})
	b := New(Options{SampleEvery: 1})
	for id := uint64(1); id <= 3; id++ {
		driveTrace(a, id, false)
		driveTrace(b, id, id%2 == 0) // permuted sibling order
	}
	got, want := exportJSONL(t, b), exportJSONL(t, a)
	if !bytes.Equal(got, want) {
		t.Errorf("exports differ under interleaving:\n%s\nvs:\n%s", got, want)
	}
	if len(got) == 0 {
		t.Fatal("empty export")
	}
}

// TestWallFieldsOmittedWithoutClock: with Options.Now nil no wall field
// reaches the export; with a clock they do.
func TestWallFieldsOmittedWithoutClock(t *testing.T) {
	cold := New(Options{SampleEvery: 1})
	driveTrace(cold, 1, false)
	if !bytes.Contains(exportJSONL(t, cold), []byte("sim_start_ns")) {
		t.Error("export lost the simulated timeline")
	}
	if bytes.Contains(exportJSONL(t, cold), []byte("wall_")) {
		t.Error("unclocked tracer leaked wall fields into the export")
	}
	if cold.WallClocked() {
		t.Error("unclocked tracer claims WallClocked")
	}

	var tick int64
	warm := New(Options{SampleEvery: 1, Now: func() int64 { tick += 10; return tick }})
	driveTrace(warm, 1, false)
	if !bytes.Contains(exportJSONL(t, warm), []byte("wall_start_ns")) {
		t.Error("clocked tracer recorded no wall fields")
	}
	if !warm.WallClocked() {
		t.Error("clocked tracer denies WallClocked")
	}
}

// TestSpanIDProperties: IDs never collide across distinct (parent,
// name, key) positions in a modest tree, never mint zero, and are
// stable across runs.
func TestSpanIDProperties(t *testing.T) {
	seen := make(map[uint64]string)
	for _, trID := range []uint64{1, 2, 99} {
		for _, name := range []string{"serve.request", "cluster.shard", "device.run"} {
			for _, key := range []string{"", "0", "1", "hedge:0"} {
				id := spanID(trID, 7, name, key)
				if id == 0 {
					t.Fatalf("zero span ID for %d/%s/%s", trID, name, key)
				}
				pos := name + "/" + key
				if prev, ok := seen[id]; ok && !strings.HasSuffix(prev, pos) {
					t.Errorf("ID collision: %s vs %s", prev, pos)
				}
				seen[id] = pos
				if again := spanID(trID, 7, name, key); again != id {
					t.Errorf("unstable ID for %s", pos)
				}
			}
		}
	}
	// The key is hashed after a separator, so (name="a", key="b")
	// differs from (name="ab", key="").
	if spanID(1, 0, "a", "b") == spanID(1, 0, "ab", "") {
		t.Error("name/key boundary not separated in the hash")
	}
}

// TestSampling: SampleEvery selects the 1st, N+1th, ... admitted
// request; 0 defers entirely to the wire bit.
func TestSampling(t *testing.T) {
	tr := New(Options{SampleEvery: 3})
	var sampled []uint64
	for seq := uint64(1); seq <= 7; seq++ {
		if tr.ShouldSample(seq) {
			sampled = append(sampled, seq)
		}
	}
	if want := []uint64{1, 4, 7}; len(sampled) != len(want) || sampled[0] != 1 || sampled[1] != 4 || sampled[2] != 7 {
		t.Errorf("SampleEvery=3 sampled %v, want %v", sampled, want)
	}
	off := New(Options{})
	for seq := uint64(1); seq <= 100; seq++ {
		if off.ShouldSample(seq) {
			t.Fatalf("SampleEvery=0 sampled seq %d", seq)
		}
	}
}

// TestNilSafety: every method on nil receivers is a no-op, so call
// sites thread spans unconditionally.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.ShouldSample(1) || tr.WallClocked() || tr.Start(1) != nil || tr.Spans() != nil {
		t.Error("nil Tracer did something")
	}
	var trace *Trace
	if trace.Root("x", 0, 0) != nil || trace.Spans() != nil {
		t.Error("nil Trace did something")
	}
	var sp *Span
	sp.End(1)
	sp.Event("e", 0)
	sp.SetAttr("k", "v")
	if sp.Child("c", "", 0) != nil || sp.WallClocked() || sp.Ctx() != (Ctx{}) {
		t.Error("nil Span did something")
	}
}

// TestMaxTracesRing: the tracer retains at most MaxTraces traces,
// dropping the oldest.
func TestMaxTracesRing(t *testing.T) {
	tr := New(Options{SampleEvery: 1, MaxTraces: 3})
	for id := uint64(1); id <= 5; id++ {
		tr.Start(id)
	}
	traces := tr.Traces()
	if len(traces) != 3 {
		t.Fatalf("retained %d traces, want 3", len(traces))
	}
	if traces[0].ID != 3 || traces[2].ID != 5 {
		t.Errorf("ring kept IDs %d..%d, want 3..5", traces[0].ID, traces[2].ID)
	}
}

// TestPerfettoShape: the Perfetto export is valid trace_event JSON with
// process metadata, complete spans, and instant events.
func TestPerfettoShape(t *testing.T) {
	tr := New(Options{SampleEvery: 1})
	driveTrace(tr, 1, false)
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, []Process{{Name: "proc-a", Spans: tr.Spans()}}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.Bytes())
	}
	var meta, complete, instant int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
		case "i":
			instant++
		}
	}
	if meta != 1 || complete != 3 || instant != 3 {
		t.Errorf("event mix M=%d X=%d i=%d, want 1/3/3", meta, complete, instant)
	}
}

// TestWireRoundTrip: spans survive the wire projection with their
// simulated timeline, attrs, and events intact — and wall fields never
// cross.
func TestWireRoundTrip(t *testing.T) {
	var tick int64
	tr := New(Options{SampleEvery: 1, Now: func() int64 { tick++; return tick }})
	driveTrace(tr, 9, false)
	spans := tr.Spans()
	back := FromWire(ToWire(spans))
	if len(back) != len(spans) {
		t.Fatalf("round trip kept %d of %d spans", len(back), len(spans))
	}
	for i, sp := range back {
		want := spans[i]
		if sp.TraceID != want.TraceID || sp.ID != want.ID || sp.Parent != want.Parent ||
			sp.Name != want.Name || sp.SimStartNS != want.SimStartNS || sp.SimEndNS != want.SimEndNS {
			t.Errorf("span %d identity changed over the wire", i)
		}
		if sp.WallStartNS != 0 || sp.WallEndNS != 0 {
			t.Errorf("span %d: wall fields crossed the wire", i)
		}
		if len(sp.Attrs) != len(want.Attrs) || len(sp.Events) != len(want.Events) {
			t.Errorf("span %d lost annotations", i)
		}
	}
	// Rehydrated spans have no backing trace; their methods must still
	// be safe no-ops for End/Event via the nil-trace wall path.
	back[0].End(123)
	back[0].Event("late", 0)
	if back[0].WallClocked() {
		t.Error("rehydrated span claims a wall clock")
	}
}
