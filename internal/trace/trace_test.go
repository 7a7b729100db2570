package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
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

	var tick int64
	warm := New(Options{SampleEvery: 1, Now: func() int64 { tick += 10; return tick }})
	driveTrace(warm, 1, false)
	if !bytes.Contains(exportJSONL(t, warm), []byte("wall_start_ns")) {
		t.Error("clocked tracer recorded no wall fields")
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
	if tr.ShouldSample(1) || tr.Start(1) != nil || tr.Spans() != nil {
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
	if sp.Child("c", "", 0) != nil || sp.Ctx() != (Ctx{}) {
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

// TestAdoptedSpansFollowRetention: spans adopted from other processes,
// from several goroutines at once, are kept per trace and dropped with it,
// and a span with no backing trace adopts nothing.
func TestAdoptedSpansFollowRetention(t *testing.T) {
	tr := New(Options{SampleEvery: 1, MaxTraces: 3})
	var wg sync.WaitGroup
	for id := uint64(1); id <= 8; id++ {
		root := tr.Start(id).Root("router.request", 0, 0)
		for _, proc := range []string{"t0", "t1"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				root.Adopt(proc, []*Span{{TraceID: id, ID: 1, Name: "serve.request"}})
				tr.Remote()
			}()
		}
	}
	wg.Wait()
	(&Span{TraceID: 9, ID: 1}).Adopt("t0", []*Span{{TraceID: 9, ID: 2, Name: "x"}})

	remote := tr.Remote()
	for _, proc := range []string{"t0", "t1"} {
		var ids []uint64
		for _, sp := range remote[proc] {
			ids = append(ids, sp.TraceID)
		}
		if !reflect.DeepEqual(ids, []uint64{6, 7, 8}) {
			t.Errorf("%s: adopted spans of traces %v, want the retained 6..8", proc, ids)
		}
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
