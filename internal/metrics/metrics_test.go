package metrics

import (
	"bytes"
	"strings"
	"testing"

	"conduit/internal/histo"
)

func tenant(v string) Label { return Label{Key: "tenant", Value: v} }

// TestRegistryBasics: counters accumulate, gauges overwrite, label
// order never splits a series, and snapshots come out sorted.
func TestRegistryBasics(t *testing.T) {
	r := New()
	r.Count("requests_total", 2, tenant("a"))
	r.Count("requests_total", 3, tenant("a"))
	r.Count("requests_total", 7, tenant("b"))
	r.SetGauge("idle", 4, Label{Key: "pool", Value: "p"}, Label{Key: "app", Value: "aes"})
	r.SetGauge("idle", 1, Label{Key: "app", Value: "aes"}, Label{Key: "pool", Value: "p"})

	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot holds %d series, want 3", len(snap))
	}
	if snap[0].Name != "idle" || snap[0].Value != 1 {
		t.Errorf("label permutation split the gauge series: %+v", snap[0])
	}
	if snap[1].Value != 5 || snap[2].Value != 7 {
		t.Errorf("counters did not accumulate: %+v", snap[1:])
	}
	for i := 1; i < len(snap); i++ {
		if seriesKey(snap[i-1].Name, snap[i-1].Labels) > seriesKey(snap[i].Name, snap[i].Labels) {
			t.Error("snapshot not sorted by series identity")
		}
	}
}

// TestKindConflictDropped: a series keeps its first kind; conflicting
// writes are dropped rather than corrupting it.
func TestKindConflictDropped(t *testing.T) {
	r := New()
	r.Count("x", 5)
	r.SetGauge("x", 99)
	h := histo.New()
	h.Add(1)
	r.MergeHist("x", h)
	r.Add(Sample{Name: "x", Kind: KindGauge, Value: 100})
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Kind != KindCounter || snap[0].Value != 5 {
		t.Errorf("kind conflict corrupted the series: %+v", snap)
	}
}

// TestFleetMerge: Add sums counters and gauges and exactly merges
// histograms — the router's fleet fold.
func TestFleetMerge(t *testing.T) {
	mkTarget := func(base int64) []Sample {
		r := New()
		r.Count("requests_total", base, tenant("a"))
		h := histo.New()
		for i := int64(1); i <= base; i++ {
			h.Add(i * 1000)
		}
		r.MergeHist("latency_ns", h)
		return r.Snapshot()
	}
	fleet := New()
	for i, samples := range [][]Sample{mkTarget(10), mkTarget(20)} {
		for _, s := range Relabel(samples, "target", string(rune('a'+i))) {
			fleet.Add(s)
		}
	}
	// Distinct targets stay distinct series.
	snap := fleet.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("fleet holds %d series, want 4 (2 per target)", len(snap))
	}
	// Merging WITHOUT relabeling collapses them exactly.
	merged := New()
	for _, samples := range [][]Sample{mkTarget(10), mkTarget(20)} {
		for _, s := range samples {
			merged.Add(s)
		}
	}
	msnap := merged.Snapshot()
	if len(msnap) != 2 {
		t.Fatalf("merged registry holds %d series, want 2", len(msnap))
	}
	if msnap[1].Value != 30 {
		t.Errorf("merged counter = %v, want 30", msnap[1].Value)
	}
	if msnap[0].Hist.Count() != 30 {
		t.Errorf("merged histogram holds %d samples, want 30", msnap[0].Hist.Count())
	}
}

// TestSnapshotIsolation: cloned histograms in a snapshot are immune to
// later registry writes.
func TestSnapshotIsolation(t *testing.T) {
	r := New()
	h := histo.New()
	h.Add(5)
	r.MergeHist("lat", h)
	snap := r.Snapshot()
	h2 := histo.New()
	h2.Add(6)
	r.MergeHist("lat", h2)
	if snap[0].Hist.Count() != 1 {
		t.Error("snapshot histogram observed a later write")
	}
}

// TestWriteText: the exposition format is one line per scalar series,
// quantile + _count + _sum rows per histogram, with escaped label
// values — and is byte-deterministic.
func TestWriteText(t *testing.T) {
	r := New()
	r.Count("requests_total", 12, tenant("a\"b"))
	r.SetGauge("temperature", -2.5)
	h := histo.New()
	for i := int64(1); i <= 100; i++ {
		h.Add(i * 1000)
	}
	r.MergeHist("latency_ns", h, tenant("a"))

	var buf bytes.Buffer
	if err := WriteText(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`requests_total{tenant="a\"b"} 12`,
		"temperature -2.5",
		`latency_ns{tenant="a",quantile="0.5"}`,
		`latency_ns{tenant="a",quantile="0.99"}`,
		`latency_ns{tenant="a",quantile="0.999"}`,
		`latency_ns_count{tenant="a"} 100`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	var buf2 bytes.Buffer
	if err := WriteText(&buf2, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("exposition not byte-deterministic across snapshots")
	}
}
