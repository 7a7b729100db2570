package metrics_test

import (
	"reflect"
	"testing"

	"conduit/internal/histo"
	"conduit/internal/metrics"
	"conduit/internal/wire"
)

// TestWireRoundTrip: a registry scrape survives the Snapshot frame that
// carries it between processes — names, labels, kinds, values, and
// histogram contents — in canonical order.
func TestWireRoundTrip(t *testing.T) {
	r := metrics.New()
	r.Count("c", 3, metrics.Label{Key: "tenant", Value: "x"})
	r.SetGauge("g", -1.5)
	h := histo.New()
	h.Add(42)
	r.MergeHist("h", h)
	in := r.Snapshot()
	enc, err := wire.AppendFrame(nil, wire.Snapshot{ID: 1, Target: "t", Samples: in})
	if err != nil {
		t.Fatal(err)
	}
	f, err := wire.Decode(enc[4:])
	if err != nil {
		t.Fatal(err)
	}
	out := f.(wire.Snapshot).Samples
	if !reflect.DeepEqual(out, in) {
		t.Errorf("samples changed over the wire\n got: %+v\nwant: %+v", out, in)
	}
}
