package stats

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"conduit/internal/sim"
)

func TestReservoirPercentiles(t *testing.T) {
	r := NewReservoir()
	for i := 1; i <= 100; i++ {
		r.Add(sim.Time(i))
	}
	if got := r.Percentile(50); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := r.P99(); got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
	if got := r.P9999(); got != 100 {
		t.Errorf("p99.99 = %v, want 100", got)
	}
	if got := r.Percentile(100); got != 100 {
		t.Errorf("max = %v, want 100", got)
	}
	if got := r.Mean(); got != 51 {
		// Exact mean is 50.5; Mean rounds to nearest, not down.
		t.Errorf("mean = %v, want 51", got)
	}
	if got := r.sum; got != 5050 {
		t.Errorf("sum = %v, want 5050", got)
	}
}

// TestReservoirMeanRounds locks in round-to-nearest semantics: the old
// integer division truncated (e.g. mean of {1, 2} reported 1).
func TestReservoirMeanRounds(t *testing.T) {
	cases := []struct {
		samples []sim.Time
		want    sim.Time
	}{
		{[]sim.Time{1, 2}, 2},           // 1.5 rounds up
		{[]sim.Time{1, 1, 2}, 1},        // 1.33 rounds down
		{[]sim.Time{2, 2, 3}, 2},        // 2.33 rounds down
		{[]sim.Time{0, 0, 0, 1}, 0},     // 0.25 rounds down
		{[]sim.Time{0, 1, 1, 1}, 1},     // 0.75 rounds up
		{[]sim.Time{10, 20, 30}, 20},    // exact
		{[]sim.Time{999, 1000, 1}, 667}, // 666.67 rounds up
	}
	for _, tc := range cases {
		r := NewReservoir()
		for _, s := range tc.samples {
			r.Add(s)
		}
		if got := r.Mean(); got != tc.want {
			t.Errorf("Mean(%v) = %v, want %v", tc.samples, got, tc.want)
		}
	}
}

func TestReservoirCloneIsIndependent(t *testing.T) {
	r := NewReservoir()
	r.Add(10)
	r.Add(20)
	c := MergeReservoirs(r) // a one-part merge is a clone
	r.Add(1000)
	if c.Count() != 2 || c.Percentile(100) != 20 {
		t.Fatalf("clone saw later samples: count=%d max=%v", c.Count(), c.Percentile(100))
	}
	c.Add(5)
	if r.Count() != 3 {
		t.Fatalf("original saw clone's samples: count=%d", r.Count())
	}
}

func TestReservoirEmpty(t *testing.T) {
	r := NewReservoir()
	if r.P99() != 0 || r.Percentile(100) != 0 || r.Mean() != 0 || r.Count() != 0 {
		t.Fatal("empty reservoir should report zeros")
	}
}

func TestReservoirInterleavedAddAndQuery(t *testing.T) {
	r := NewReservoir()
	r.Add(10)
	if r.Percentile(100) != 10 {
		t.Fatal("single-sample percentile wrong")
	}
	r.Add(5) // must invalidate the sorted cache
	if got := r.Percentile(0); got != 5 {
		t.Fatalf("p0 after second add = %v, want 5", got)
	}
}

// Property: percentile is monotone in p and always one of the samples.
func TestReservoirPercentileMonotoneProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		r := NewReservoir()
		set := map[sim.Time]bool{}
		for _, v := range vals {
			r.Add(sim.Time(v))
			set[sim.Time(v)] = true
		}
		prev := sim.Time(-1)
		for _, p := range []float64{0, 25, 50, 75, 90, 99, 99.99, 100} {
			got := r.Percentile(p)
			if got < prev || !set[got] {
				return false
			}
			prev = got
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.Add("flash.reads", 3)
	c.Add("dram.bbops", 1)
	c.Add("flash.reads", 2)
	if c.Get("flash.reads") != 5 {
		t.Fatalf("flash.reads = %d, want 5", c.Get("flash.reads"))
	}
	if c.Get("missing") != 0 {
		t.Fatal("missing counter should be 0")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "flash.reads" || names[1] != "dram.bbops" {
		t.Fatalf("names = %v, want insertion order", names)
	}
	// Names is the set's own list, so an append to it must copy: the set
	// and the caller each keep what they added.
	c.Add("ftl.gc_runs", 1)
	mine := append(c.Names(), "mine")
	c.Add("core.cycles", 1)
	if got := c.Names(); len(got) != 4 || got[3] != "core.cycles" || mine[3] != "mine" || c.Get("mine") != 0 {
		t.Fatalf("an append to Names shared the set's list: set %v, appended %v", got, mine)
	}
	if n := testing.AllocsPerRun(100, func() { names = c.Names() }); n != 0 {
		t.Errorf("Names allocates %v times, want 0", n)
	}
}

// TestCountersOfSharesNames: sets built over one fixed name list behave
// like sets built by Add in that order, and no operation on a set — adding
// a new name, merging, cloning — writes into the shared list or shows in a
// sibling set.
func TestCountersOfSharesNames(t *testing.T) {
	backing := [...]string{"core.cycles", "dram.bbops", "flash.senses", "spare"}
	shared := backing[:3] // spare capacity behind it, as a careless caller might pass
	a := CountersOf(shared, []int64{1, 2, 3})
	b := CountersOf(shared, []int64{10, 20, 30})

	a.Add("ftl.gc_runs", 4)
	a.Add("dram.bbops", 5)
	a.Merge(b)
	c := NewCounters()
	c.Merge(a)
	c.Add("core.cycles", 100)

	if backing[3] != "spare" {
		t.Fatalf("adding a name wrote into the shared list: %v", backing)
	}
	if want := []string{"core.cycles", "dram.bbops", "flash.senses", "ftl.gc_runs"}; !reflect.DeepEqual(a.Names(), want) {
		t.Fatalf("names = %v, want %v", a.Names(), want)
	}
	for name, want := range map[string]int64{"core.cycles": 11, "dram.bbops": 27, "flash.senses": 33, "ftl.gc_runs": 4, "missing": 0} {
		if got := a.Get(name); got != want {
			t.Errorf("a.%s = %d, want %d", name, got, want)
		}
	}
	if !reflect.DeepEqual(b.Names(), shared) || b.Get("core.cycles") != 10 || b.Get("ftl.gc_runs") != 0 {
		t.Fatalf("sibling set changed: %v, core.cycles=%d", b.Names(), b.Get("core.cycles"))
	}
	if c.Get("core.cycles") != 111 || a.Get("core.cycles") != 11 {
		t.Fatal("a merged copy is not independent")
	}
}

// TestReservoirOfAdopts: a reservoir built from a finished sample slice is
// indistinguishable from one built by Add, and takes the slice without
// copying it.
func TestReservoirOfAdopts(t *testing.T) {
	samples := []sim.Time{9, 3, 3, 12, 1, 7}
	added := NewReservoir()
	for _, v := range samples {
		added.Add(v)
	}
	r := ReservoirOf(samples)
	if &r.samples[0] != &samples[0] {
		t.Fatal("ReservoirOf copied the slice")
	}
	if r.Count() != added.Count() || r.sum != added.sum || r.Mean() != added.Mean() ||
		r.Percentile(100) != added.Percentile(100) || r.Percentile(50) != added.Percentile(50) || r.P99() != added.P99() {
		t.Fatal("adopted reservoir differs from the one built by Add")
	}
	if m := MergeReservoirs(r, added); m.Count() != 2*len(samples) {
		t.Fatalf("merged count = %d", m.Count())
	}
	cl := MergeReservoirs(r)
	r.Add(1000)
	if cl.Count() != len(samples) || r.Count() != len(samples)+1 || r.Percentile(100) != 1000 {
		t.Fatal("an adopted reservoir must still copy and grow")
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 4})
	if math.Abs(got-2) > 1e-9 {
		t.Fatalf("GeoMean(1,4) = %v, want 2", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("GeoMean(nil) should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("GeoMean of non-positive value should panic")
		}
	}()
	GeoMean([]float64{0})
}

// Property: GeoMean lies between min and max of its inputs.
func TestGeoMeanBoundsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)/16 + 0.1 // strictly positive
		}
		g := GeoMean(xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return g >= sorted[0]-1e-9 && g <= sorted[len(sorted)-1]+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Fig X", "workload", "speedup")
	tb.AddRowf("AES", 1.25)
	tb.AddRowf("heat-3d", 4.0)
	out := tb.String()
	for _, want := range []string{"== Fig X ==", "workload", "AES", "1.250", "heat-3d", "4.000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", tb.NumRows())
	}
	if tb.rows[0][0] != "AES" {
		t.Fatalf("cell (0,0) = %q", tb.rows[0][0])
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(`x,y`, `q"z`)
	var b strings.Builder
	tb.CSV(&b)
	out := b.String()
	if !strings.Contains(out, `"x,y"`) || !strings.Contains(out, `"q""z"`) {
		t.Fatalf("CSV quoting wrong:\n%s", out)
	}
}

func TestTableRowPadding(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only-one")
	if tb.rows[0][2] != "" {
		t.Fatal("missing cells should render empty")
	}
	tb.AddRow("1", "2", "3", "4") // extra cell dropped
	if tb.rows[1][2] != "3" {
		t.Fatal("extra cells should be dropped")
	}
}
