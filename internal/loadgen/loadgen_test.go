package loadgen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"conduit/internal/sim"
)

// TestStreamIsSplitMixSplit pins the stream-split algorithm to its
// definition — Stream(seed, i) is the (i+1)-th output of a SplitMix64
// generator seeded with seed, i.e. the split IS a generator step — so
// replay determinism cannot drift across versions.
func TestStreamIsSplitMixSplit(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef} {
		r := sim.NewRNG(seed)
		for i := uint64(0); i < 16; i++ {
			if want, got := r.Uint64(), Stream(seed, i); got != want {
				t.Fatalf("Stream(%d,%d) = %#x, want RNG output %#x", seed, i, got, want)
			}
		}
	}
}

// TestStreamReplacesLinearDerivation: the bug the helper fixes — under
// seed + id*0x9e3779b9, nearby (seed, id) pairs share entire client
// streams; under Stream they do not, and a dense (seed, id) grid derives
// all-distinct stream seeds.
func TestStreamReplacesLinearDerivation(t *testing.T) {
	const g32 = 0x9e3779b9
	// The linear scheme collides exactly: seed s with client id 2 is the
	// same stream as seed s+2*g32 with client id 0.
	s := uint64(1)
	if old1, old2 := s+2*g32, (s+2*g32)+0*g32; old1 != old2 {
		t.Fatal("test premise broken")
	}
	if Stream(s, 2) == Stream(s+2*g32, 0) {
		t.Error("Stream still collides on the linear scheme's collision pair")
	}
	// Dense grid of small seeds x client ids: every derived seed distinct.
	seen := make(map[uint64][2]uint64)
	for seed := uint64(0); seed < 64; seed++ {
		for id := uint64(0); id < 64; id++ {
			v := Stream(seed, id)
			if prev, dup := seen[v]; dup {
				t.Fatalf("Stream(%d,%d) == Stream(%d,%d)", seed, id, prev[0], prev[1])
			}
			seen[v] = [2]uint64{seed, id}
		}
	}
}

// TestGenerateDeterministicAndSeedSensitive: the same spec yields the
// identical schedule; a different seed yields a different one; and the
// pick substreams are independent — changing the policy set does not
// perturb arrival times or workload picks.
func TestGenerateDeterministicAndSeedSensitive(t *testing.T) {
	spec := Spec{
		Arrival: "poisson", QPS: 5000, Duration: 200 * time.Millisecond,
		Seed: 7, Tenants: 3,
		Workloads: []string{"aes", "jacobi-1d", "heat-3d"},
		Policies:  []string{"Conduit", "BW-Offloading"},
		SLO:       40 * time.Millisecond,
	}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec generated different schedules")
	}
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	spec2 := spec
	spec2.Seed = 8
	c, _ := Generate(spec2)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated the same schedule")
	}
	// Substream independence: a different policy set must leave arrival
	// times, workloads, and tenants untouched.
	spec3 := spec
	spec3.Policies = []string{"Ideal"}
	d, err := Generate(spec3)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != len(a) {
		t.Fatalf("policy set changed the schedule length: %d vs %d", len(d), len(a))
	}
	for i := range d {
		if d[i].At != a[i].At || d[i].Workload != a[i].Workload || d[i].Tenant != a[i].Tenant {
			t.Fatalf("event %d: policy set perturbed an independent substream", i)
		}
	}
	// Every event respects the spec.
	var last time.Duration
	for i, ev := range a {
		if ev.At < last {
			t.Fatalf("event %d: arrivals not monotone", i)
		}
		last = ev.At
		if ev.At >= spec.Duration || ev.Deadline != spec.SLO {
			t.Fatalf("event %d out of spec: %+v", i, ev)
		}
		if ev.Tenant != []string{"tenant-00", "tenant-01", "tenant-02"}[i%3] {
			t.Fatalf("event %d: tenant %q not round-robin", i, ev.Tenant)
		}
	}
}

// TestArrivalRatesAndShapes: each open-loop process hits its mean rate
// (deterministically, so exact tolerances are safe), gaps are
// non-negative, and the burst process is visibly burstier than Poisson.
func TestArrivalRatesAndShapes(t *testing.T) {
	// 10s spans one full default diurnal period: the sinusoid's high and
	// low halves must both be inside the window for the mean to be QPS.
	const qps, dur = 2000.0, 10 * time.Second
	gapsOf := func(name string) []time.Duration {
		arr, err := NewArrival(name, qps)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(Stream(123, 0))
		var gaps []time.Duration
		var at time.Duration
		for at < dur {
			g := arr.Gap(rng)
			if g < 0 {
				t.Fatalf("%s: negative gap %v", name, g)
			}
			at += g
			gaps = append(gaps, g)
		}
		return gaps
	}
	cv := func(gaps []time.Duration) float64 {
		var sum, sumsq float64
		for _, g := range gaps {
			s := g.Seconds()
			sum += s
			sumsq += s * s
		}
		n := float64(len(gaps))
		mean := sum / n
		return math.Sqrt(sumsq/n-mean*mean) / mean
	}
	for _, name := range []string{"poisson", "burst", "diurnal"} {
		gaps := gapsOf(name)
		rate := float64(len(gaps)) / dur.Seconds()
		if rate < 0.80*qps || rate > 1.20*qps {
			t.Errorf("%s: achieved %.0f qps, want %.0f +-20%%", name, rate, qps)
		}
	}
	if pcv, bcv := cv(gapsOf("poisson")), cv(gapsOf("burst")); bcv <= pcv {
		t.Errorf("burst process not burstier than poisson: cv %.2f vs %.2f", bcv, pcv)
	}
}

// TestGenerateValidation: the error cases that keep a bad flag from
// becoming an infinite loop or an empty silent run.
func TestGenerateValidation(t *testing.T) {
	base := Spec{Arrival: "poisson", QPS: 100, Duration: time.Second,
		Workloads: []string{"w"}, Policies: []string{"p"}}
	bad := []func(*Spec){
		func(s *Spec) { s.Workloads = nil },
		func(s *Spec) { s.Policies = nil },
		func(s *Spec) { s.QPS = 0 },
		func(s *Spec) { s.Arrival = "bogus" },
		func(s *Spec) { s.Duration = 0; s.MaxEvents = 0 },
	}
	for i, mutate := range bad {
		s := base
		mutate(&s)
		if _, err := Generate(s); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

// TestScheduleGolden pins Generate's output across commits: the SHA-256
// of each open-loop process's schedule at one fixed Spec, spanning a full
// 10 s diurnal period, must match the committed digest. Two runs of one
// binary agreeing (TestGenerateDeterministicAndSeedSensitive) cannot see
// a change to an arrival law's constants; this can.
func TestScheduleGolden(t *testing.T) {
	want := map[string]string{
		"poisson": "812575ccd7ebf216cb5d0fe5f07c1ebed7d468c83b5b7980f0c553d7889e6fb8",
		"burst":   "775244bb95a2fbe19d30461238858e8dd6899f35a1fc8cb0b0b2ae104b9d52b1",
		"diurnal": "22472078902a55ef3b95afbb03719bda24f78feae25875d5122814571d1ae8d8",
	}
	for name, digest := range want {
		evs, err := Generate(Spec{
			Arrival: name, QPS: 500, Duration: 10 * time.Second,
			Seed: 42, Tenants: 3,
			Workloads: []string{"aes", "jacobi-1d", "heat-3d"},
			Policies:  []string{"Conduit", "BW-Offloading"},
			SLO:       40 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, ev := range evs {
			fmt.Fprintf(h, "%d %s %s %s %d\n", int64(ev.At), ev.Tenant, ev.Workload, ev.Policy, int64(ev.Deadline))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != digest {
			t.Errorf("%s: %d events, schedule sha256 %s, want %s", name, len(evs), got, digest)
		}
	}
}
