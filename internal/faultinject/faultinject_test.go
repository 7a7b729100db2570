package faultinject

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"conduit/internal/jsonl"
	"conduit/internal/sim"
)

// drive runs a fixed decision schedule against in and returns the
// decision outcomes as a comparable transcript.
func drive(in *Injector) []string {
	var out []string
	for req := 0; req < 50; req++ {
		for attempt := 1; attempt <= 2; attempt++ {
			out = append(out, fmt.Sprintf("dispatch=%+v", in.Draw(Serve, "w", 0, attempt)))
			for shard := 0; shard < 2; shard++ {
				fd := in.Draw(Pool, "w", shard, attempt)
				sd := in.Draw(Device, "w", shard, attempt)
				out = append(out, fmt.Sprintf("s%d fork=%+v shard=%+v", shard, fd, sd))
			}
		}
	}
	return out
}

// drawSeams draws every seam once for one attempt of workload: the
// dispatch, then on each of the shards a fork acquisition and a shard run.
func drawSeams(in *Injector, workload string, shards, attempt int) {
	in.Draw(Serve, workload, 0, attempt)
	for shard := 0; shard < shards; shard++ {
		in.Draw(Pool, workload, shard, attempt)
		in.Draw(Device, workload, shard, attempt)
	}
}

// writeLog renders faults in the fault log's on-disk form.
func writeLog(w io.Writer, faults []Fault) error { return jsonl.Write(w, faults) }

var chaosCfg = Config{
	Seed:      7,
	ShardFail: 0.2, SlowShard: 0.2, PanicRate: 0.1,
	ForkFail: 0.1, PoisonFork: 0.1, BackendError: 0.1,
}

// TestInjectorDeterministic: same seed, same call schedule, same
// decisions and same log — the schedule is a pure function of the seed.
func TestInjectorDeterministic(t *testing.T) {
	a, b := New(chaosCfg), New(chaosCfg)
	if got, want := drive(a), drive(b); !reflect.DeepEqual(got, want) {
		t.Fatal("identical seeds produced different decision transcripts")
	}
	if !reflect.DeepEqual(a.Log(), b.Log()) {
		t.Fatal("identical seeds produced different fault logs")
	}
	if len(a.Log()) == 0 {
		t.Fatal("chaos config injected nothing; rates too low for the schedule")
	}
	other := New(Config{Seed: 8, ShardFail: 0.2, SlowShard: 0.2, PanicRate: 0.1,
		ForkFail: 0.1, PoisonFork: 0.1, BackendError: 0.1})
	if reflect.DeepEqual(drive(a), drive(other)) {
		t.Fatal("different seeds produced identical transcripts")
	}
}

// TestInjectorSitesIndependent: a site's decision stream is unperturbed
// by how many draws other sites take in between — per-site substreams,
// the property that keeps concurrent shards deterministic.
func TestInjectorSitesIndependent(t *testing.T) {
	solo := New(chaosCfg)
	var want []Fault
	for i := 0; i < 40; i++ {
		want = append(want, solo.Draw(Device, "w", 0, 1))
	}
	mixed := New(chaosCfg)
	var got []Fault
	for i := 0; i < 40; i++ {
		// Interleave draws at other sites between every shard-0 draw.
		mixed.Draw(Serve, "w", 0, 1)
		mixed.Draw(Pool, "w", 1, 1)
		mixed.Draw(Device, "w", 1, 1)
		f := mixed.Draw(Device, "w", 0, 1)
		f.Seq = want[i].Seq // capture order counts the other sites' faults too
		got = append(got, f)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("shard-0 schedule perturbed by draws at other sites")
	}
}

// TestInjectorZeroRatesInjectNothing: the wired-in-but-idle layer draws
// at every seam and injects nothing.
func TestInjectorZeroRatesInjectNothing(t *testing.T) {
	in := New(Config{Seed: 3})
	for req := 0; req < 50; req++ {
		for _, s := range []Seam{Serve, Pool, Device} {
			if f := in.Draw(s, "w", req%2, 1); f != (Fault{}) {
				t.Fatalf("zero-rate injector produced a fault: %+v", f)
			}
		}
	}
	if n := len(in.Log()); n != 0 {
		t.Fatalf("zero-rate injector logged %d faults", n)
	}
	var nilIn *Injector
	if nilIn.Draw(Serve, "w", 0, 1) != (Fault{}) || nilIn.Log() != nil {
		t.Fatal("nil injector not inert")
	}
}

// TestReplayReproducesSchedule: a replay injector built from a recorded
// log makes the identical decisions on the identical call schedule, and
// re-records the same faults (mod global capture order, which a serial
// driver also preserves).
func TestReplayReproducesSchedule(t *testing.T) {
	live := New(chaosCfg)
	want := drive(live)
	rep := NewReplay(live.Log())
	if got := drive(rep); !reflect.DeepEqual(got, want) {
		t.Fatal("replayed decisions differ from the recorded run")
	}
	if got, want := rep.Log(), live.Log(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay re-recorded a different log: %d vs %d faults", len(got), len(want))
	}
}

// TestFaultLogRoundTrip: JSONL encode/decode is lossless.
func TestFaultLogRoundTrip(t *testing.T) {
	live := New(chaosCfg)
	drive(live)
	faults := live.Log()
	var buf bytes.Buffer
	if err := jsonl.Write(&buf, faults); err != nil {
		t.Fatal(err)
	}
	back, err := jsonl.Read[Fault](&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, faults) {
		t.Fatal("fault log did not round-trip through JSONL")
	}
}

// TestInjectorConcurrentSafe: concurrent decisions race-cleanly and the
// per-site transcript stays the deterministic one.
func TestInjectorConcurrentSafe(t *testing.T) {
	in := New(chaosCfg)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				in.Draw(Device, "w", g, 1)
				in.Draw(Pool, "w", g, 1)
			}
		}(g)
	}
	wg.Wait()
	// Per-site replay identity: site g's decisions must match a solo run.
	solo := New(chaosCfg)
	for i := 0; i < 100; i++ {
		solo.Draw(Device, "w", 2, 1)
		solo.Draw(Pool, "w", 2, 1)
	}
	perSite := map[string][]Fault{}
	for _, f := range in.Log() {
		perSite[f.Site] = append(perSite[f.Site], f)
	}
	soloDev := map[int64]Fault{}
	for _, f := range solo.Log() {
		if f.Site == "dev|w#2" {
			soloDev[f.SiteSeq] = f
		}
	}
	concDev := map[int64]Fault{}
	for _, f := range perSite["dev|w#2"] {
		f.Seq = 0 // capture order differs under concurrency; identity is (site, site_seq)
		concDev[f.SiteSeq] = f
	}
	for seq, f := range soloDev {
		f.Seq = 0
		if got, ok := concDev[seq]; !ok || !reflect.DeepEqual(got, f) {
			t.Fatalf("site dev|w#2 seq %d: concurrent fault %+v, want %+v", seq, concDev[seq], f)
		}
	}
	if len(soloDev) != len(concDev) {
		t.Fatalf("site dev|w#2: %d faults concurrent vs %d solo", len(concDev), len(soloDev))
	}
}

// TestBackoffSchedule pins the capped-doubling schedule.
func TestBackoffSchedule(t *testing.T) {
	base, max := sim.Time(100), sim.Time(500)
	want := []sim.Time{100, 200, 400, 500, 500}
	for i, w := range want {
		if got := Backoff(base, max, i+1); got != w {
			t.Errorf("Backoff(retry=%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := Backoff(0, max, 1); got != 0 {
		t.Errorf("zero base charged %v", got)
	}
	if got := Backoff(base, max, 0); got != 0 {
		t.Errorf("retry 0 charged %v", got)
	}
}

// TestBreakerLifecycle drives closed -> open -> half-open probe ->
// closed, and a failed probe re-opening.
func TestBreakerLifecycle(t *testing.T) {
	b := NewBreaker(3, 2)
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatal("closed breaker refused")
		}
		b.Failure()
	}
	if b.State() != BreakerClosed {
		t.Fatal("tripped below threshold")
	}
	b.Allow()
	b.Failure() // third consecutive failure: trip
	if b.State() != BreakerOpen || b.Trips() != 1 {
		t.Fatalf("state=%v trips=%d after threshold failures", b.State(), b.Trips())
	}
	// Cooldown: two refusals, then the half-open probe passes.
	if b.Allow() {
		t.Fatal("open breaker allowed during cooldown")
	}
	if b.Allow() {
		t.Fatal("open breaker allowed during cooldown")
	}
	if !b.Allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	b.Failure() // failed probe: re-open immediately
	if b.State() != BreakerOpen || b.Trips() != 2 {
		t.Fatalf("failed probe: state=%v trips=%d", b.State(), b.Trips())
	}
	b.Allow()
	b.Allow()
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatal("successful probe did not close the breaker")
	}
	// A single later failure must not re-trip a freshly closed breaker.
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("closed breaker re-tripped on one failure after a successful probe")
	}
}

// TestBreakerSetSnapshotSorted: stable, per-name breakers.
func TestBreakerSetSnapshotSorted(t *testing.T) {
	s := NewBreakerSet(1, 1)
	s.Get("w#1").Failure()
	s.Get("w#0").Allow()
	if a, b := s.Get("w#0"), s.Get("w#0"); a != b {
		t.Fatal("Get minted a fresh breaker for a known name")
	}
	snap := s.Snapshot()
	if len(snap) != 2 || snap[0].Name != "w#0" || snap[1].Name != "w#1" {
		t.Fatalf("snapshot not name-sorted: %+v", snap)
	}
	if snap[1].State != BreakerOpen || s.Trips() != 1 {
		t.Fatalf("threshold-1 breaker did not trip: %+v (trips=%d)", snap[1], s.Trips())
	}
}

// TestCheckAcceptsWhatTheInjectorWrites: every fault a live injector
// logs passes Check, under every golden config and under a SlowFactor
// above MaxSlowdown, which the injector caps.
func TestCheckAcceptsWhatTheInjectorWrites(t *testing.T) {
	cfgs := []Config{chaosCfg, {Seed: 4, ShardFail: 0.5, SlowShard: 0.5, SlowFactor: 1e300}}
	for _, c := range goldenCases {
		cfgs = append(cfgs, c.cfg)
	}
	for _, cfg := range cfgs {
		in := New(cfg)
		goldenSchedule(in)
		for _, f := range in.Log() {
			if err := Check(f); err != nil {
				t.Fatalf("config %+v logged %+v, which Check refuses: %v", cfg, f, err)
			}
			if f.Slowdown > MaxSlowdown {
				t.Fatalf("slowdown %g above MaxSlowdown", f.Slowdown)
			}
		}
	}
}
