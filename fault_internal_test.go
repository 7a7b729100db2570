package conduit

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"conduit/internal/faultinject"
	"conduit/internal/serve"
	"conduit/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/availability.csv")

// TestAvailabilityDeterministic: the availability sweep runs entirely in
// simulated time, so the committed sweep — testdata/availability.csv,
// the output of `go run ./cmd/experiments -csv availability -availreq
// 200` (scale 2, the default fault rates, and the blank line the command
// prints after every table) — must re-render byte for byte.
// -update-golden rewrites the file.
func TestAvailabilityDeterministic(t *testing.T) {
	if raceEnabled {
		t.Skip("the 200-request sweep takes over ten times longer under -race")
	}
	tab, err := NewExperiments(DefaultConfig(), 2).Availability(AvailabilityOptions{Requests: 200})
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	tab.CSV(&got)
	got.WriteString("\n")
	if *updateGolden {
		if err := os.WriteFile("testdata/availability.csv", []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/availability.csv")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("availability sweep differs from testdata/availability.csv (regenerate it only for a deliberate model change):\n%s", got.String())
	}
}

// TestGuardShardRunContainsPanic pins the scatter-gather containment
// satellite: a panicking shard run surfaces as a `shard %d panicked`
// error — the exact wording the serve engine's containment uses — and
// never unwinds into the caller.
func TestGuardShardRunContainsPanic(t *testing.T) {
	r, err := guardShardRun(3, func() (*RunResult, error) {
		panic("kernel exploded")
	})
	if r != nil {
		t.Errorf("contained panic returned a result: %+v", r)
	}
	if err == nil || !strings.Contains(err.Error(), "shard 3 panicked: kernel exploded") {
		t.Errorf("err = %v, want a `shard 3 panicked` error", err)
	}

	r, err = guardShardRun(0, func() (*RunResult, error) {
		return &RunResult{Policy: "Conduit"}, nil
	})
	if err != nil || r == nil || r.Policy != "Conduit" {
		t.Errorf("clean run through the guard: r = %+v, err = %v", r, err)
	}
}

// TestClusterRunContainsPanickingShard drives the containment through
// the real concurrent scatter path: a shard whose run panics must fail
// that Run call with a wrapped shard error, leaving the cluster (and the
// process) fit for the next request.
func TestClusterRunContainsPanickingShard(t *testing.T) {
	w, _ := workloads.Find("aes", 1)
	cl, err := NewSystem(DefaultConfig()).DeployCluster(w.Source, ClusterOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.runShards(func(i int, dep *Deployment) (*RunResult, error) {
		if i == 1 {
			panic("injected shard panic")
		}
		return dep.Run("Conduit")
	})
	if err == nil || !strings.Contains(err.Error(), "shard 1 panicked") {
		t.Fatalf("scatter with a panicking shard: err = %v, want a contained shard-1 panic", err)
	}
	// The cluster still serves: containment must not poison later runs.
	if _, err := cl.Run("Conduit"); err != nil {
		t.Fatalf("run after contained shard panic: %v", err)
	}
}

// TestZeroRateResilientMatchesPlainRun is the dispatcher-level
// zero-overhead pin: the resilient path with a zero-rate injector and
// the full recovery configuration must produce a result byte-identical
// to the plain Cluster.Run — same elapsed, energy, overhead, and latency
// distribution — with zero recovery costs accrued.
func TestZeroRateResilientMatchesPlainRun(t *testing.T) {
	w, _ := workloads.Find("aes", 1)
	sys := NewSystem(DefaultConfig())
	cl, err := sys.DeployCluster(w.Source, ClusterOptions{Shards: 2, Prefork: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	want, err := cl.Run("Conduit")
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Config{Seed: 21}) // all rates zero
	// HedgeThreshold 8 clears aes's natural ~5.6x 2-shard plan skew, so
	// zero faults means zero recovery activity of any kind.
	res := newResilient("aes", cl, inj, RecoveryOptions{
		MaxAttempts:      3,
		HedgeThreshold:   8,
		BreakerThreshold: 4,
		FallbackPolicy:   "CPU",
	})
	var rec serve.Recovery
	got, gotRec, err := res.run(lookupPolicy("Conduit"), nil)
	rec = gotRec
	if err != nil {
		t.Fatal(err)
	}
	if got.Elapsed != want.Elapsed ||
		got.ComputeEnergy != want.ComputeEnergy ||
		got.MovementEnergy != want.MovementEnergy ||
		got.OverheadTime != want.OverheadTime {
		t.Errorf("zero-rate resilient run differs from plain run:\n got: %+v\nwant: %+v", got, want)
	}
	if got.InstLatencies.Count() != want.InstLatencies.Count() ||
		got.InstLatencies.P99() != want.InstLatencies.P99() {
		t.Errorf("latency reservoirs differ: got %d samples p99 %v, want %d samples p99 %v",
			got.InstLatencies.Count(), got.InstLatencies.P99(),
			want.InstLatencies.Count(), want.InstLatencies.P99())
	}
	if rec.Retries != 0 || rec.Hedges != 0 || rec.Fallbacks != 0 || rec.Injected != 0 || rec.BackoffSim != 0 {
		t.Errorf("zero-rate run accrued recovery costs: %+v", rec)
	}
	if rec.Attempts != int64(cl.Shards()) {
		t.Errorf("Attempts = %d, want exactly one per shard (%d)", rec.Attempts, cl.Shards())
	}

	// With a threshold of 2, aes's plan skew does trigger a
	// hedge even fault-free — and the first-wins tie rule must keep the
	// primary, so the merged result is still byte-identical; only the
	// accounting shows the duplicate dispatch.
	eager := newResilient("aes", cl, faultinject.New(faultinject.Config{Seed: 22}),
		RecoveryOptions{MaxAttempts: 3, HedgeThreshold: 2})
	got2, rec2, err := eager.run(lookupPolicy("Conduit"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Elapsed != want.Elapsed || got2.ComputeEnergy != want.ComputeEnergy {
		t.Errorf("fault-free hedged run perturbed the result: got %v/%.6fJ, want %v/%.6fJ",
			got2.Elapsed, got2.ComputeEnergy, want.Elapsed, want.ComputeEnergy)
	}
	if rec2.Hedges != 1 || rec2.HedgeWins != 0 {
		t.Errorf("skew-triggered hedge accounting: Hedges = %d, HedgeWins = %d; want 1 and 0",
			rec2.Hedges, rec2.HedgeWins)
	}
}

// TestResilientDispatchRetryExhaustion pins the dispatch seam's retry
// budget: with backend errors certain and a single attempt allowed, the
// request fails wrapped in ErrInjected; allowing retries, it keeps
// consuming backoff until the budget runs out.
func TestResilientDispatchRetryExhaustion(t *testing.T) {
	w, _ := workloads.Find("aes", 1)
	sys := NewSystem(DefaultConfig())
	dep, err := sys.Deploy(mustCompile(t, sys, w))
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Config{Seed: 9, BackendError: 1})
	res := newResilient("aes", dep, inj, RecoveryOptions{MaxAttempts: 3})
	_, rec, err := res.run(lookupPolicy("Conduit"), nil)
	if err == nil {
		t.Fatal("certain backend errors served successfully")
	}
	if rec.Retries != 2 {
		t.Errorf("Retries = %d, want 2 (three dispatch attempts)", rec.Retries)
	}
	if rec.BackoffSim <= 0 {
		t.Errorf("BackoffSim = %v, want simulated backoff charged for the retries", rec.BackoffSim)
	}
}

func mustCompile(t *testing.T, sys *System, w workloads.Named) *Compiled {
	t.Helper()
	c, err := Compile(w.Source, &sys.cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// FuzzFaultReplay feeds arbitrary bytes to ReadFaultLog and replays
// whatever it accepts through every seam of a single-device deployment
// and of a two-shard cluster, each behind the full recovery ladder: no
// input panics the caller, and no served result has a negative Elapsed.
func FuzzFaultReplay(f *testing.F) {
	for _, seed := range []string{
		`{"site":"serve|jacobi-1d","site_seq":0,"kind":"backend","workload":"jacobi-1d","attempt":1}`,
		`{"site":"pool|jacobi-1d#0","site_seq":0,"kind":"poison","workload":"jacobi-1d","attempt":1}` + "\n" +
			`{"site":"pool|jacobi-1d#1","site_seq":1,"kind":"fork-fail","workload":"jacobi-1d","shard":1,"attempt":2}`,
		`{"site":"dev|jacobi-1d#0","site_seq":0,"kind":"slow","workload":"jacobi-1d","attempt":1,"slowdown":1000}` + "\n" +
			`{"site":"dev|jacobi-1d#1","site_seq":0,"kind":"shard-fail","workload":"jacobi-1d","shard":1,"attempt":1,"slowdown":1000}`,
		`{"site":"dev|jacobi-1d#1","site_seq":1,"kind":"panic","workload":"jacobi-1d","shard":1,"attempt":1}`,
		`{"site":"dev|jacobi-1d#0","site_seq":0,"kind":"slow","workload":"jacobi-1d","attempt":1,"slowdown":1e300}`,
		`{"site":"dev|jacobi-1d#0","site_seq":0,"kind":"slow","workload":"jacobi-1d","attempt":1,"slowdown":-3}`,
	} {
		f.Add([]byte(seed))
	}
	w, _ := workloads.Find("jacobi-1d", 1)
	sys := NewSystem(DefaultConfig())
	c, err := Compile(w.Source, &sys.cfg)
	if err != nil {
		f.Fatal(err)
	}
	dep, err := sys.Deploy(c)
	if err != nil {
		f.Fatal(err)
	}
	cl, err := sys.DeployCluster(w.Source, ClusterOptions{Shards: 2, Prefork: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(cl.Close)
	apps := []application{dep, cl}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "faults.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		faults, err := ReadFaultLog(path)
		if err != nil {
			return
		}
		for _, app := range apps {
			r := newResilient("jacobi-1d", app, faultinject.NewReplay(faults), RecoveryOptions{
				MaxAttempts: 3, HedgeThreshold: 2, BreakerThreshold: 2, FallbackPolicy: "CPU"})
			for i := 0; i < 3; i++ {
				if res, _, err := r.run(lookupPolicy("Conduit"), nil); err == nil && res.Elapsed < 0 {
					t.Fatalf("request %d served with Elapsed %v", i, res.Elapsed)
				}
			}
		}
	})
}
