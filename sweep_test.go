package conduit_test

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"

	conduit "conduit"
	"conduit/internal/workloads"
)

// TestSharedResultConcurrentPercentiles: memoized grid cells hand the
// same *RunResult to every caller, and percentile queries sort lazily —
// concurrent readers of a shared result must be race-free (run with
// -race).
func TestSharedResultConcurrentPercentiles(t *testing.T) {
	e := conduit.NewExperiments(conduit.DefaultConfig(), 1)
	e.SetWorkers(4)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := e.Run("jacobi-1d", "Conduit")
			if err != nil {
				t.Error(err)
				return
			}
			if r.InstLatencies.P99() > r.InstLatencies.P9999() {
				t.Error("p99 above p99.99")
			}
			_ = r.InstLatencies.Mean()
			_ = r.InstLatencies.Percentile(100)
		}()
	}
	wg.Wait()
}

// sweepWorkloads / sweepPolicies keep the determinism sweep small enough
// to run under -race on every CI push while still covering host, ideal,
// and every in-SSD resource class.
var sweepPolicies = []string{"CPU", "ISP", "Ares-Flash", "DM-Offloading", "Conduit", "Ideal"}

func sweepWorkloads(e *conduit.Experiments) []string {
	ws := e.Workloads()
	if len(ws) > 3 {
		ws = ws[:3]
	}
	return ws
}

// resultKey flattens the fields of a RunResult that experiments consume
// into a comparable snapshot.
type resultKey struct {
	Policy         string
	Elapsed        conduit.Time
	ComputeEnergy  float64
	MovementEnergy float64
	OverheadTime   conduit.Time
	LatCount       int
	LatMean        conduit.Time
	LatP99         conduit.Time
	LatP9999       conduit.Time
	Decisions      []conduit.Decision
}

func keyOf(r *conduit.RunResult) resultKey {
	return resultKey{
		Policy:         r.Policy,
		Elapsed:        r.Elapsed,
		ComputeEnergy:  r.ComputeEnergy,
		MovementEnergy: r.MovementEnergy,
		OverheadTime:   r.OverheadTime,
		LatCount:       r.InstLatencies.Count(),
		LatMean:        r.InstLatencies.Mean(),
		LatP99:         r.InstLatencies.P99(),
		LatP9999:       r.InstLatencies.P9999(),
		Decisions:      r.Decisions,
	}
}

// TestParallelGridMatchesSerialSweep is the tentpole determinism
// guarantee: the worker-pool, snapshot-restoring RunGrid engine must
// produce RunResult tables byte-identical to the serial seed path (a full
// fresh NVMe deploy per cell via System.RunCompiled). A grid cell hands
// its device back to its workload's deployment, which restores it for the
// next cell, so with one worker each workload's device runs all fourteen
// policies as one chain, and the columns are shuffled to vary that chain
// from pass to pass; with four the chains also interleave. No result the
// harness hands out carries a device. Run with -race to also exercise the
// concurrency contract.
func TestParallelGridMatchesSerialSweep(t *testing.T) {
	cfg := conduit.DefaultConfig()
	policies := append(conduit.Policies(), conduit.AblationPolicies()...)

	// Serial reference: fresh deploy per cell, strictly sequential.
	sys := conduit.NewSystem(cfg)
	ws := sweepWorkloads(conduit.NewExperiments(cfg, 1))
	serial := make(map[string]resultKey)
	for _, w := range ws {
		c := compiledWorkload(t, &cfg, w)
		for _, p := range policies {
			r, err := sys.RunCompiled(c, p)
			if err != nil {
				t.Fatalf("serial %s/%s: %v", w, p, err)
			}
			serial[w+"|"+p] = keyOf(r)
		}
	}

	for pass, workers := range []int{1, 4, 1, 4} {
		e := conduit.NewExperiments(cfg, 1)
		e.SetWorkers(workers)
		cols := slices.Clone(policies)
		rand.New(rand.NewPCG(uint64(pass), 0)).Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		grid, err := e.RunGrid(ws, cols)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range ws {
			for j, p := range cols {
				if grid[i][j].Device != nil {
					t.Errorf("%d workers: %s under %s carries a device", workers, w, p)
				}
				got := keyOf(grid[i][j])
				want := serial[w+"|"+p]
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%d workers: %s under %s: parallel grid differs from serial sweep\n got: %+v\nwant: %+v",
						workers, w, p, got, want)
				}
			}
		}

		// The grid is memoized: a second pass returns identical values.
		again, err := e.RunGrid(ws, cols)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ws {
			for j := range cols {
				if again[i][j] != grid[i][j] {
					t.Fatalf("memoized grid cell %d/%d was re-run", i, j)
				}
			}
		}
	}
}

// TestDeploymentAmortizesDeploys: a Deployment runs many policies off one
// NVMe deploy, each matching the fresh-deploy result exactly, and
// concurrent Runs on one Deployment are safe (exercised under -race).
func TestDeploymentAmortizesDeploys(t *testing.T) {
	cfg := conduit.DefaultConfig()
	sys := conduit.NewSystem(cfg)
	c, err := conduit.Compile(quickstartSource(2*16384), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := sys.Deploy(c)
	if err != nil {
		t.Fatal(err)
	}

	type out struct {
		key resultKey
		err error
	}
	results := make([]out, len(sweepPolicies))
	done := make(chan int)
	for i, p := range sweepPolicies {
		go func(i int, p string) {
			r, err := dep.Run(p)
			if err == nil {
				results[i] = out{key: keyOf(r)}
			} else {
				results[i] = out{err: err}
			}
			done <- i
		}(i, p)
	}
	for range sweepPolicies {
		<-done
	}
	for i, p := range sweepPolicies {
		if results[i].err != nil {
			t.Fatalf("%s: %v", p, results[i].err)
		}
		fresh, err := sys.RunCompiled(c, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[i].key, keyOf(fresh)) {
			t.Errorf("%s: deployment run differs from fresh-deploy run", p)
		}
	}
}

// compiledWorkload compiles the named evaluation workload at scale 1,
// mirroring the harness's compile path.
func compiledWorkload(t *testing.T, cfg *conduit.Config, name string) *conduit.Compiled {
	t.Helper()
	for _, w := range workloads.All(1) {
		if w.Name == name {
			c, err := conduit.Compile(w.Source, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
	}
	t.Fatalf("unknown workload %q", name)
	return nil
}
