package conduit

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"conduit/internal/ssd"
	"conduit/internal/workloads"
)

func deployWorkload(t testing.TB, sys *System, name string, scale int) *Deployment {
	t.Helper()
	w, ok := workloads.Find(name, scale)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	c, err := Compile(w.Source, &sys.cfg)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := sys.Deploy(c)
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// flashImage records what a run can change in the flash array's shared
// tables: which physical pages are programmed and every block's erase
// count.
func flashImage(d *ssd.Device) (programmed []bool, erases []int) {
	geo := d.Flash.Geometry()
	programmed = make([]bool, d.Cfg.SSD.TotalPages())
	for i := range programmed {
		programmed[i] = d.Flash.IsProgrammed(geo.AddrOf(i))
	}
	erases = make([]int, geo.TotalBlocks())
	for b := range erases {
		erases[b] = d.Flash.EraseCount(b)
	}
	return programmed, erases
}

// requireSameRun compares two results field for field (the Device
// handle aside).
func requireSameRun(t *testing.T, what string, got, want *RunResult) {
	t.Helper()
	if got.Policy != want.Policy || got.Elapsed != want.Elapsed ||
		got.ComputeEnergy != want.ComputeEnergy || got.MovementEnergy != want.MovementEnergy ||
		got.OverheadTime != want.OverheadTime {
		t.Errorf("%s: scalars differ\n got: %v %v %v %v %v\nwant: %v %v %v %v %v", what,
			got.Policy, got.Elapsed, got.ComputeEnergy, got.MovementEnergy, got.OverheadTime,
			want.Policy, want.Elapsed, want.ComputeEnergy, want.MovementEnergy, want.OverheadTime)
	}
	if !reflect.DeepEqual(got.Decisions, want.Decisions) {
		t.Errorf("%s: offloading decisions differ", what)
	}
	gl, wl := got.InstLatencies, want.InstLatencies
	if gl.Count() != wl.Count() || gl.Mean() != wl.Mean() || gl.Percentile(100) != wl.Percentile(100) || gl.P99() != wl.P99() {
		t.Errorf("%s: instruction latencies differ", what)
	}
	if (got.Counters == nil) != (want.Counters == nil) {
		t.Fatalf("%s: one result has counters, the other none", what)
	}
	if want.Counters == nil {
		return // host runs: no drive, no counters
	}
	if !reflect.DeepEqual(got.Counters.Names(), want.Counters.Names()) {
		t.Fatalf("%s: counter names differ: %v vs %v", what, got.Counters.Names(), want.Counters.Names())
	}
	for _, name := range want.Counters.Names() {
		if got.Counters.Get(name) != want.Counters.Get(name) {
			t.Errorf("%s: counter %s = %d, want %d", what, name, got.Counters.Get(name), want.Counters.Get(name))
		}
	}
}

// TestForkIsolatedFromEarlierRun: fork A from a deployed master and run
// it — it programs pages, remaps and invalidates — then fork B. B must
// run exactly like a freshly deployed drive, and nothing A wrote may
// show on the master whose tables it shares copy-on-write.
func TestForkIsolatedFromEarlierRun(t *testing.T) {
	// At the default 512 DRAM slots no evaluation workload programs a
	// flash page while it runs; with 16 the runs evict dirty pages to
	// flash, so the shared page-state table is written too.
	cfg := DefaultConfig()
	cfg.SSD.DRAMSize = int64(16 * cfg.SSD.PageSize)
	sys := NewSystem(cfg)
	dep := deployWorkload(t, sys, "heat-3d", 1)
	for _, policy := range []string{"Conduit", "Ares-Flash"} {
		progBefore, erasesBefore := flashImage(dep.master)

		a, err := dep.Run(policy)
		if err != nil {
			t.Fatal(err)
		}
		progA, _ := flashImage(a.Device)
		touched := 0
		for i := range progA {
			if progA[i] != progBefore[i] {
				touched++
			}
		}
		if touched == 0 {
			t.Fatalf("%s run programmed no page; the test exercises nothing", policy)
		}

		progAfter, erasesAfter := flashImage(dep.master)
		if !reflect.DeepEqual(progAfter, progBefore) || !reflect.DeepEqual(erasesAfter, erasesBefore) {
			t.Fatalf("%s: a fork's run changed the master's page states or erase counts (%d pages touched)", policy, touched)
		}

		b, err := dep.Run(policy)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := sys.RunCompiled(dep.c, policy)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRun(t, policy+": fork after an earlier fork ran vs fresh deploy", b, fresh)
		requireSameRun(t, policy+": first fork vs fresh deploy", a, fresh)
	}
}

// TestForkAllocBudget pins what a fork of a frozen master costs at
// DefaultConfig: the node directories of the copy-on-write tables plus the
// small per-plane, per-slot and measurement state — not the drive's
// per-page bookkeeping (928 KiB and 414 allocations before the tables
// moved to internal/cow). The program's page-indexed tables are sized by
// its span, the pages it names (43 for jacobi-1d, 372 for LLaMA2 at
// scale 2), not by the 1 536 pages of temporaries the compiler reserves.
// It measures 11 000 and 24 698 B in 40 allocations: a directory is 147
// node pointers and ownership flags at the default geometry (31 and 44 KiB
// while each table kept a flat directory of 2 310 chunk pointers and
// states; 53 and 61 KiB while the program's tables were sized by Pages).
// The ceilings are the larger plus 10 %. Allocation counts are exact run
// to run, so the ceilings are a gate, not a timing.
func TestForkAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	const (
		maxAllocs = 44
		maxBytes  = 27_168
		forks     = 100
	)
	sys := NewSystem(DefaultConfig())
	for _, w := range []struct {
		name  string
		scale int
	}{{"jacobi-1d", 1}, {"LlaMA2 Inference", 2}} {
		dep := deployWorkload(t, sys, w.name, w.scale)
		fork := func() {
			if _, err := dep.Fork(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(forks, fork)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < forks; i++ {
			fork()
		}
		runtime.ReadMemStats(&after)
		perFork := (after.TotalAlloc - before.TotalAlloc) / forks
		t.Logf("%s: %d bytes in %v allocations per fork", w.name, perFork, allocs)
		if allocs > maxAllocs || perFork > maxBytes {
			t.Errorf("%s: %d bytes in %v allocations per fork, budget %d in %d", w.name, perFork, allocs, maxBytes, maxAllocs)
		}
	}
}

// TestRunAllocBudget pins what one pooled-path request costs beyond the
// fork: Deployment.Run (fork + Device.Run + result) on LLaMA2 at scale 2
// under Conduit. The per-instruction path indexes tables and reuses
// scratch, and a run that reproduces its deployment's published record
// returns that record, so the count does not grow with the instruction
// stream (1266 allocations and 241 KiB before the slot, page and energy
// maps became tables; 83 and 134.8 KiB while every run recorded its own
// decisions; 64 and 93.4 KiB while the device's page tables were sized by
// Pages; 61 and 68.9 KiB while the tables copied 1 024-entry chunks under
// a flat directory). The ceilings are what it measures — 57 allocations,
// 34 459 B, 24 698 B of it the clone, whose LRU stamps and free-slot
// bitmap share one array — plus 10 %.
func TestRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	const (
		maxAllocs = 63
		maxBytes  = 37_905
		runs      = 20
	)
	dep := deployWorkload(t, NewSystem(DefaultConfig()), "LlaMA2 Inference", 2)
	run := func() {
		if _, err := dep.Run("Conduit"); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(runs, run)
	if allocs > maxAllocs {
		t.Errorf("%v allocations per Deployment.Run, budget %d", allocs, maxAllocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Deployment.Run: %d bytes in %v allocations", perRun, allocs)
	if perRun > maxBytes {
		t.Errorf("%d bytes per Deployment.Run, budget %d", perRun, maxBytes)
	}
}

// TestServedRequestAllocBudget pins what a served request costs once the
// forks it runs on are recycled devices and its cell has published its
// result: steady-state Server.Do after twenty warm-up requests allocates
// its pending request and response, 288 B in 1 allocation, under each of
// the three policies the serving benchmarks use. A run that reproduces the
// published result returns it and the one RunResult its deployment keeps
// for it, the outcome travels by value and the recovery accounting on the
// stack (1 040 B in 8 allocations while each request built its own
// counters, results, boxed outcome and recovery; 56 KiB of fork and 22 KiB
// of copied chunks before devices were recycled). Nothing is per
// instruction (LLaMA2 at scale 2 allocated 36 000 B in 20 allocations
// while every run recorded its own decisions), so a request costs the same
// at scale 2 as at scale 1. The ceilings are what it measures plus 10 %.
func TestServedRequestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	const maxBytes, maxAllocs = 316, 1 // measures 288 B in 1 allocation
	for _, c := range []struct {
		workload string
		scale    int
	}{{"jacobi-1d", 1}, {"LlaMA2 Inference", 1}, {"LlaMA2 Inference", 2}} {
		srv := NewServer(DefaultConfig(), ServeOptions{Concurrency: 1, Prefork: 2})
		if err := srv.RegisterWorkload(c.workload, c.scale, 1); err != nil {
			t.Fatal(err)
		}
		for _, policy := range []string{"Conduit", "DM-Offloading", "BW-Offloading"} {
			do := func() {
				if _, err := srv.Do(Request{Tenant: "t", Workload: c.workload, Policy: policy}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 20; i++ {
				do()
			}
			const requests = 2000
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < requests; i++ {
				do()
			}
			runtime.ReadMemStats(&after)
			perReq := (after.TotalAlloc - before.TotalAlloc) / requests
			allocs := (after.Mallocs - before.Mallocs) / requests
			t.Logf("%s scale %d %s: %d bytes in %d allocations per served request", c.workload, c.scale, policy, perReq, allocs)
			if perReq > maxBytes || allocs > maxAllocs {
				t.Errorf("%s scale %d %s: %d bytes in %d allocations per served request, budget %d in %d",
					c.workload, c.scale, policy, perReq, allocs, maxBytes, maxAllocs)
			}
		}
		srv.Drain()
	}
}

// TestColdDeployAllocBudget pins what the cold set-up of a timing-only
// grid allocates: building the six scale-1 workloads, compiling them, and
// one System.Deploy of each. An input array declares a filler instead of
// holding its dataset, and only a functional consumer generates pages, so
// neither the build, the compile nor the timing-only deploy (which stages
// nil payloads) makes a dataset byte; compile copies its instructions and
// their sources out of a reused scratch at their final length; the
// firmware image is a flat varint layout whose decoder carves every
// instruction's sources from one array, LoadProgram indexes its page
// tables by the pages the program names, and every deploy clones the
// System's one frozen blank drive instead of building one. It measures
// build 68 KiB, compile 416 KiB while no earlier compile in the process
// has left its emission scratch behind (213-226 KiB when one has), and
// deploy 712 KiB in 809-811 allocations (1 025 KiB in 775-788 while the
// drive's tables copied 1 024-entry chunks; compile 545 KiB and deploy
// 1 092 KiB while instructions took 104 bytes and the scratch sat in a
// sync.Pool that collections emptied; compile 876 KiB and deploy 1 267 KiB
// in 787 while each instruction carried a dependence list and was appended
// to a growing slice; deploy 1 841 KiB in 913 before the page tables were
// sized by the pages the program names, 1 981 KiB in 1 912 with a drive
// built per deploy; 4 870 KiB, 911 KiB, and 2 253 KiB in 1 939 before
// that, with eagerly built datasets, a compiled page image and zero pages
// for unstaged inputs). The ceilings are the most it measures plus 10 %,
// the count's 860 unchanged (a first write into a shared node allocates
// the node's copy and the leaf's together, so the smaller leaves cost no
// count): a dataset built eagerly breaks the build
// budget, a growing instruction slice the compile budget, and a drive
// built per deploy or an allocation per instruction or per page on the
// deploy path breaks the count.
func TestColdDeployAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	const (
		maxBuildKiB     = 75
		maxCompileKiB   = 458
		maxDeployKiB    = 783
		maxDeployAllocs = 860
	)
	sys := NewSystem(DefaultConfig())
	var start, before, mid, after runtime.MemStats
	runtime.ReadMemStats(&start)
	ws := workloads.All(1)
	runtime.ReadMemStats(&before)
	compiled := make([]*Compiled, len(ws))
	for i, w := range ws {
		compiled[i] = mustCompile(t, sys, w)
	}
	runtime.ReadMemStats(&mid)
	for _, c := range compiled {
		if _, err := sys.Deploy(c); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	buildKiB := (before.TotalAlloc - start.TotalAlloc) >> 10
	compileKiB := (mid.TotalAlloc - before.TotalAlloc) >> 10
	deployKiB := (after.TotalAlloc - mid.TotalAlloc) >> 10
	deployAllocs := after.Mallocs - mid.Mallocs
	t.Logf("six scale-1 workloads: build %d KiB, compile %d KiB, deploy %d KiB in %d allocations",
		buildKiB, compileKiB, deployKiB, deployAllocs)
	if buildKiB > maxBuildKiB {
		t.Errorf("building the six workloads allocated %d KiB, budget %d", buildKiB, maxBuildKiB)
	}
	if compileKiB > maxCompileKiB {
		t.Errorf("compiling the six workloads allocated %d KiB, budget %d", compileKiB, maxCompileKiB)
	}
	if deployKiB > maxDeployKiB || deployAllocs > maxDeployAllocs {
		t.Errorf("deploying the six workloads allocated %d KiB in %d allocations, budget %d KiB in %d",
			deployKiB, deployAllocs, maxDeployKiB, maxDeployAllocs)
	}
}

// TestColdGridAllocBudget pins what a cold grid allocates: a fresh
// one-worker harness running the six scale-1 workloads under every policy
// of Policies, compile, deploy and host baselines included, which is one
// sweep_grid call of cmd/conduit-bench. It measures 1 635-1 845 KiB in
// 3 825-3 875 allocations, the spread being whether an earlier compile in
// the process left its emission scratch behind (2 182-2 387 KiB in
// 3 982-4 020 while the drive's tables copied 1 024-entry chunks under a
// directory a clone copied whole, and the harness's flight groups boxed
// each value and keyed each run by a concatenated string; 2 629-3 035 KiB in
// 3 974-4 053 while a decision took 32 bytes plus an eager 8-byte latency,
// an instruction 104 bytes, and collections emptied the scratch's
// sync.Pool; 3 447 KiB in 7 366 while instructions carried dependence
// lists, compile appended them to a growing slice and the host baselines
// grew a locked latency reservoir; 4 451 KiB in 7 571 before the page
// tables were sized by the pages the program names; 8 015 KiB in 10 959
// while each deploy built its drive with ssd.New and each cell kept a
// clone of its own); the ceilings are the most of it plus 10 %.
func TestColdGridAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	const (
		maxGridKiB    = 2030
		maxGridAllocs = 4263
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := NewExperiments(DefaultConfig(), 1)
	e.SetWorkers(1)
	if _, err := e.RunGrid(e.Workloads(), Policies()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	gridKiB := (after.TotalAlloc - before.TotalAlloc) >> 10
	gridAllocs := after.Mallocs - before.Mallocs
	t.Logf("cold grid: %d KiB in %d allocations", gridKiB, gridAllocs)
	if gridKiB > maxGridKiB || gridAllocs > maxGridAllocs {
		t.Errorf("a cold grid allocated %d KiB in %d allocations, budget %d KiB in %d",
			gridKiB, gridAllocs, maxGridKiB, maxGridAllocs)
	}
}

// deployOnNewDrive deploys c onto a drive ssd.New builds for this one
// program: the reference a deploy onto the blank template is held to.
func deployOnNewDrive(s *System, c *Compiled) (*ssd.Device, error) {
	cfg := s.cfg
	return s.install(ssd.New(&cfg), c)
}

// TestBlankTemplateMatchesNewDrive: a deploy onto a clone of the System's
// frozen blank drive runs exactly like one onto a drive ssd.New builds
// for it. Six workloads at scales 1 and 2, every policy of Policies and
// AblationPolicies, each on a fork of one template-deployed master
// against a run straight on its own ssd.New deploy.
func TestBlankTemplateMatchesNewDrive(t *testing.T) {
	policies := append(Policies(), AblationPolicies()...)
	for _, scale := range []int{1, 2} {
		sys := NewSystem(DefaultConfig())
		for _, w := range workloads.All(scale) {
			c := mustCompile(t, sys, w)
			dep, err := sys.Deploy(c)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range policies {
				got, err := dep.Run(p)
				if err != nil {
					t.Fatal(err)
				}
				want, err := sys.runOn(c, lookupPolicy(p), func() (*ssd.Device, error) { return deployOnNewDrive(sys, c) })
				if err != nil {
					t.Fatal(err)
				}
				requireSameRun(t, fmt.Sprintf("%s scale %d under %s", w.Name, scale, p), got, want)
			}
		}
	}
}

// BenchmarkForkRestore is the warm fork a served request pays: on each of
// serve_light's three workloads, a device that has run, and so owns every
// table leaf the run writes, is restored in place from the frozen
// master, and between restores it runs Conduit again, so each restore
// copies back what that run wrote. Only the restores are timed (the run
// stops the timer), and restore-ns is their mean. Run with -benchmem:
// 0 allocs/op is the point (a clone, the cold fork, is
// TestForkAllocBudget's 11–25 KB).
func BenchmarkForkRestore(b *testing.B) {
	sys := NewSystem(DefaultConfig())
	measured := lookupPolicy("Conduit")
	for _, name := range []string{"jacobi-1d", "XOR Filter", "heat-3d"} {
		b.Run(name, func(b *testing.B) {
			dep := deployWorkload(b, sys, name, 1)
			dev := dep.master.Clone()
			for _, policy := range []string{"Conduit", "DM-Offloading", "BW-Offloading"} {
				if _, err := runPolicyOn(dev, lookupPolicy(policy)); err != nil {
					b.Fatal(err)
				}
				dev.Restore(dep.master)
			}
			var restoring time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, err := runPolicyOn(dev, measured); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				start := time.Now()
				dev.Restore(dep.master)
				restoring += time.Since(start)
			}
			b.ReportMetric(float64(restoring.Nanoseconds())/float64(b.N), "restore-ns")
		})
	}
}

// TestRecycledRunIdentical is the recycling contract: whatever policy a
// device executed before, once it is restored from the master it runs
// every policy exactly like a fresh clone. Six workloads, every ordered pair
// (A, B) of the device policies plus Ideal: run A, restore, run B, compare
// with B on a fresh clone, on the timing-only system and (a rotating
// eighth of the pairs) on the functional one, where the output pages are
// compared byte for byte too. The master the device keeps being restored
// from never changes.
func TestRecycledRunIdentical(t *testing.T) {
	var policies []string
	for _, e := range policyTable {
		if e.device != nil && !e.ablation {
			policies = append(policies, e.name)
		}
	}
	policies = append(policies, "Ideal")
	for _, sys := range []*System{NewSystem(DefaultConfig()), NewReferenceSystem(DefaultConfig())} {
		functional := !sys.cfg.SSD.TimingOnly
		if functional && raceEnabled {
			continue // 36 s under the race detector, which has nothing to find on one goroutine
		}
		for _, w := range workloads.All(1) {
			dep, err := sys.Deploy(mustCompile(t, sys, w))
			if err != nil {
				t.Fatal(err)
			}
			progBefore, erasesBefore := flashImage(dep.master)
			fresh := make(map[string]*RunResult, len(policies))
			for _, p := range policies {
				if fresh[p], err = dep.Run(p); err != nil {
					t.Fatal(err)
				}
			}
			dev := dep.master.Clone()
			for ai, a := range policies {
				// The functional data plane is an order of magnitude
				// slower, and so is the race detector: there each A is
				// followed by one B, not by all eight.
				followers := policies
				if functional || raceEnabled {
					followers = policies[(ai+1)%len(policies):][:1]
				}
				for _, b := range followers {
					what := fmt.Sprintf("%s functional=%v: %s after %s", w.Name, functional, b, a)
					dev.Restore(dep.master)
					if _, err := runPolicyOn(dev, lookupPolicy(a)); err != nil {
						t.Fatalf("%s: run A: %v", what, err)
					}
					dev.Restore(dep.master)
					rb, err := runPolicyOn(dev, lookupPolicy(b))
					if err != nil {
						t.Fatalf("%s: run B: %v", what, err)
					}
					requireSameRun(t, what, rb, fresh[b])
					for _, p := range dep.c.Prog.OutputPages {
						if !functional {
							break
						}
						got, gerr := dev.PageBytes(p)
						want, werr := fresh[b].Device.PageBytes(p)
						if gerr != nil || werr != nil || !bytes.Equal(got, want) {
							t.Fatalf("%s: output page %d differs from the fresh clone's (%v, %v)", what, p, gerr, werr)
						}
					}
					if t.Failed() {
						return
					}
				}
			}
			progAfter, erasesAfter := flashImage(dep.master)
			if !reflect.DeepEqual(progAfter, progBefore) || !reflect.DeepEqual(erasesAfter, erasesBefore) {
				t.Fatalf("%s functional=%v: restoring from the master changed its page states or erase counts", w.Name, functional)
			}
		}
	}
}
