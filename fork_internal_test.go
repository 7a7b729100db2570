package conduit

import (
	"reflect"
	"runtime"
	"testing"

	"conduit/internal/ssd"
	"conduit/internal/workloads"
)

func deployWorkload(t *testing.T, sys *System, name string, scale int) *Deployment {
	t.Helper()
	w, ok := workloads.Find(name, scale)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	cfg := sys.Config()
	c, err := Compile(w.Source, &cfg)
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
	if gl.Count() != wl.Count() || gl.Sum() != wl.Sum() || gl.Max() != wl.Max() || gl.P99() != wl.P99() {
		t.Errorf("%s: instruction latencies differ", what)
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
		fresh, err := sys.RunCompiled(dep.Compiled(), policy)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRun(t, policy+": fork after an earlier fork ran vs fresh deploy", b, fresh)
		requireSameRun(t, policy+": first fork vs fresh deploy", a, fresh)
	}
}

// TestForkAllocBudget pins what a fork of a frozen master costs at
// DefaultConfig: the chunk pointers of the copy-on-write tables plus the
// small per-plane, per-slot and measurement state — not the drive's
// per-page bookkeeping (928 KiB and 414 allocations before the tables
// moved to internal/cow). Allocation counts are exact run to run, so the
// ceilings are a gate, not a timing.
func TestForkAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	const (
		maxAllocs = 128
		maxBytes  = 100 << 10
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
		if allocs := testing.AllocsPerRun(forks, fork); allocs > maxAllocs {
			t.Errorf("%s: %v allocations per fork, budget %d", w.name, allocs, maxAllocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < forks; i++ {
			fork()
		}
		runtime.ReadMemStats(&after)
		if perFork := (after.TotalAlloc - before.TotalAlloc) / forks; perFork > maxBytes {
			t.Errorf("%s: %d bytes per fork, budget %d", w.name, perFork, maxBytes)
		}
	}
}

// TestRunAllocBudget pins what one pooled-path request costs beyond the
// fork: Deployment.Run (fork + Device.Run + result) on LLaMA2 at scale 2
// under Conduit. The per-instruction path indexes tables and reuses
// scratch, so the count does not grow with the instruction stream (1266
// allocations and 241 KiB before the slot, page and energy maps became
// tables). The ceilings are what it measures — 83 allocations, 134.8 KiB
// — plus 10 %.
func TestRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	const (
		maxAllocs = 91
		maxBytes  = 148 << 10
		runs      = 20
	)
	dep := deployWorkload(t, NewSystem(DefaultConfig()), "LlaMA2 Inference", 2)
	run := func() {
		if _, err := dep.Run("Conduit"); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(runs, run); allocs > maxAllocs {
		t.Errorf("%v allocations per Deployment.Run, budget %d", allocs, maxAllocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > maxBytes {
		t.Errorf("%d bytes per Deployment.Run, budget %d", perRun, maxBytes)
	}
}
