package conduit

import (
	"reflect"
	"testing"

	"conduit/internal/cluster"
	"conduit/internal/compiler"
	"conduit/internal/stats"
)

// reduceSource builds a reduce-shaped kernel: per-block lane reductions
// into acc, the case that requires the modeled host-side combine step
// after a sharded run.
func reduceSource(lanes int) *Source {
	data := make([]byte, lanes)
	for i := range data {
		data[i] = byte(i*5 + 2)
	}
	return &Source{
		Name: "reduce-kernel",
		Arrays: []*Array{
			{Name: "v", Elem: 1, Len: lanes, Input: true, Fill: Bytes(data)},
			{Name: "acc", Elem: 1, Len: lanes},
		},
		Stmts: []compiler.Stmt{
			Loop{Name: "sum", N: lanes, Body: []Assign{
				{Target: "acc", Reduce: true, Value: Ref{Name: "v"}},
			}},
		},
	}
}

// TestClusterMergeArithmetic drives the merge with synthetic per-shard
// results and checks every rule exactly: max-of-shards for the parallel
// phase, shard-order sums for energy and counters, reservoir union,
// decision concatenation, and the reduction charge from the model.
func TestClusterMergeArithmetic(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	cl, err := sys.DeployCluster(reduceSource(2*16384), ClusterOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.reducePages == 0 {
		t.Fatal("reduce-shaped kernel planned zero reduce pages")
	}
	if got := cl.Plan().ReducePages; got != cl.reducePages {
		t.Fatalf("Plan().ReducePages = %d, want %d", got, cl.reducePages)
	}

	mkPart := func(elapsed Time, overhead Time, computeJ, movementJ float64, lat []Time, counter int64) *RunResult {
		res := stats.NewReservoir()
		for _, v := range lat {
			res.Add(v)
		}
		ctr := stats.NewCounters()
		ctr.Add("flash.senses", counter)
		return &RunResult{
			Policy:         "Conduit",
			Elapsed:        elapsed,
			OverheadTime:   overhead,
			ComputeEnergy:  computeJ,
			MovementEnergy: movementJ,
			InstLatencies:  res,
			Decisions:      []Decision{{InstID: int32(counter)}},
			Counters:       ctr,
		}
	}
	parts := []*RunResult{
		mkPart(100, 7, 1.5, 0.25, []Time{5, 9}, 3),
		mkPart(250, 4, 2.25, 0.5, []Time{1}, 11),
	}
	merged := cl.merge(parts)

	red := cluster.ReduceModel(&sys.cfg, 2, cl.reducePages)
	if red.Time <= 0 {
		t.Fatal("reduction model priced zero time for a 2-shard reduce kernel")
	}
	if want := Time(250) + red.Time; merged.Elapsed != want {
		t.Errorf("Elapsed = %v, want max(100, 250) + reduction %v = %v", merged.Elapsed, red.Time, want)
	}
	if merged.OverheadTime != 7 {
		t.Errorf("OverheadTime = %v, want max(7, 4)", merged.OverheadTime)
	}
	if want := 1.5 + 2.25 + red.ComputeJ; merged.ComputeEnergy != want {
		t.Errorf("ComputeEnergy = %v, want %v", merged.ComputeEnergy, want)
	}
	if want := 0.25 + 0.5 + red.MovementJ; merged.MovementEnergy != want {
		t.Errorf("MovementEnergy = %v, want %v", merged.MovementEnergy, want)
	}
	if merged.InstLatencies.Count() != 3 || merged.InstLatencies.Mean() != 5 {
		t.Errorf("latency union: count=%d mean=%d, want 3, 5",
			merged.InstLatencies.Count(), merged.InstLatencies.Mean())
	}
	wantDecisions := []Decision{{InstID: 3}, {InstID: 11}}
	if !reflect.DeepEqual(merged.Decisions, wantDecisions) {
		t.Errorf("Decisions = %v, want shard-order concat %v", merged.Decisions, wantDecisions)
	}
	if got := merged.Counters.Get("flash.senses"); got != 14 {
		t.Errorf("counter sum = %d, want 14", got)
	}
	if merged.Device != nil {
		t.Error("merged result exposes a device")
	}
}

// TestClusterReductionChargedOnRealRun: an executed 2-shard reduce kernel
// carries the reduction charge relative to its own shard maximum — and
// stays deterministic between concurrent and serial execution.
func TestClusterReductionChargedOnRealRun(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	cl, err := sys.DeployCluster(reduceSource(2*16384), ClusterOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	conc, err := cl.Run("Conduit")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := cl.RunSerial("Conduit")
	if err != nil {
		t.Fatal(err)
	}
	if conc.Elapsed != serial.Elapsed || conc.ComputeEnergy != serial.ComputeEnergy ||
		conc.MovementEnergy != serial.MovementEnergy {
		t.Fatal("reduce-kernel cluster run not deterministic across execution orders")
	}
	red := cluster.ReduceModel(&sys.cfg, 2, cl.reducePages)
	if conc.Elapsed <= red.Time {
		t.Fatalf("merged elapsed %v does not exceed the reduction charge %v", conc.Elapsed, red.Time)
	}
	// A non-reducing kernel on the same cluster config pays nothing: its
	// plan records zero reduce pages.
	plain, err := sys.DeployCluster(xorMiniSource(2*16384), ClusterOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if plain.Plan().ReducePages != 0 {
		t.Fatal("non-reducing kernel planned reduce pages")
	}
}

// TestClusterReducePagesSumAcrossUnevenShards: an uneven plan (5 blocks
// over 3 shards → per-shard blocks 1/2/2) must price exactly the partial
// pages that exist — the across-shard sum of 5 — not shards × max.
func TestClusterReducePagesSumAcrossUnevenShards(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	cl, err := sys.DeployCluster(reduceSource(5*16384), ClusterOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if got := cl.reducePages; got != 5 {
		t.Fatalf("reducePages = %d, want the across-shard sum 5 (1+2+2)", got)
	}
	red := cluster.ReduceModel(&sys.cfg, 3, cl.reducePages)
	if want := int64(5 * sys.cfg.SSD.PageSize); red.Bytes != want {
		t.Fatalf("reduction bytes = %d, want %d", red.Bytes, want)
	}
}

// xorMiniSource mirrors the black-box helper for white-box use.
func xorMiniSource(n int) *Source {
	a := make([]byte, n)
	for i := range a {
		a[i] = byte(i * 13)
	}
	return &Source{
		Name: "mini-xor-internal",
		Arrays: []*Array{
			{Name: "a", Elem: 1, Len: n, Input: true, Fill: Bytes(a)},
			{Name: "out", Elem: 1, Len: n},
		},
		Stmts: []compiler.Stmt{
			Loop{Name: "fold", N: n, Body: []Assign{
				{Target: "out", Value: Bin{Op: OpXor, X: Ref{Name: "a"}, Y: Lit{Value: 0x5A}}},
			}},
		},
	}
}
