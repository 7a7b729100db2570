package conduit_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	conduit "conduit"
	"conduit/internal/workloads"
)

// countersKey flattens a counter set into a comparable snapshot (nil maps
// to nil, so host results compare equal too).
func countersKey(c *conduit.Counters) map[string]int64 {
	if c == nil {
		return nil
	}
	out := make(map[string]int64)
	for _, name := range c.Names() {
		out[name] = c.Get(name)
	}
	return out
}

// TestClusterSingleShardMatchesDeployment is the first half of the
// cluster determinism contract: a 1-shard Cluster run must be
// byte-identical to Deployment.Run on the same workload — same timing,
// energy, latency distribution, decision trace, and substrate counters —
// across host, in-SSD, and ideal policies.
func TestClusterSingleShardMatchesDeployment(t *testing.T) {
	cfg := conduit.DefaultConfig()
	sys := conduit.NewSystem(cfg)
	src := xorFilterSource(3 * 16384)
	c, err := conduit.Compile(src, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := sys.Deploy(c)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := sys.DeployCluster(src, conduit.ClusterOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Shards() != 1 {
		t.Fatalf("Shards() = %d, want 1", cl.Shards())
	}
	for _, policy := range []string{"CPU", "Conduit", "Ares-Flash", "Ideal"} {
		want, err := dep.Run(policy)
		if err != nil {
			t.Fatalf("%s deployment: %v", policy, err)
		}
		got, err := cl.Run(policy)
		if err != nil {
			t.Fatalf("%s cluster: %v", policy, err)
		}
		if !reflect.DeepEqual(keyOf(got), keyOf(want)) {
			t.Errorf("%s: 1-shard cluster result differs from Deployment.Run\n got: %+v\nwant: %+v",
				policy, keyOf(got), keyOf(want))
		}
		if !reflect.DeepEqual(countersKey(got.Counters), countersKey(want.Counters)) {
			t.Errorf("%s: 1-shard cluster counters differ from Deployment.Run", policy)
		}
		if got.Device != nil {
			t.Errorf("%s: cluster-merged result exposes a device", policy)
		}
	}
}

// TestClusterConcurrentMatchesSerial is the second half of the contract:
// an N-shard concurrent scatter-gather run must be byte-identical to
// executing the shards one by one — and repeatable. The shard count is
// chosen to split the 4-block lane space unevenly (1/1/2 blocks), so the
// merge order discipline is actually exercised. Run with -race to also
// check the scatter path's memory discipline.
func TestClusterConcurrentMatchesSerial(t *testing.T) {
	cfg := conduit.DefaultConfig()
	sys := conduit.NewSystem(cfg)
	src := xorFilterSource(4 * 16384)
	cl, err := sys.DeployCluster(src, conduit.ClusterOptions{Shards: 3, Prefork: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, policy := range []string{"Conduit", "Ares-Flash", "CPU"} {
		serial, err := cl.RunSerial(policy)
		if err != nil {
			t.Fatalf("%s serial: %v", policy, err)
		}
		wantKey, wantCounters := keyOf(serial), countersKey(serial.Counters)
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := cl.Run(policy)
				if err != nil {
					t.Errorf("%s concurrent: %v", policy, err)
					return
				}
				if !reflect.DeepEqual(keyOf(got), wantKey) {
					t.Errorf("%s: concurrent shard execution differs from serial", policy)
				}
				if !reflect.DeepEqual(countersKey(got.Counters), wantCounters) {
					t.Errorf("%s: concurrent counters differ from serial", policy)
				}
			}()
		}
		wg.Wait()
	}
}

// TestClusterShardingSpeedsUpAndScattersWork: sanity on the model — an
// N-shard run of a device policy is no slower than 1-shard end to end
// (each device holds 1/N of the data), and the merged trace still covers
// every shard's instructions.
func TestClusterShardingSpeedsUpAndScattersWork(t *testing.T) {
	cfg := conduit.DefaultConfig()
	sys := conduit.NewSystem(cfg)
	src := xorFilterSource(4 * 16384)
	one, err := sys.DeployCluster(src, conduit.ClusterOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	four, err := sys.DeployCluster(src, conduit.ClusterOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer four.Close()
	r1, err := one.Run("Conduit")
	if err != nil {
		t.Fatal(err)
	}
	r4, err := four.Run("Conduit")
	if err != nil {
		t.Fatal(err)
	}
	if r4.Elapsed > r1.Elapsed {
		t.Errorf("4-shard run slower than 1-shard: %v > %v", r4.Elapsed, r1.Elapsed)
	}
	if len(r4.Decisions) == 0 || r4.InstLatencies.Count() == 0 {
		t.Error("merged result lost the per-shard traces")
	}
}

// TestClusterPlanUsesWorkloadMetadata: the cluster follows
// internal/workloads shardability — AES round keys broadcast, state
// partitions.
func TestClusterPlanUsesWorkloadMetadata(t *testing.T) {
	w, ok := workloads.Find("aes", 1)
	if !ok {
		t.Fatal("aes workload missing")
	}
	sys := conduit.NewSystem(conduit.DefaultConfig())
	cl, err := sys.DeployCluster(w.Source, conduit.ClusterOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	plan := cl.Plan()
	if !reflect.DeepEqual(plan.Partitioned, []string{"state", "tmp"}) {
		t.Errorf("partitioned = %v, want [state tmp]", plan.Partitioned)
	}
	if len(plan.Broadcast) != 15 || plan.Broadcast[0] != "rk0" {
		t.Errorf("broadcast = %v, want the 15 round-key arrays", plan.Broadcast)
	}
	if plan.Shards != 2 || plan.ReducePages != 0 {
		t.Errorf("plan = %+v", plan)
	}
}

func TestClusterErrors(t *testing.T) {
	cfg := conduit.DefaultConfig()
	sys := conduit.NewSystem(cfg)
	src := xorFilterSource(2 * 16384) // 2 vector blocks
	if _, err := sys.DeployCluster(src, conduit.ClusterOptions{Shards: 5}); !errors.Is(err, conduit.ErrTooManyShards) {
		t.Errorf("oversharded deploy: err = %v, want ErrTooManyShards", err)
	}
	cl, err := sys.DeployCluster(src, conduit.ClusterOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Run("NoSuchPolicy"); err == nil {
		t.Error("unknown policy accepted by Run")
	}
	if _, err := cl.RunSerial("NoSuchPolicy"); err == nil {
		t.Error("unknown policy accepted by RunSerial")
	}
}

// TestClusterServeShardedDrainLeavesNoLeakedForks: a drained server must
// leave no fork — ready, or parked for reuse — on any shard of a
// clustered application, and the pool report must carry one closed entry
// per shard.
func TestClusterServeShardedDrainLeavesNoLeakedForks(t *testing.T) {
	cfg := conduit.DefaultConfig()
	srv := conduit.NewServer(cfg, conduit.ServeOptions{Concurrency: 2, Prefork: 2})
	if err := srv.RegisterSharded("xf", xorFilterSource(4*16384), 2); err != nil {
		t.Fatal(err)
	}
	// A sharded and a plain app coexist on one server.
	if err := srv.Register("plain", quickstartSource(2*16384)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := "xf"
			if i%2 == 1 {
				name = "plain"
			}
			if _, err := srv.Do(conduit.Request{Tenant: "t", Workload: name, Policy: "Conduit"}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	srv.Drain()
	srv.Drain() // idempotent

	pools := srv.PoolStats()
	for _, key := range []string{"xf#0", "xf#1", "plain"} {
		ps, ok := pools[key]
		if !ok {
			t.Fatalf("pool stats missing entry %q (have %v)", key, poolKeys(pools))
		}
		if !ps.Closed {
			t.Errorf("%s: pool still open after drain", key)
		}
		if ps.Idle != 0 {
			t.Errorf("%s: %d forks still ready or parked after drain", key, ps.Idle)
		}
	}
	if n := srv.ParkedForks(); n != 0 {
		t.Errorf("%d used devices still parked for reuse after drain", n)
	}
	if _, err := srv.Do(conduit.Request{Tenant: "t", Workload: "xf", Policy: "Conduit"}); !errors.Is(err, conduit.ErrDraining) {
		t.Fatalf("Do after Drain: err = %v, want ErrDraining", err)
	}
	if err := srv.RegisterSharded("late", xorFilterSource(2*16384), 2); !errors.Is(err, conduit.ErrDraining) {
		t.Fatalf("RegisterSharded after Drain: err = %v, want ErrDraining", err)
	}
}

func poolKeys(m map[string]conduit.PoolStats) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestClusterServedMatchesDirect: a request served through a sharded
// registration returns the same merged result as driving the cluster
// directly.
func TestClusterServedMatchesDirect(t *testing.T) {
	cfg := conduit.DefaultConfig()
	src := xorFilterSource(4 * 16384)
	cl, err := conduit.NewSystem(cfg).DeployCluster(src, conduit.ClusterOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	want, err := cl.Run("Conduit")
	if err != nil {
		t.Fatal(err)
	}
	srv := conduit.NewServer(cfg, conduit.ServeOptions{Concurrency: 2, Prefork: 1})
	defer srv.Drain()
	if err := srv.RegisterSharded("xf", src, 2); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Do(conduit.Request{Tenant: "t", Workload: "xf", Policy: "Conduit"})
	if err != nil {
		t.Fatal(err)
	}
	if got := conduit.ResultOf(resp); !reflect.DeepEqual(keyOf(got), keyOf(want)) {
		t.Fatal("served sharded result differs from direct cluster run")
	}
}

// BenchmarkClusterScatterGather measures a deploy-amortized cluster run
// at increasing shard counts (the -shards scaling axis of cmd/experiments
// and conduit-serve).
func BenchmarkClusterScatterGather(b *testing.B) {
	cfg := conduit.DefaultConfig()
	sys := conduit.NewSystem(cfg)
	src := xorFilterSource(8 * 16384)
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cl, err := sys.DeployCluster(src, conduit.ClusterOptions{Shards: shards, Prefork: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cl.Run("Conduit"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
