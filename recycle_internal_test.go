package conduit

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"conduit/internal/faultinject"
	"conduit/internal/isa"
	"conduit/internal/offload"
	"conduit/internal/serve"
	"conduit/internal/ssd"
	"conduit/internal/stats"
)

// held lists the devices d holds for the next fork, ready or parked.
func (d *Deployment) held() []*ssd.Device {
	d.poolMu.Lock()
	defer d.poolMu.Unlock()
	return slices.Concat(d.ready, d.used)
}

// parked reports how many devices d holds for the next fork, ready or
// parked.
func (d *Deployment) parked() int { return len(d.held()) }

// ParkedForks counts the devices held for the next fork by every
// registered application, each shard of a cluster included: what the
// external drain tests assert is zero. (PoolStats.Idle counts the same
// devices, and is all a remote target can show.)
func (s *Server) ParkedForks() int {
	n := 0
	for _, r := range s.sorted() {
		switch app := r.app.(type) {
		case *Deployment:
			n += app.parked()
		case *Cluster:
			for _, dep := range app.deps {
				n += dep.parked()
			}
		}
	}
	return n
}

// park hands d a fork as a caller that drops its device would.
func (d *Deployment) park() *ssd.Device {
	dev := d.master.Clone()
	d.parkDevice(dev)
	return dev
}

// requireNoneOf fails when a device d holds, or one of d's next forks, is
// one of stale: a device that was ready or parked before a Quarantine or
// a Close is never handed out after it.
func requireNoneOf(t *testing.T, what string, d *Deployment, stale []*ssd.Device, forks int) {
	t.Helper()
	for _, dev := range d.held() {
		if slices.Contains(stale, dev) {
			t.Errorf("%s: a device held before is still held", what)
		}
	}
	for i := 0; i < forks; i++ {
		dev, err := d.fork()
		if err != nil {
			t.Fatalf("%s: fork: %v", what, err)
		}
		if slices.Contains(stale, dev) {
			t.Errorf("%s: fork %d handed out a device held before", what, i)
		}
	}
}

// brokenPolicy is a device policy whose run dies part-way: it panics on
// its third instruction, or fails on the first instruction some resource
// cannot run by picking that resource.
type brokenPolicy struct {
	panics bool
	seen   *int
}

func (brokenPolicy) Name() string { return "broken" }

func (p brokenPolicy) Select(f *offload.Features) isa.Resource {
	if *p.seen++; p.panics && *p.seen == 3 {
		panic("policy exploded")
	}
	for _, r := range isa.AllResources {
		if !p.panics && !f.Supported[r] {
			return r
		}
	}
	return isa.ResISP
}

// withBrokenPolicies registers the two misbehaving policies for the test.
func withBrokenPolicies(t *testing.T) {
	saved := policyTable
	t.Cleanup(func() { policyTable = saved })
	policyTable = append(append([]policyEntry(nil), saved...),
		policyEntry{name: "fails", ablation: true, device: func() offload.Policy { return brokenPolicy{seen: new(int)} }},
		policyEntry{name: "panics", ablation: true, device: func() offload.Policy { return brokenPolicy{panics: true, seen: new(int)} }})
}

// TestRecycleOnlyAfterAResult: the serving path parks the device of a run
// that returned a result, and the next fork is that device restored; a run
// that failed or panicked leaves the list as it was, and so does a host
// run, which has no device.
func TestRecycleOnlyAfterAResult(t *testing.T) {
	withBrokenPolicies(t)
	sys := NewSystem(DefaultConfig())
	dep := deployWorkload(t, sys, "AES", 1) // AES has ISP-only instructions for "fails" to misplace
	r := newResilient("aes", dep, nil, RecoveryOptions{})

	if _, _, err := r.run(lookupPolicy("fails"), nil); err == nil || !strings.Contains(err.Error(), "unsupported") {
		t.Fatalf("broken policy: err = %v, want the device's 'unsupported' refusal", err)
	}
	if _, _, err := r.run(lookupPolicy("panics"), nil); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking policy: err = %v, want a contained panic", err)
	}
	if _, _, err := r.run(lookupPolicy("CPU"), nil); err != nil {
		t.Fatal(err)
	}
	if n := dep.parked(); n != 0 {
		t.Fatalf("%d devices parked after a failed, a panicked and a host run, want 0", n)
	}

	res, _, err := r.run(lookupPolicy("Conduit"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Device != nil {
		t.Error("a served result exposes its device")
	}
	if n := dep.parked(); n != 1 {
		t.Fatalf("%d devices parked after a served run, want 1", n)
	}
	first := dep.used[0]
	if first.En.ComputeTotal() == 0 { // a deploy resets the energy account; a run charges it
		t.Error("the parked device is not the one that ran")
	}
	// A failing run's fork takes the parked device like any other fork,
	// and does not give it back.
	if _, _, err := r.run(lookupPolicy("fails"), nil); err == nil {
		t.Fatal("broken policy served")
	}
	if n := dep.parked(); n != 0 {
		t.Fatalf("%d devices parked after a failed run consumed the parked fork, want 0", n)
	}

	for i := 0; i < 3; i++ {
		if _, _, err := r.run(lookupPolicy("Conduit"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := dep.parked(); n != 1 {
		t.Fatalf("%d devices parked after sequential served runs, want 1 (the same device, over and over)", n)
	}
	again := dep.used[0]
	if _, _, err := r.run(lookupPolicy("DM-Offloading"), nil); err != nil {
		t.Fatal(err)
	}
	if dep.used[0] != again {
		t.Error("the next fork did not restore the parked device")
	}

	// Deployment.Run and Fork hand the device to the caller: never parked.
	own, err := dep.Run("Conduit")
	if err != nil {
		t.Fatal(err)
	}
	if own.Device != again || dep.parked() != 0 {
		t.Errorf("Run: device %p (parked %p), %d parked; want the restored device handed out and none parked", own.Device, again, dep.parked())
	}
	if _, err := dep.Run("Conduit"); err != nil {
		t.Fatal(err)
	}
	if n := dep.parked(); n != 0 {
		t.Errorf("%d devices parked after Deployment.Run, want 0: the caller owns that device", n)
	}
}

// TestPoisonedForkIsDropped: the injector's poisoned fork really consumes
// a fork — the parked device, when there is one — and that device is
// discarded, not parked again; quarantining then drops every ready and
// parked device and re-clones the ready list to depth.
func TestPoisonedForkIsDropped(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	dep := deployWorkload(t, sys, "jacobi-1d", 1)
	poison := newResilient("jacobi", dep, faultinject.New(faultinject.Config{Seed: 5, PoisonFork: 1}), RecoveryOptions{})

	dep.park()
	var rec serve.Recovery
	if _, err := poison.runShard(dep, 0, lookupPolicy("Conduit"), &rec, nil); err == nil || !strings.Contains(err.Error(), "poisoned fork") {
		t.Fatalf("err = %v, want a poisoned fork", err)
	}
	if n := dep.parked(); n != 0 {
		t.Fatalf("%d devices parked after a poisoned fork (pool-less), want 0", n)
	}

	pool := dep.Prefork(2)
	defer dep.Close()
	dep.park()
	dep.park()
	if st := pool.Stats(); st.Idle != 4 {
		t.Fatalf("Idle = %d with 2 ready forks and 2 parked devices, want 4", st.Idle)
	}
	stale := dep.held()
	if _, err := poison.runShard(dep, 0, lookupPolicy("Conduit"), &rec, nil); err == nil {
		t.Fatal("poisoned fork served")
	}
	if st := pool.Stats(); st.Quarantined != 1 || st.Repairs != 1 || st.Idle != 2 {
		t.Errorf("Quarantined = %d, Repairs = %d, Idle = %d; want 1, 1 and the 2 re-cloned forks", st.Quarantined, st.Repairs, st.Idle)
	}
	requireNoneOf(t, "after Quarantine", dep, stale, 4)
}

// TestCloseEndsRecycling: Close — of a pooled or a pool-less deployment —
// drops every ready and parked device, and every device that comes back
// later is dropped, also under a pool attached after the Close; replacing
// a live pool drops them too but recycling goes on.
func TestCloseEndsRecycling(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	dep := deployWorkload(t, sys, "jacobi-1d", 1)
	pool := dep.Prefork(2)
	for i := 0; i < 3; i++ {
		dep.park()
	}
	stale := dep.held()
	dep.Close()
	if st := pool.Stats(); dep.parked() != 0 || st.Idle != 0 || !st.Closed {
		t.Errorf("%d parked, stats %+v; want nothing held", dep.parked(), st)
	}
	dep.park()
	if n := dep.parked(); n != 0 {
		t.Error("a device that came back after the close was parked")
	}
	// A pool attached afterwards forks again, but the deployment's
	// recycling life is over.
	again := dep.Prefork(1)
	back := dep.park()
	if st := again.Stats(); st.Idle != 1 {
		t.Errorf("after a later Prefork: Idle = %d, want the one ready fork", st.Idle)
	}
	requireNoneOf(t, "after a later Prefork", dep, append(stale, back), 3)
	dep.Close()

	// Pool-less: Close is the only lifecycle event there is.
	dep = deployWorkload(t, sys, "jacobi-1d", 1)
	for i := 0; i < 3; i++ {
		dep.park()
	}
	dep.Close()
	dep.park()
	if n := dep.parked(); n != 0 {
		t.Errorf("pool-less: %d devices parked after Close, want 0", n)
	}

	// Replacing a live pool closes the old one and drops what it held,
	// but the deployment goes on recycling under the new pool.
	dep = deployWorkload(t, sys, "jacobi-1d", 1)
	dep.Prefork(1)
	dep.park()
	stale = dep.held()
	next := dep.Prefork(1)
	defer dep.Close()
	if held := dep.held(); len(held) != 1 || slices.Contains(stale, held[0]) {
		t.Errorf("replaced pool: %d devices held, want only the new pool's fresh fork", len(held))
	}
	before := next.Stats()
	dev := dep.master.Clone()
	res, err := runPolicyOn(dev, lookupPolicy("Conduit"))
	if err != nil {
		t.Fatal(err)
	}
	dep.parkDevice(res.Device)
	if n := dep.parked(); n != 2 {
		t.Fatalf("replaced pool: %d devices ready or parked, want 2: recycling goes on", n)
	}
	// Get's restock restores exactly that device behind the ready fork.
	if got, err := next.Get(); err != nil || got == dev {
		t.Fatalf("Get: %p, %v; want the ready fork", got, err)
	}
	if got, err := next.Get(); err != nil || got != dev || got.En.ComputeTotal() != 0 {
		t.Fatalf("Get: %p, %v; want the parked device %p, restored", got, err, dev)
	}
	// The second Get's restock is a clone, because nothing is parked.
	if st := next.Stats(); st.Restored != before.Restored+1 || st.Preforked != before.Preforked+2 {
		t.Errorf("Restored %d -> %d, Preforked %d -> %d; want one more restored and two more preforked",
			before.Restored, st.Restored, before.Preforked, st.Preforked)
	}
}

// TestParkedForksAreReforked: every device parked after a wave of forks
// is kept for the next wave, however wide the wave, so a second wave as
// wide as the first clones nothing. A server whose Concurrency exceeds
// GOMAXPROCS plus its Prefork depth forks such waves in steady serving.
func TestParkedForksAreReforked(t *testing.T) {
	const depth = 2
	dep := deployWorkload(t, NewSystem(DefaultConfig()), "jacobi-1d", 1)
	dep.Prefork(depth)
	defer dep.Close()
	wave := runtime.GOMAXPROCS(0) + depth + 2
	forkWave := func() []*ssd.Device {
		devs := make([]*ssd.Device, wave)
		for i := range devs {
			dev, err := dep.fork()
			if err != nil {
				t.Fatal(err)
			}
			devs[i] = dev
		}
		return devs
	}
	first := forkWave()
	for _, dev := range first {
		dep.parkDevice(dev)
	}
	for i, dev := range forkWave() {
		if !slices.Contains(first, dev) {
			t.Errorf("fork %d of the second wave of %d is a clone", i, wave)
		}
	}
}

// TestPoolIdleBoundedByBurst: with no cap on parking, the devices a
// deployment holds are bounded by its traffic. After bursts of n
// concurrent served runs (fork, run, park, settle) it holds at most
// n + depth.
func TestPoolIdleBoundedByBurst(t *testing.T) {
	const depth, n = 2, 6
	dep := deployWorkload(t, NewSystem(DefaultConfig()), "jacobi-1d", 1)
	pool := dep.Prefork(depth)
	defer dep.Close()
	p := lookupPolicy("Conduit")
	for burst := 0; burst < 3; burst++ {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := dep.runParked(p); err != nil {
					t.Error(err)
				}
				dep.settle()
			}()
		}
		wg.Wait()
		if idle := pool.Stats().Idle; idle > n+depth {
			t.Errorf("burst %d: Idle = %d after %d concurrent runs, want at most %d + depth %d", burst, idle, n, n, depth)
		}
	}
}

// TestPoolStartsNoGoroutine: a pool's whole life — Prefork, a Run, a
// Quarantine and Close — runs on its caller's goroutine.
func TestPoolStartsNoGoroutine(t *testing.T) {
	dep := deployWorkload(t, NewSystem(DefaultConfig()), "jacobi-1d", 1)
	before := runtime.NumGoroutine()
	pool := dep.Prefork(2)
	if _, err := dep.Run("Conduit"); err != nil {
		t.Fatal(err)
	}
	pool.Quarantine()
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines with a live pool, %d before Prefork", n, before)
	}
	dep.Close()
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Close, %d before Prefork", n, before)
	}
}

// TestServedResultSurvivesRecycling is the package doc's immutability
// promise with recycling on: a served RunResult shares nothing mutable with
// the device that produced it, so restoring and re-running that device for
// twenty more requests leaves the result exactly as it was returned. Its
// reservoir is compared by its statistics: it may be the deployment's
// published one, which a sibling's percentile query sorts in place.
func TestServedResultSurvivesRecycling(t *testing.T) {
	srv := NewServer(DefaultConfig(), ServeOptions{Concurrency: 1, Prefork: 2})
	defer srv.Drain()
	if err := srv.RegisterWorkload("heat-3d", 1, 1); err != nil {
		t.Fatal(err)
	}
	do := func(policy string) *RunResult {
		t.Helper()
		resp, err := srv.Do(Request{Tenant: "t", Workload: "heat-3d", Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		return ResultOf(resp)
	}
	kept := do("Conduit")
	decisions := append([]Decision(nil), kept.Decisions...)
	latencies, counters := stats.MergeReservoirs(kept.InstLatencies), stats.NewCounters()
	counters.Merge(kept.Counters)
	policies := []string{"DM-Offloading", "Conduit", "Ares-Flash", "BW-Offloading", "ISP"}
	for i := 0; i < 20; i++ {
		do(policies[i%len(policies)])
	}
	if st := srv.PoolStats()["heat-3d"]; st.Restored == 0 {
		t.Logf("no fork was restored in 21 sequential requests (stats %+v)", st)
	}
	if !reflect.DeepEqual(kept.Decisions, decisions) {
		t.Error("a kept result's Decisions changed while its device was reused")
	}
	if kl := kept.InstLatencies; kl.Count() != latencies.Count() || kl.Mean() != latencies.Mean() ||
		kl.Percentile(100) != latencies.Percentile(100) || kl.Percentile(50) != latencies.Percentile(50) || kl.P99() != latencies.P99() {
		t.Error("a kept result's InstLatencies changed while its device was reused")
	}
	if !reflect.DeepEqual(kept.Counters, counters) {
		t.Error("a kept result's Counters changed while its device was reused")
	}
	fresh, err := deployWorkload(t, srv.sys, "heat-3d", 1).Run("Conduit")
	if err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, "kept served result vs a fresh deployment's", kept, fresh)
}

// TestSteadyServingClonesNothing: once a served device is ready, each
// sequential request, through Do and through Submit, forks the device the
// previous one settled, so nothing is cloned.
func TestSteadyServingClonesNothing(t *testing.T) {
	srv := NewServer(DefaultConfig(), ServeOptions{Concurrency: 1, Prefork: 2})
	defer srv.Drain()
	if err := srv.RegisterWorkload("jacobi-1d", 1, 1); err != nil {
		t.Fatal(err)
	}
	pool := srv.apps["jacobi-1d"].app.(*Deployment).Pool()
	req := Request{Tenant: "t", Workload: "jacobi-1d", Policy: "Conduit"}
	if _, err := srv.Do(req); err != nil {
		t.Fatal(err)
	}
	clones := func(s PoolStats) int64 { return s.Preforked + s.Misses - s.Restored }
	before := pool.Stats()
	for i := 0; i < 1000; i++ {
		if _, err := srv.Do(req); err != nil {
			t.Fatal(err)
		}
	}
	answered := make(chan error, 1)
	for i := 0; i < 1000; i++ {
		if err := srv.Submit(req, func(r *Response) { answered <- r.Err }); err != nil {
			t.Fatal(err)
		}
		if err := <-answered; err != nil {
			t.Fatal(err)
		}
	}
	if after := pool.Stats(); clones(after) != clones(before) {
		t.Errorf("2 000 steady requests: clones %d -> %d, want unchanged", clones(before), clones(after))
	}
}

// TestSharedResultNeverWritten: every served request that reproduces its
// policy's published result returns one RunResult, so nothing on the
// served path may write it. Two goroutines serve one (workload, policy)
// through fault injection and the whole recovery ladder — retries, and a
// breaker that falls back to CPU — so requests whose retry penalties and
// slowdowns are charged to a copy run beside clean ones that return the
// shared result. Under -race a write to it fails the test; in any mode
// every clean response equals a fresh deployment's run, and the shared
// result reads afterwards as it did before.
func TestSharedResultNeverWritten(t *testing.T) {
	const workload, policy, perClient = "jacobi-1d", "Conduit", 40
	faults := FaultsAtRate(0.2, 11)
	srv := NewServer(DefaultConfig(), ServeOptions{
		Concurrency: 2, Prefork: 2, Faults: &faults,
		Recovery: RecoveryOptions{MaxAttempts: 3, BreakerThreshold: 2, FallbackPolicy: "CPU"},
	})
	defer srv.Drain()
	if err := srv.RegisterWorkload(workload, 1, 1); err != nil {
		t.Fatal(err)
	}
	dep := srv.app(workload).app.(*Deployment)
	shared, err := dep.runAttempt(lookupPolicy(policy), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if again, err := dep.runAttempt(lookupPolicy(policy), nil, ""); err != nil || again != shared {
		t.Fatalf("a second served run did not return the shared result (err %v)", err)
	}
	before, decisions, counters := *shared, slices.Clone(shared.Decisions), stats.NewCounters()
	counters.Merge(shared.Counters)

	resps := make([][]*Response, 2)
	var wg sync.WaitGroup
	for c := range resps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, _ := srv.Do(Request{Tenant: "t", Workload: workload, Policy: policy})
				resps[c] = append(resps[c], resp)
			}
		}()
	}
	wg.Wait()

	fresh, err := deployWorkload(t, NewSystem(DefaultConfig()), workload, 1).Run(policy)
	if err != nil {
		t.Fatal(err)
	}
	fresh.Device = nil
	fresh.InstLatencies.P99() // both reservoirs hold their samples, sorted
	shared.InstLatencies.P99()
	var clean, faulted int
	for _, resp := range slices.Concat(resps...) {
		rec := resp.Outcome.Recovery
		if resp.Err != nil || rec.Injected != 0 || rec.Retries != 0 || rec.Fallbacks != 0 {
			faulted++
			if r := ResultOf(resp); r == shared && (r.Elapsed != before.Elapsed || rec.BackoffSim != 0) {
				t.Error("a faulted response returned the shared result")
			}
			continue
		}
		clean++
		if r := ResultOf(resp); r != shared || !reflect.DeepEqual(r, fresh) {
			t.Errorf("a clean response is not the shared result, or differs from a fresh run")
		}
	}
	t.Logf("%d clean and %d faulted responses", clean, faulted)
	if clean == 0 || faulted == 0 {
		t.Fatalf("%d clean and %d faulted responses: the test needs both", clean, faulted)
	}
	if !reflect.DeepEqual(*shared, before) || !slices.Equal(shared.Decisions, decisions) ||
		!reflect.DeepEqual(shared.Counters, counters) {
		t.Error("serving changed the shared result")
	}
}
