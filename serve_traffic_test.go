package conduit_test

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	conduit "conduit"
	"conduit/internal/loadgen"
	"conduit/internal/serve"
)

// submit is Server.Submit with a copy of its lent response delivered on
// a buffered channel, the way an open-loop collector waits for it.
func submit(srv *conduit.Server, req conduit.Request) (<-chan *conduit.Response, error) {
	ch := make(chan *conduit.Response, 1)
	if err := srv.Submit(req, func(r *conduit.Response) { resp := *r; ch <- &resp }); err != nil {
		return nil, err
	}
	return ch, nil
}

// TestServeDrainRaceLeavesConsistentPools is the drain/Do race contract,
// exercised with -race on both application shapes: while clients issue
// closed-loop requests, Drain begins concurrently. Every Do must return
// either a served response or ErrDraining (never a leaked hang, panic,
// or partial state), and afterwards every pool — the pooled deployment's
// and every shard's of the sharded registration — must be closed with
// zero forks held, ready or parked for reuse (a request in flight when
// the drain began hands its device back to a closed deployment, which must
// drop it), and self-consistent counters.
func TestServeDrainRaceLeavesConsistentPools(t *testing.T) {
	cfg := conduit.DefaultConfig()
	srv := conduit.NewServer(cfg, conduit.ServeOptions{Concurrency: 4, Prefork: 2})
	if err := srv.Register("pooled", quickstartSource(2*16384)); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterSharded("sharded", xorFilterSource(2*16384), 2); err != nil {
		t.Fatal(err)
	}

	const clients = 8
	var served, refused int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			workload := "pooled"
			if i%2 == 1 {
				workload = "sharded"
			}
			for j := 0; ; j++ {
				resp, err := srv.Do(conduit.Request{Tenant: "t", Workload: workload, Policy: "Conduit"})
				if errors.Is(err, conduit.ErrDraining) {
					atomic.AddInt64(&refused, 1)
					return
				}
				if err != nil {
					t.Errorf("client %d request %d: %v", i, j, err)
					return
				}
				if conduit.ResultOf(resp) == nil {
					t.Errorf("client %d request %d: served response carries no result", i, j)
					return
				}
				atomic.AddInt64(&served, 1)
			}
		}(i)
	}
	close(start)
	// Let traffic flow briefly, then drain underneath it.
	time.Sleep(30 * time.Millisecond)
	srv.Drain()
	wg.Wait()

	if refused == 0 {
		t.Error("no client observed ErrDraining — drain did not race any Do")
	}
	pools := srv.PoolStats()
	wantPools := []string{"pooled", "sharded#0", "sharded#1"}
	for _, name := range wantPools {
		ps, ok := pools[name]
		if !ok {
			t.Fatalf("pool %q missing after drain (have %v)", name, pools)
		}
		if !ps.Closed {
			t.Errorf("pool %q still open after drain", name)
		}
		if ps.Idle != 0 {
			t.Errorf("pool %q: %d forks still ready or parked after drain", name, ps.Idle)
		}
		if ps.Restored > ps.Preforked+ps.Misses {
			t.Errorf("pool %q: %d forks restored out of %d made", name, ps.Restored, ps.Preforked+ps.Misses)
		}
		// Counter consistency: every fork taken from the ready list was
		// made ready first, and nothing made ready is unaccounted for
		// beyond the devices Close legitimately dropped (preforked =
		// hits + idle + dropped, idle = 0 here).
		if ps.Hits > ps.Preforked {
			t.Errorf("pool %q: %d hits exceed %d preforked clones", name, ps.Hits, ps.Preforked)
		}
	}
	if n := srv.ParkedForks(); n != 0 {
		t.Errorf("%d used devices still parked for reuse after drain", n)
	}
	// Accounting agrees with what the clients saw.
	var accounted int64
	for _, ts := range srv.Tenants() {
		accounted += ts.Requests
	}
	if accounted != served {
		t.Errorf("accounted %d requests, clients saw %d served", accounted, served)
	}
}

// TestSettleRacingDrain: a served device is restored and listed ready by
// the goroutine that served its request, after the response is out, so
// that restore can still be running when Drain closes the pools. With
// closed-loop Do and open-loop Submit clients on a pooled and a sharded
// application, Drain begins once traffic flows; nothing may panic, and
// afterwards every pool is closed and holds nothing, ready list included.
func TestSettleRacingDrain(t *testing.T) {
	srv := conduit.NewServer(conduit.DefaultConfig(), conduit.ServeOptions{Concurrency: 2, Prefork: 2})
	if err := srv.Register("pooled", quickstartSource(2*16384)); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterSharded("sharded", xorFilterSource(2*16384), 2); err != nil {
		t.Fatal(err)
	}
	var served int64
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := conduit.Request{Tenant: "t", Workload: []string{"pooled", "sharded"}[i%2], Policy: "Conduit"}
			issue := func() error {
				if i < 3 {
					_, err := srv.Do(req)
					return err
				}
				c, err := submit(srv, req)
				if err != nil {
					return err
				}
				return (<-c).Err
			}
			for {
				switch err := issue(); {
				case errors.Is(err, conduit.ErrOverloaded):
					runtime.Gosched()
				case errors.Is(err, conduit.ErrDraining):
					return
				case err != nil:
					t.Errorf("client %d: %v", i, err)
					return
				default:
					atomic.AddInt64(&served, 1)
				}
			}
		}(i)
	}
	for atomic.LoadInt64(&served) < 30 {
		runtime.Gosched()
	}
	srv.Drain()
	wg.Wait()
	for name, ps := range srv.PoolStats() {
		if !ps.Closed || ps.Idle != 0 {
			t.Errorf("pool %q after Drain: closed %v, %d devices held; want closed and none", name, ps.Closed, ps.Idle)
		}
	}
	if n := srv.ParkedForks(); n != 0 {
		t.Errorf("%d devices parked or ready after Drain, want 0", n)
	}
}

// TestServeOverloadShedsWithoutConsumingForks is the overload acceptance
// pin at the facade level: a one-worker, one-slot server flooded
// open-loop must shed with ErrOverloaded, and the shed requests must
// never execute — provable from the pool counters, because every
// executed device request consumes exactly one fork (Hits + Misses).
func TestServeOverloadShedsWithoutConsumingForks(t *testing.T) {
	cfg := conduit.DefaultConfig()
	srv := conduit.NewServer(cfg, conduit.ServeOptions{
		Concurrency: 1, QueueDepth: 1, Prefork: 1,
	})
	if err := srv.Register("app", quickstartSource(2*16384)); err != nil {
		t.Fatal(err)
	}

	const offered = 40
	var chans []<-chan *conduit.Response
	var shed int64
	for i := 0; i < offered; i++ {
		c, err := submit(srv, conduit.Request{Tenant: "t", Workload: "app", Policy: "Conduit"})
		switch {
		case err == nil:
			chans = append(chans, c)
		case errors.Is(err, conduit.ErrOverloaded):
			shed++
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	var servedOK int64
	for _, c := range chans {
		if resp := <-c; resp.Err == nil {
			servedOK++
		} else {
			t.Errorf("admitted request failed: %v", resp.Err)
		}
	}
	srv.Drain()

	if shed == 0 {
		t.Fatal("flooding a 1-worker/1-slot server shed nothing — open-loop admission is not shedding")
	}
	if servedOK+shed != offered {
		t.Fatalf("conservation: %d served + %d shed != %d offered", servedOK, shed, offered)
	}
	ps, ok := srv.PoolStats()["app"]
	if !ok {
		t.Fatal("pool stats missing")
	}
	if forks := ps.Hits + ps.Misses; forks != servedOK {
		t.Fatalf("%d forks consumed for %d executed requests — a shed request consumed a fork", forks, servedOK)
	}
	total := srv.Total()
	if total.Shed != shed || total.Requests != servedOK {
		t.Fatalf("shed accounting: %+v (want shed=%d requests=%d)", total, shed, servedOK)
	}
	var lat int64 = -1
	for _, m := range srv.Metrics() {
		if m.Name == serve.LatencySeries && len(m.Labels) == 0 {
			lat = m.Hist.Count()
		}
	}
	if lat != servedOK {
		t.Fatalf("all-tenant latency histogram holds %d samples, want %d (completed responses only)", lat, servedOK)
	}
}

// TestServeReplayedTraceMatchesGeneratedRun wires the whole subsystem
// end to end: an open-loop Poisson schedule is generated, issued against
// a server while being recorded, and the recorded trace is then replayed
// against a second, identically configured server. With shedding
// impossible (ample queue), both runs must serve the identical request
// multiset per tenant and per workload — the replay IS the run, as an
// artifact.
func TestServeReplayedTraceMatchesGeneratedRun(t *testing.T) {
	schedule, err := loadgen.Generate(loadgen.Spec{
		Arrival: "poisson", QPS: 4000, Duration: 60 * time.Millisecond,
		Seed: 3, Tenants: 2,
		Workloads: []string{"app"},
		Policies:  []string{"Conduit", "CPU"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(schedule) == 0 {
		t.Fatal("empty schedule")
	}

	runOnce := func(events []loadgen.Event, rec *loadgen.Recorder) map[string]int64 {
		cfg := conduit.DefaultConfig()
		srv := conduit.NewServer(cfg, conduit.ServeOptions{
			Concurrency: 4, QueueDepth: 4 * len(events), Prefork: 2,
		})
		if err := srv.Register("app", quickstartSource(2*16384)); err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var chans []<-chan *conduit.Response
		loadgen.Replay(events, 50, func(ev loadgen.Event) {
			if rec != nil {
				rec.Record(ev.Tenant, ev.Workload, ev.Policy, ev.Deadline)
			}
			c, err := submit(srv, conduit.Request{
				Tenant: ev.Tenant, Workload: ev.Workload, Policy: ev.Policy, Deadline: ev.Deadline,
			})
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			mu.Lock()
			chans = append(chans, c)
			mu.Unlock()
		})
		counts := make(map[string]int64)
		for _, c := range chans {
			resp := <-c
			if resp.Err != nil {
				t.Errorf("response: %v", resp.Err)
				continue
			}
			counts[resp.Request.Tenant+"|"+resp.Request.Workload+"|"+resp.Request.Policy]++
		}
		srv.Drain()
		return counts
	}

	rec := loadgen.NewRecorder()
	first := runOnce(schedule, rec)
	trace := rec.Events()
	if len(trace) != len(schedule) {
		t.Fatalf("recorded %d events for %d issued", len(trace), len(schedule))
	}
	second := runOnce(trace, nil)
	if len(first) == 0 {
		t.Fatal("no cells served")
	}
	for k, n := range first {
		if second[k] != n {
			t.Errorf("cell %s: generated run served %d, replayed trace served %d", k, n, second[k])
		}
	}
	for k := range second {
		if _, ok := first[k]; !ok {
			t.Errorf("replay served cell %s the generated run never issued", k)
		}
	}
}

// TestOpenLoopDriverTallyMatchesServerBooks drives the shared open-loop
// driver through the server's submit adapter: the driver's tally must be
// the server's own accounting — what it shed at the door, what expired in
// the queue, what it served — and the observer must see every answer.
func TestOpenLoopDriverTallyMatchesServerBooks(t *testing.T) {
	srv := conduit.NewServer(conduit.DefaultConfig(), conduit.ServeOptions{
		Concurrency: 1, QueueDepth: 2, Prefork: 1,
	})
	if err := srv.RegisterWorkload("jacobi-1d", 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterWorkload("no-such", 1, 1); err == nil {
		t.Error("RegisterWorkload accepted an unknown workload")
	}
	// Zero offsets: the whole schedule is offered at once, so a 2-slot
	// queue must shed; a 1ns deadline expires whatever had to queue.
	schedule := make([]loadgen.Event, 40)
	for i := range schedule {
		schedule[i] = loadgen.Event{Tenant: "t", Workload: "jacobi-1d", Policy: "Conduit", Deadline: time.Nanosecond}
	}
	var answered int64
	tally := loadgen.Drive(schedule, 1, srv.OpenLoop(func(*conduit.Response) { answered++ }))
	srv.Drain()

	total := srv.Total()
	if tally.Offered != 40 || tally.Shed == 0 || tally.Failed != 0 ||
		tally.Served+tally.Shed+tally.Expired != tally.Offered {
		t.Fatalf("tally = %+v", tally)
	}
	if tally.Shed != total.Shed || tally.Expired != total.Expired || tally.Served+tally.Expired != total.Requests {
		t.Errorf("tally %+v disagrees with the server's books %+v", tally, total)
	}
	if answered != tally.Served+tally.Expired {
		t.Errorf("observer saw %d answers, want %d", answered, tally.Served+tally.Expired)
	}
}
