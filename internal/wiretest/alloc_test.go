package wiretest

import (
	"runtime"
	"testing"
	"time"

	conduit "conduit"
	"conduit/internal/router"
	"conduit/internal/target"
	"conduit/internal/wire"
)

// TestRoutedRequestAllocBudget pins what the wire tier adds to a
// request: the bytes and allocations of a routed request — router,
// client, loopback socket, the target's reader and writer, both codecs,
// all in this process — minus those of the same request through
// Server.Do. Both sides share the served path, so a saving there drops
// both and leaves the difference: a served request allocates 288 B in 1
// allocation, its pending response, and a routed one about 950 B in 4
// (930 B in 8 and 1 590 B in 11 while each served request built its own
// counters, results, boxed outcome and recovery). The ceilings are what it
// measures plus 10 %, as in TestServedRequestAllocBudget: at most 670 B in
// 3 allocations, the decoded Result and its counters, which the caller
// keeps, and the completion the target hands Server.Submit. The third was
// hidden while Server.Do, the baseline, waited for a worker on a channel
// of its own; a Do with a free slot runs on its caller's goroutine and
// allocates no channel. It was 1 900 B in 13 while the codec boxed every
// frame and its cursor, the target allocated every response it projected,
// and the router a reply channel, a closure and a preference order per
// request; and 5 970 B in 57 while the target spent a goroutine and a
// channel on every request and both ends a buffer on every frame and a
// string on every name.
func TestRoutedRequestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	const maxBytes, maxAllocs = 737, 3
	workload := resolveNames(t, []string{"jacobi-1d"})[0]
	opts := conduit.ServeOptions{Concurrency: 1, Prefork: 2}

	srv := conduit.NewServer(conduit.DefaultConfig(), opts)
	defer srv.Drain()
	if err := srv.RegisterWorkload(workload, 1, 1); err != nil {
		t.Fatal(err)
	}
	servedBytes, servedAllocs := perRequest(func() {
		if _, err := srv.Do(conduit.Request{Tenant: "t", Workload: workload, Policy: "Conduit"}); err != nil {
			t.Fatal(err)
		}
	})

	tg, err := target.New("127.0.0.1:0", target.Options{Name: "t0", Mix: []string{workload}, Serve: opts})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { tg.Serve(); close(served) }()
	defer func() { tg.Drain(); <-served }()
	c, err := router.Dial(tg.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := router.New([]*router.Client{c}, router.Options{
		Retries: 3, BreakerThreshold: 4, BreakerCooldown: 8,
		Clock: router.Clock{Now: time.Now, After: time.After},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	routedBytes, routedAllocs := perRequest(func() {
		resp, _, err := rt.Do(wire.Request{Tenant: "t", Workload: workload, Policy: "Conduit"})
		if err != nil || resp.Code != wire.CodeOK {
			t.Fatalf("routed request: %v %+v", err, resp)
		}
	})

	bytes, allocs := routedBytes-servedBytes, routedAllocs-servedAllocs
	t.Logf("the wire adds %d bytes in %d allocations to a request (served %d in %d, routed %d in %d)",
		bytes, allocs, servedBytes, servedAllocs, routedBytes, routedAllocs)
	if bytes > maxBytes || allocs > maxAllocs {
		t.Errorf("the wire adds %d bytes in %d allocations per request, budget %d in %d",
			bytes, allocs, maxBytes, maxAllocs)
	}
}

// perRequest is what one call of do allocates, process-wide, in steady
// state: the mean over 1000 calls after ten warm-up calls.
func perRequest(do func()) (bytes, allocs int64) {
	for i := 0; i < 10; i++ {
		do()
	}
	const calls = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		do()
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) / calls, int64(after.Mallocs-before.Mallocs) / calls
}
