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

// TestRoutedRequestAllocBudget pins what a routed request allocates —
// router, client, loopback socket, the target's reader and writer, both
// codecs and the served path below them, all in this process — in one
// window of 1 000 requests after a warm-up of 10. Each request forks the
// device the previous one settled, so nothing is cloned and no window is
// discarded. It reads 0–7 B and 0 allocations a request:
// the client's Reader hands back the Result its target sent before (the
// result table), the target submits with one notify per connection and
// the wire ID as the request's Tag, and the engine lends Submit's
// response and reuses it. The ceiling is 64 B in 1 allocation. It was
// the same while a pool refiller raced the settled device and a window in
// which a request took a buffered fork was measured again; 921 B in
// 4, stated then as what the wire adds to Server.Do, a baseline that read
// high while the refiller still cloned: the decoded Result and
// its counters, and the target's pending response and completion
// closure; 1 900 B in 13 while the codec boxed every frame
// and its cursor, the target allocated every response it projected, and
// the router a reply channel, a closure and a preference order per
// request; and 5 970 B in 57 while the target spent a goroutine and a
// channel on every request and both ends a buffer on every frame and a
// string on every name.
func TestRoutedRequestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	const maxBytes, maxAllocs = 64, 1
	workload := resolveNames(t, []string{"jacobi-1d"})[0]
	tg, err := target.New("127.0.0.1:0", target.Options{Name: "t0", Mix: []string{workload},
		Serve: conduit.ServeOptions{Concurrency: 1, Prefork: 2}})
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
	do := func() {
		resp, _, err := rt.Do(wire.Request{Tenant: "t", Workload: workload, Policy: "Conduit"})
		if err != nil || resp.Code != wire.CodeOK {
			t.Fatalf("routed request: %v %+v", err, resp)
		}
	}
	for i := 0; i < 10; i++ {
		do()
	}
	bytes, allocs := perRequest(do)
	t.Logf("a routed request allocates %d bytes in %d allocations", bytes, allocs)
	if bytes > maxBytes || allocs > maxAllocs {
		t.Errorf("a routed request allocates %d bytes in %d allocations, budget %d in %d",
			bytes, allocs, maxBytes, maxAllocs)
	}
}

// perRequest is what one call of do allocates, process-wide: the mean
// over 1000 calls.
func perRequest(do func()) (bytes, allocs int64) {
	const calls = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		do()
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) / calls, int64(after.Mallocs-before.Mallocs) / calls
}
