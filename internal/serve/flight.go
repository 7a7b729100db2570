package serve

import (
	"fmt"
	"sync"
)

// FlightGroup runs keyed computations with singleflight semantics:
// concurrent callers of one key share a single execution. Do caches
// successes forever and never failures (a later caller retries). The
// zero value is ready to use.
//
// It is shared machinery: the Experiments sweep harness uses Do to give
// figure sweeps their run-once-per-cell guarantee, and the serving Engine
// calls begin and complete itself to batch identical concurrent requests
// onto one fork, forgetting the key on completion.
type FlightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  interface{}
	err  error
}

// Do executes fn once per key, memoizing the result: concurrent callers of
// one key share a single execution, and later callers are served from the
// cache. joined reports whether this call was served by an execution (or
// cached success) another caller started.
func (g *FlightGroup) Do(key string, fn func() (interface{}, error)) (v interface{}, joined bool, err error) {
	c, leader := g.begin(key)
	if !leader {
		<-c.done
		return c.val, true, c.err
	}

	// A panicking fn must not poison the key: waiters blocked on c.done
	// would hang forever and every later caller would join them. Record
	// the panic as the call's error, unblock everyone, then re-panic so
	// the executing caller still fails loudly.
	finished := false
	defer func() {
		if !finished {
			g.complete(key, c, nil, fmt.Errorf("serve: flight call %q panicked", key), false)
		}
	}()
	v, err = fn()
	finished = true
	g.complete(key, c, v, err, false)
	return v, false, err
}

// begin registers key, returning its call and whether the caller is the
// leader. The leader must execute the work and call complete; joiners
// wait on call.done (on whatever goroutine suits them) and then read
// call.val / call.err.
func (g *FlightGroup) begin(key string) (call *flightCall, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.calls == nil {
		g.calls = make(map[string]*flightCall)
	}
	if c, ok := g.calls[key]; ok {
		return c, false
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	return c, true
}

// complete records the leader's result and unblocks every joiner. With
// forget set (or on error) the key is removed so the next begin leads
// afresh; otherwise the result stays cached.
func (g *FlightGroup) complete(key string, c *flightCall, v interface{}, err error, forget bool) {
	c.val, c.err = v, err
	if forget || err != nil {
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
	}
	close(c.done)
}
