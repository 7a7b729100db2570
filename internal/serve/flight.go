package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// FlightGroup runs keyed computations with singleflight semantics:
// concurrent callers of one key share a single execution. Do caches
// successes forever and never failures (a later caller retries). The
// zero value is ready to use.
//
// It is shared machinery: the Experiments sweep harness uses Do to give
// figure sweeps their run-once-per-cell guarantee, and the serving Engine
// calls begin and complete itself to batch identical concurrent requests
// onto one fork, forgetting the key on completion. Keys and values are
// typed, so a comparable key costs no string and a value no box.
type FlightGroup[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*flightCall[V]
}

// flightCall is one execution. Joiners wait on wg, which the leader
// holds from begin to complete; done reads true once val and err are
// final, for a caller that must not block.
type flightCall[V any] struct {
	wg   sync.WaitGroup
	done atomic.Bool
	val  V
	err  error
}

// Do executes fn once per key, memoizing the result: concurrent callers of
// one key share a single execution, and later callers are served from the
// cache. joined reports whether this call was served by an execution (or
// cached success) another caller started.
func (g *FlightGroup[K, V]) Do(key K, fn func() (V, error)) (v V, joined bool, err error) {
	c, leader := g.begin(key)
	if !leader {
		c.wg.Wait()
		return c.val, true, c.err
	}

	// A panicking fn must not poison the key: waiters blocked on the call
	// would hang forever and every later caller would join them. Record
	// the panic as the call's error, unblock everyone, then re-panic so
	// the executing caller still fails loudly.
	finished := false
	defer func() {
		if !finished {
			var zero V
			g.complete(key, c, zero, fmt.Errorf("serve: flight call %v panicked", key), false)
		}
	}()
	v, err = fn()
	finished = true
	g.complete(key, c, v, err, false)
	return v, false, err
}

// begin registers key, returning its call and whether the caller is the
// leader. The leader must execute the work and call complete; joiners
// wait (on whatever goroutine suits them) and then read call.val and
// call.err.
func (g *FlightGroup[K, V]) begin(key K) (call *flightCall[V], leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.calls == nil {
		g.calls = make(map[K]*flightCall[V])
	}
	if c, ok := g.calls[key]; ok {
		return c, false
	}
	c := new(flightCall[V])
	c.wg.Add(1)
	g.calls[key] = c
	return c, true
}

// complete records the leader's result and unblocks every joiner. With
// forget set (or on error) the key is removed so the next begin leads
// afresh; otherwise the result stays cached.
func (g *FlightGroup[K, V]) complete(key K, c *flightCall[V], v V, err error, forget bool) {
	c.val, c.err = v, err
	if forget || err != nil {
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
	}
	c.done.Store(true)
	c.wg.Done()
}
