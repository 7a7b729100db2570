package router

import (
	"net"
	"testing"
	"time"

	"conduit/internal/trace"
	"conduit/internal/wire"
)

// fakePeer is the target end of a net.Pipe: it sends a Hello, hands each
// request it reads to the test on reqs, and answers only when told to.
type fakePeer struct {
	conn net.Conn
	reqs chan wire.Request
}

// dialFake connects a Client to a new fakePeer named name.
func dialFake(t *testing.T, name string) (*Client, *fakePeer) {
	t.Helper()
	mine, theirs := net.Pipe()
	p := &fakePeer{conn: theirs, reqs: make(chan wire.Request, 4)}
	go func() {
		defer close(p.reqs)
		hello, _ := wire.AppendFrame(nil, wire.Hello{Target: name})
		if _, err := theirs.Write(hello); err != nil {
			return
		}
		r := wire.NewReader(theirs)
		for {
			f, err := r.ReadFrame()
			if err != nil {
				return
			}
			if q, ok := f.(wire.Request); ok {
				p.reqs <- q
			}
		}
	}()
	c, err := NewClient(mine)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); theirs.Close() })
	return c, p
}

// next returns the next request the peer read.
func (p *fakePeer) next(t *testing.T) wire.Request {
	t.Helper()
	q, ok := <-p.reqs
	if !ok {
		t.Fatal("peer connection closed before a request arrived")
	}
	return q
}

// answer replies to q with a success whose simulated elapsed time is
// elapsed, so the test can tell which peer's reply won.
func (p *fakePeer) answer(t *testing.T, q wire.Request, elapsed int64) {
	t.Helper()
	b, err := wire.AppendFrame(nil, wire.Response{ID: q.ID, Code: wire.CodeOK,
		ElapsedSimNS: elapsed, Result: &wire.Result{Policy: q.Policy}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.conn.Write(b); err != nil {
		t.Fatal(err)
	}
}

// TestRouterHedge drives the hedge path against two fake peers with an
// injected hedge timer, so which reply wins is decided by the order the
// test answers in, never by a sleep.
func TestRouterHedge(t *testing.T) {
	c0, p0 := dialFake(t, "t0")
	c1, p1 := dialFake(t, "t1")
	fire := make(chan time.Time)
	tracer := trace.New(trace.Options{SampleEvery: 1})
	r, err := New([]*Client{c0, c1}, Options{
		Retries: 1, HedgeAfter: time.Millisecond, Tracer: tracer,
		Clock: Clock{After: func(time.Duration) <-chan time.Time { return fire }},
	})
	if err != nil {
		t.Fatal(err)
	}
	const workload = "w"
	primary, hedge := p0, p1
	home, successor := "t0", "t1"
	if r.Home(workload) == "t1" {
		primary, hedge = p1, p0
		home, successor = "t1", "t0"
	}
	type result struct {
		resp wire.Response
		name string
		err  error
	}
	do := func() <-chan result {
		out := make(chan result, 1)
		go func() {
			resp, name, err := r.Do(wire.Request{Tenant: "a", Workload: workload, Policy: "p"})
			out <- result{resp, name, err}
		}()
		return out
	}

	// The primary withholds its reply past the hedge timer: the
	// successor's reply wins.
	done := do()
	late := primary.next(t)
	fire <- time.Time{}
	hedge.answer(t, hedge.next(t), 2)
	got := <-done
	if got.err != nil || got.name != successor || got.resp.ElapsedSimNS != 2 {
		t.Fatalf("hedged request: served by %q (elapsed %d, err %v), want the successor %s",
			got.name, got.resp.ElapsedSimNS, got.err, successor)
	}
	if st := r.Stats(); st.Hedges != 1 || st.HedgeWins != 1 || st.Attempts != 2 {
		t.Fatalf("after a hedge win: %+v, want 1 hedge, 1 win, 2 attempts", st)
	}
	// The primary's late reply lands on the abandoned channel; the next
	// request on that client still gets its own reply.
	primary.answer(t, late, 1)
	done = do()
	primary.answer(t, primary.next(t), 3)
	if got := <-done; got.err != nil || got.name != home || got.resp.ElapsedSimNS != 3 {
		t.Fatalf("after a late reply: served by %q (elapsed %d, err %v), want %s's reply",
			got.name, got.resp.ElapsedSimNS, got.err, home)
	}

	// The primary answers after the hedge went out: it still wins.
	done = do()
	q := primary.next(t)
	fire <- time.Time{}
	lost := hedge.next(t)
	primary.answer(t, q, 4)
	if got := <-done; got.err != nil || got.name != home || got.resp.ElapsedSimNS != 4 {
		t.Fatalf("primary after hedge: served by %q (elapsed %d, err %v), want %s",
			got.name, got.resp.ElapsedSimNS, got.err, home)
	}
	hedge.answer(t, lost, 5)
	if st := r.Stats(); st.Hedges != 2 || st.HedgeWins != 1 {
		t.Fatalf("after a primary win: %+v, want 2 hedges, still 1 win", st)
	}

	// The first request's trace: hedge and hedge_win events on the root,
	// and the two attempt spans under the keys "0" and "hedge:0". Span
	// IDs derive from (trace, parent, name, key), so a fresh tracer
	// rebuilds the IDs those keys must give.
	traces := tracer.Traces()
	if len(traces) != 3 {
		t.Fatalf("%d traces, want one per request", len(traces))
	}
	ref := trace.New(trace.Options{SampleEvery: 1}).Start(traces[0].ID).Root("router.request", 0, 0)
	wantIDs := map[string]uint64{
		home:      ref.Child("router.attempt", "0", 0).ID,
		successor: ref.Child("router.attempt", "hedge:0", 0).ID,
	}
	events := map[string]bool{}
	for _, sp := range traces[0].Spans() {
		switch sp.Name {
		case "router.request":
			for _, ev := range sp.Events {
				events[ev.Name] = true
			}
		case "router.attempt":
			for _, a := range sp.Attrs {
				if a.Key == "target" && sp.ID != wantIDs[a.Value] {
					t.Errorf("attempt span on %s has ID %#x, want %#x", a.Value, sp.ID, wantIDs[a.Value])
				}
			}
		}
	}
	if !events["hedge"] || !events["hedge_win"] {
		t.Errorf("root span events %v, want hedge and hedge_win", events)
	}
}
