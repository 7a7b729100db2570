package serve

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"conduit/internal/trace"
)

// goid is the calling goroutine's ID, read off its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// waitFor yields until cond holds under the engine's admission lock.
func waitFor(e *Engine, cond func() bool) {
	for {
		e.admit.Lock()
		ok := cond()
		e.admit.Unlock()
		if ok {
			return
		}
		runtime.Gosched()
	}
}

// TestInlineDoContainsPanic: a Do that finds its slot free runs on the
// caller's goroutine; a panicking runner fails that request, and the
// caller's goroutine goes on to serve the next one.
func TestInlineDoContainsPanic(t *testing.T) {
	var ran []string
	r := RunnerFunc(func(workload, _ string, _ *trace.Span) (Outcome, error) {
		ran = append(ran, goid())
		if workload == "bomb" {
			panic("backend exploded")
		}
		return Outcome{Value: workload}, nil
	})
	e := NewEngine(r, Config{Concurrency: 1})
	defer e.Drain()
	if _, err := e.Do(Request{Tenant: "t", Workload: "bomb", Policy: "p"}); err == nil ||
		!strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking cell: err = %v, want the contained panic", err)
	}
	resp, err := e.Do(Request{Tenant: "t", Workload: "fine", Policy: "p"})
	if err != nil || resp.Outcome.Value != "fine" {
		t.Fatalf("after the panic: resp %v, err %v", resp, err)
	}
	if me := goid(); len(ran) != 2 || ran[0] != me || ran[1] != me {
		t.Errorf("runner ran on goroutines %v, want both on the caller's, %s", ran, me)
	}
}

// TestDrainWaitsForInlineDo: Drain returns only after a Do it found
// executing on its caller's goroutine has been served and accounted.
func TestDrainWaitsForInlineDo(t *testing.T) {
	g := newGateRunner()
	e := NewEngine(g, Config{Concurrency: 1})
	served := make(chan error, 1)
	go func() {
		_, err := e.Do(Request{Tenant: "t", Workload: "slow", Policy: "p"})
		served <- err
	}()
	<-g.started
	drained := make(chan struct{})
	go func() {
		e.Drain()
		close(drained)
	}()
	waitFor(e, func() bool { return e.closed })
	select {
	case <-drained:
		t.Fatal("Drain returned while an inline Do was executing")
	default:
	}
	close(g.gate)
	if err := <-served; err != nil {
		t.Fatalf("the inline Do: %v", err)
	}
	<-drained
	if total := e.Total(); total.Requests != 1 {
		t.Errorf("accounted %d requests after Drain, want the inline one", total.Requests)
	}
}

// TestDoNeverOvertakesQueuedSubmit: while a Do executes inline and a
// Submit waits for the slot it holds, a second Do queues behind the
// Submit instead of running inline the moment the slot frees.
func TestDoNeverOvertakesQueuedSubmit(t *testing.T) {
	g := newGateRunner()
	e := NewEngine(g, Config{Concurrency: 1})
	defer e.Drain()
	done := make(chan struct{}, 2)
	do := func(workload string) {
		e.Do(Request{Tenant: "t", Workload: workload, Policy: "p"})
		done <- struct{}{}
	}
	go do("first-do")
	<-g.started
	answered, err := submit(e, Request{Tenant: "t", Workload: "submit", Policy: "p"})
	if err != nil {
		t.Fatal(err)
	}
	go do("second-do")
	waitFor(e, func() bool { return e.queued.Load() == 2 })
	close(g.gate)
	<-answered
	<-done
	<-done
	order := []string{<-g.started, <-g.started}
	if order[0] != "submit" || order[1] != "second-do" {
		t.Errorf("executed %v after the first Do, want [submit second-do]", order)
	}

	// The instant the slot frees, before the worker holding the Submit
	// takes it, is only ever a passing state; a phantom queued request
	// holds it still. A Do admitted then must queue, not run inline.
	var ran string
	e2 := NewEngine(RunnerFunc(func(string, string, *trace.Span) (Outcome, error) {
		ran = goid()
		return Outcome{}, nil
	}), Config{Concurrency: 1})
	defer e2.Drain()
	e2.queued.Add(1)
	e2.Do(Request{Tenant: "t", Workload: "w", Policy: "p"})
	e2.queued.Add(-1)
	if ran == goid() {
		t.Error("a Do ran inline past a request that still waited for the slot")
	}
}

// TestTraceSequenceUnchangedInline: requests served inline, on a worker
// and through Submit draw their admission sequence numbers as before, so
// every SampleEvery-th request is traced under its sequence number.
func TestTraceSequenceUnchangedInline(t *testing.T) {
	tr := trace.New(trace.Options{SampleEvery: 3})
	e := NewEngine(&countingRunner{}, Config{Concurrency: 1, Tracer: tr})
	defer e.Drain()
	var got []string
	for seq := 1; seq <= 9; seq++ {
		req := Request{Tenant: "t", Workload: fmt.Sprint("w", seq), Policy: "p"}
		var resp *Response
		if seq%2 == 0 {
			c, err := submit(e, req)
			if err != nil {
				t.Fatal(err)
			}
			resp = <-c
		} else {
			resp, _ = e.Do(req)
		}
		if resp.Trace != nil {
			got = append(got, fmt.Sprintf("%d:%d", seq, resp.Trace.ID))
		}
	}
	if want := "[1:1 4:4 7:7]"; fmt.Sprint(got) != want {
		t.Errorf("traced (sequence:trace ID) %v, want %s", got, want)
	}
}

// TestEngineDoAllocBudget: a Do on a no-op runner allocates its pending
// request, and nothing else: served inline, it needs no channel to wait
// on (three allocations when every Do waited for a worker, two while the
// Outcome was boxed).
func TestEngineDoAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := NewEngine(RunnerFunc(func(string, string, *trace.Span) (Outcome, error) {
		return Outcome{}, nil
	}), Config{Concurrency: 1})
	defer e.Drain()
	req := Request{Tenant: "t", Workload: "noop", Policy: "noop"}
	if n := testing.AllocsPerRun(1000, func() { e.Do(req) }); n > 2 {
		t.Errorf("Engine.Do allocates %v times, want at most 2", n)
	}
}

// TestCoalesceAllocBudget: under Coalesce, a Do that finds a free slot
// and no execution of its cell in flight leads one: it allocates its
// pending request and the flight call, whose key is the cell's two
// strings, not a concatenation, and whose Outcome joiners read unboxed
// (five allocations with a string key, a done channel and a boxed
// Outcome). The Do without Coalesce is held to its one.
func TestCoalesceAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, c := range []struct {
		coalesce bool
		budget   float64
	}{{true, 2}, {false, 1}} {
		e := NewEngine(RunnerFunc(func(string, string, *trace.Span) (Outcome, error) {
			return Outcome{}, nil
		}), Config{Concurrency: 1, Coalesce: c.coalesce})
		req := Request{Tenant: "t", Workload: "noop", Policy: "noop"}
		if n := testing.AllocsPerRun(1000, func() { e.Do(req) }); n > c.budget {
			t.Errorf("Coalesce %v: Engine.Do allocates %v times, want at most %v", c.coalesce, n, c.budget)
		}
		e.Drain()
	}
}

// dispatch is Dispatch with a copy of a lent response delivered on a
// buffered channel whichever way it was served, and the goroutine that
// ran inline recorded in ran.
func dispatch(e *Engine, req Request, ran *string) (bool, <-chan *Response, error) {
	ch := make(chan *Response, 1)
	keep := func(r *Response) { resp := *r; ch <- &resp }
	served, err := e.Dispatch(req, keep, func(r *Response) { *ran = goid(); keep(r) })
	return served, ch, err
}

// TestDispatchServesAnIdleEngineInline: with nothing executing and
// nothing queued, a one-slot engine's Dispatch serves on its caller's
// goroutine, and its inline notify has run there before Dispatch returns.
// An engine with a second slot queues even when idle: the caller could
// not read its next request while it served this one, and that request
// would have run beside it.
func TestDispatchServesAnIdleEngineInline(t *testing.T) {
	for _, concurrency := range []int{1, 2} {
		e := NewEngine(&countingRunner{}, Config{Concurrency: concurrency})
		var ran string
		served, ch, err := dispatch(e, Request{Tenant: "t", Workload: "w", Policy: "p", Tag: 7}, &ran)
		if err != nil || served != (concurrency == 1) {
			t.Fatalf("Concurrency %d: Dispatch on an idle engine = %v, %v; want served inline %v",
				concurrency, served, err, concurrency == 1)
		}
		if !served {
			if resp := <-ch; resp.Request.Tag != 7 || ran != "" {
				t.Errorf("Concurrency %d: response %+v, inline notify on %q; want Tag 7 from a worker",
					concurrency, resp, ran)
			}
			e.Drain()
			continue
		}
		select {
		case resp := <-ch:
			if resp.Request.Tag != 7 || resp.Outcome.Value != "w/p" || ran != goid() {
				t.Errorf("Concurrency %d: response %+v notified on goroutine %s, want Tag 7 on the caller's, %s",
					concurrency, resp, ran, goid())
			}
		default:
			t.Errorf("Concurrency %d: Dispatch returned before its inline notify ran", concurrency)
		}
		e.Drain()
	}
}

// TestDispatchQueuesBehindWork: a request executing makes Dispatch queue
// (with a second slot it queues anyway), and a queued request is never
// overtaken: with a Submit waiting for the one slot, a Dispatch runs
// after it, on a worker.
func TestDispatchQueuesBehindWork(t *testing.T) {
	for _, concurrency := range []int{1, 2} {
		g := newGateRunner()
		e := NewEngine(g, Config{Concurrency: concurrency})
		busy, err := submit(e, Request{Tenant: "t", Workload: "busy", Policy: "p"})
		if err != nil {
			t.Fatal(err)
		}
		<-g.started
		answers := []<-chan *Response{busy}
		var want []string
		if concurrency == 1 {
			queued, err := submit(e, Request{Tenant: "t", Workload: "queued", Policy: "p"})
			if err != nil {
				t.Fatal(err)
			}
			answers = append(answers, queued)
			want = append(want, "queued")
		}
		var ran string
		served, ch, err := dispatch(e, Request{Tenant: "t", Workload: "dispatched", Policy: "p"}, &ran)
		if err != nil || served {
			t.Fatalf("Concurrency %d: Dispatch behind work = %v, %v; want queued", concurrency, served, err)
		}
		close(g.gate)
		for _, c := range append(answers, ch) {
			<-c
		}
		want = append(want, "dispatched")
		got := []string{<-g.started}
		if concurrency == 1 {
			got = append(got, <-g.started)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || ran != "" {
			t.Errorf("Concurrency %d: executed %v after the busy request (inline notify on %q), want %v on workers",
				concurrency, got, ran, want)
		}
		e.Drain()
	}

	// The instant the slot frees, before the worker holding the queued
	// request takes it, is only ever a passing state; a phantom queued
	// request holds it still. A Dispatch admitted then must queue.
	e := NewEngine(&countingRunner{}, Config{Concurrency: 1})
	defer e.Drain()
	e.queued.Add(1)
	var ran string
	served, ch, err := dispatch(e, Request{Tenant: "t", Workload: "w", Policy: "p"}, &ran)
	e.queued.Add(-1)
	if err != nil || served {
		t.Errorf("Dispatch past a request that still waited for the slot = %v, %v; want queued", served, err)
	}
	<-ch
}

// TestDispatchShedsAtFullQueue: with the one slot busy and the one-deep
// queue full, Dispatch sheds with ErrOverloaded, without blocking and
// without executing or notifying.
func TestDispatchShedsAtFullQueue(t *testing.T) {
	g := newGateRunner()
	e := NewEngine(g, Config{Concurrency: 1, QueueDepth: 1})
	busy, err := submit(e, Request{Tenant: "t", Workload: "busy", Policy: "p"})
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	queued, err := submit(e, Request{Tenant: "t", Workload: "queued", Policy: "p"})
	if err != nil {
		t.Fatal(err)
	}
	var ran string
	served, ch, err := dispatch(e, Request{Tenant: "t", Workload: "flood", Policy: "p"}, &ran)
	if !errors.Is(err, ErrOverloaded) || served {
		t.Fatalf("Dispatch at a full queue = %v, %v; want shed with ErrOverloaded", served, err)
	}
	close(g.gate)
	<-busy
	<-queued
	e.Drain()
	if n := atomic.LoadInt64(&g.execs); n != 2 || len(ch) != 0 || ran != "" {
		t.Errorf("after a shed Dispatch: %d executions, %d notifications, inline on %q; want 2, 0 and none", n, len(ch), ran)
	}
	if total := e.Total(); total.Shed != 1 || total.Requests != 2 {
		t.Errorf("shed accounting: %+v", total)
	}
}

// TestDispatchDrain: Drain waits out a request Dispatch is serving on its
// caller's goroutine, and Dispatch afterwards refuses with ErrDraining.
func TestDispatchDrain(t *testing.T) {
	g := newGateRunner()
	e := NewEngine(g, Config{Concurrency: 1})
	type result struct {
		served bool
		err    error
	}
	done := make(chan result, 1)
	go func() {
		var ran string
		served, _, err := dispatch(e, Request{Tenant: "t", Workload: "slow", Policy: "p"}, &ran)
		done <- result{served, err}
	}()
	<-g.started
	drained := make(chan struct{})
	go func() {
		e.Drain()
		close(drained)
	}()
	waitFor(e, func() bool { return e.closed })
	select {
	case <-drained:
		t.Fatal("Drain returned while Dispatch was serving inline")
	default:
	}
	close(g.gate)
	if r := <-done; r.err != nil || !r.served {
		t.Fatalf("the inline Dispatch = %v, %v; want served inline", r.served, r.err)
	}
	<-drained
	if total := e.Total(); total.Requests != 1 {
		t.Errorf("accounted %d requests after Drain, want the inline one", total.Requests)
	}
	var ran string
	if served, _, err := dispatch(e, Request{Tenant: "t", Workload: "w", Policy: "p"}, &ran); !errors.Is(err, ErrDraining) || served {
		t.Errorf("Dispatch after Drain = %v, %v; want ErrDraining", served, err)
	}
}

// TestDispatchAllocBudget: in steady state a Dispatch served inline, whose
// notify keeps nothing, allocates nothing: its pending is lent and reused
// as Submit's is.
func TestDispatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := NewEngine(RunnerFunc(func(string, string, *trace.Span) (Outcome, error) {
		return Outcome{}, nil
	}), Config{Concurrency: 1})
	defer e.Drain()
	var inlined int
	notify := func(*Response) { t.Error("an idle engine queued the request") }
	inline := func(*Response) { inlined++ }
	req := Request{Tenant: "t", Workload: "noop", Policy: "noop"}
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := e.Dispatch(req, notify, inline); err != nil {
			t.Fatal(err)
		}
	}); n > 0.05 {
		t.Errorf("Engine.Dispatch allocates %v times a request, want at most 0.05", n)
	}
	if inlined != 1001 {
		t.Errorf("%d of 1001 requests served inline", inlined)
	}
}
