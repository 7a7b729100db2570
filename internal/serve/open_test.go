package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"conduit/internal/trace"
)

// gateRunner blocks every execution until the gate opens, and counts how
// many executions ever started — the probe that proves shed and expired
// requests never reach the backend.
type gateRunner struct {
	gate    chan struct{}
	started chan string // receives the workload of each execution as it starts
	execs   int64
}

func newGateRunner() *gateRunner {
	return &gateRunner{gate: make(chan struct{}), started: make(chan string, 64)}
}

func (g *gateRunner) RunCell(workload, policy string, _ *trace.Span) (Outcome, error) {
	atomic.AddInt64(&g.execs, 1)
	g.started <- workload
	<-g.gate
	return Outcome{Value: workload + "/" + policy}, nil
}

// submit is Submit with a copy of its lent response delivered on a
// buffered channel, the way an open-loop collector waits for it.
func submit(e *Engine, req Request) (<-chan *Response, error) {
	ch := make(chan *Response, 1)
	if err := e.Submit(req, func(r *Response) { resp := *r; ch <- &resp }); err != nil {
		return nil, err
	}
	return ch, nil
}

// TestSubmitServesOpenLoop: Submit admits without blocking, every
// response reaches its notify, and accounting matches Do's.
func TestSubmitServesOpenLoop(t *testing.T) {
	r := &countingRunner{}
	e := NewEngine(r, Config{Concurrency: 4, QueueDepth: 64})
	defer e.Drain()

	const n = 20
	chans := make([]<-chan *Response, 0, n)
	for i := 0; i < n; i++ {
		c, err := submit(e, Request{Tenant: "open", Workload: fmt.Sprint("w", i), Policy: "p"})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans = append(chans, c)
	}
	for i, c := range chans {
		resp := <-c
		if resp.Err != nil {
			t.Fatalf("response %d: %v", i, resp.Err)
		}
		if want := fmt.Sprintf("w%d/p", i); resp.Outcome.Value != want {
			t.Fatalf("response %d: got %v, want %v", i, resp.Outcome.Value, want)
		}
		if resp.Request.Workload != fmt.Sprint("w", i) {
			t.Fatalf("response %d lost its request", i)
		}
	}
	total := e.Total()
	if total.Requests != n || total.Shed != 0 || total.Errors != 0 || total.Attained != n {
		t.Fatalf("totals after open-loop run: %+v", total)
	}
	if total.P50 <= 0 || total.Max < total.P50 {
		t.Fatalf("histogram percentiles malformed: %+v", total)
	}
}

// TestSubmitLendsResponsesUnderCoalesce: two open-loop clients submit
// the same three cells at once under Coalesce, one of them failing.
// Every response a notify copies is Do's answer for its cell and carries
// its own request's Tag, so the engine reuses no pending while a notify
// still reads its response.
func TestSubmitLendsResponsesUnderCoalesce(t *testing.T) {
	r := &countingRunner{delay: 20 * time.Microsecond, fail: map[string]error{"w1|p": errors.New("injected")}}
	e := NewEngine(r, Config{Concurrency: 2, QueueDepth: 1024, Coalesce: true})
	defer e.Drain()
	cells := []string{"w0", "w1", "w2"}
	want := make(map[string]Response)
	for _, w := range cells {
		resp, _ := e.Do(Request{Tenant: "t", Workload: w, Policy: "p"})
		want[w] = *resp
	}
	const perClient = 300
	var wg sync.WaitGroup
	for c := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make(chan Response, perClient)
			notify := func(r *Response) { got <- *r }
			for i := range perClient {
				req := Request{Tenant: "t", Workload: cells[i%len(cells)], Policy: "p", Tag: uint64(c*perClient + i)}
				if err := e.Submit(req, notify); err != nil {
					t.Error(err)
					return
				}
			}
			seen := make(map[uint64]bool)
			for range perClient {
				resp := <-got
				i := int(resp.Request.Tag) - c*perClient
				w := want[resp.Request.Workload]
				if i < 0 || i >= perClient || seen[resp.Request.Tag] || resp.Request.Workload != cells[i%len(cells)] ||
					resp.Outcome != w.Outcome || resp.Err != w.Err {
					t.Errorf("client %d: response %+v, want Tag %d..%d once and Do's %+v", c, resp, c*perClient, (c+1)*perClient-1, w)
					return
				}
				seen[resp.Request.Tag] = true
			}
		}()
	}
	wg.Wait()
}

// TestSubmitAllocBudget: in steady state a Submit whose notify keeps
// nothing allocates nothing: its pending, response included, is lent and
// reused once notify returns.
func TestSubmitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := NewEngine(RunnerFunc(func(string, string, *trace.Span) (Outcome, error) {
		return Outcome{}, nil
	}), Config{Concurrency: 1})
	defer e.Drain()
	done := make(chan struct{}, 1)
	notify := func(*Response) { done <- struct{}{} }
	req := Request{Tenant: "t", Workload: "noop", Policy: "noop"}
	if n := testing.AllocsPerRun(1000, func() {
		if err := e.Submit(req, notify); err != nil {
			t.Fatal(err)
		}
		<-done
	}); n > 0.05 {
		t.Errorf("Engine.Submit allocates %v times a request, want at most 0.05", n)
	}
}

// TestSubmitShedsAtFullQueueAndShedNeverExecutes is the overload
// contract: with one busy worker and a one-slot queue, further Submits
// are rejected with ErrOverloaded, the backend never sees them, and they
// are accounted as shed — not as requests.
func TestSubmitShedsAtFullQueueAndShedNeverExecutes(t *testing.T) {
	g := newGateRunner()
	e := NewEngine(g, Config{Concurrency: 1, QueueDepth: 1})

	// First request occupies the worker (wait until it really started).
	c1, err := submit(e, Request{Tenant: "t", Workload: "busy", Policy: "p"})
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	// Second request fills the single queue slot.
	c2, err := submit(e, Request{Tenant: "t", Workload: "queued", Policy: "p"})
	if err != nil {
		t.Fatal(err)
	}
	// Everything beyond that must shed.
	const floods = 5
	for i := 0; i < floods; i++ {
		if _, err := submit(e, Request{Tenant: "t", Workload: fmt.Sprint("flood", i), Policy: "p"}); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("flood %d: err=%v, want ErrOverloaded", i, err)
		}
	}
	close(g.gate)
	if resp := <-c1; resp.Err != nil {
		t.Fatalf("busy request: %v", resp.Err)
	}
	if resp := <-c2; resp.Err != nil {
		t.Fatalf("queued request: %v", resp.Err)
	}
	e.Drain()

	if n := atomic.LoadInt64(&g.execs); n != 2 {
		t.Fatalf("backend executed %d requests, want 2 (shed requests must never execute)", n)
	}
	total := e.Total()
	if total.Shed != floods || total.Requests != 2 || total.Errors != 0 {
		t.Fatalf("shed accounting: %+v", total)
	}
	// Attainment charges shed against offered load: 2 served of 7 offered.
	if got, want := total.Attainment(), 2.0/7.0; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("attainment %v, want %v", got, want)
	}
}

// TestDeadlineExpiresInQueueWithoutExecuting: requests whose budget is
// gone by dispatch fail with ErrDeadlineExceeded and never invoke the
// backend — and therefore can never consume a pooled fork.
func TestDeadlineExpiresInQueueWithoutExecuting(t *testing.T) {
	g := newGateRunner()
	e := NewEngine(g, Config{Concurrency: 1, QueueDepth: 8})

	c1, err := submit(e, Request{Tenant: "t", Workload: "busy", Policy: "p"})
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	// Queued behind the busy worker with a 1ns budget: expired long
	// before dispatch.
	const doomed = 4
	chans := make([]<-chan *Response, 0, doomed)
	for i := 0; i < doomed; i++ {
		c, err := submit(e, Request{Tenant: "t", Workload: "doomed", Policy: "p", Deadline: time.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, c)
	}
	close(g.gate)
	if resp := <-c1; resp.Err != nil {
		t.Fatal(resp.Err)
	}
	for i, c := range chans {
		resp := <-c
		if !errors.Is(resp.Err, ErrDeadlineExceeded) {
			t.Fatalf("doomed %d: err=%v, want ErrDeadlineExceeded", i, resp.Err)
		}
	}
	e.Drain()
	if n := atomic.LoadInt64(&g.execs); n != 1 {
		t.Fatalf("backend executed %d requests, want 1 (expired requests must never execute)", n)
	}
	total := e.Total()
	if total.Expired != doomed || total.Errors != 0 || total.Requests != 1+doomed {
		t.Fatalf("expiry accounting: %+v", total)
	}
}

// TestSLOAttainmentSplitsOnDeadline: a served request attains its SLO iff
// it finishes within its deadline; requests without a deadline always
// attain.
func TestSLOAttainmentSplitsOnDeadline(t *testing.T) {
	r := &countingRunner{delay: 10 * time.Millisecond}
	e := NewEngine(r, Config{Concurrency: 1})
	defer e.Drain()

	cases := []struct {
		deadline time.Duration
		attained bool
	}{
		{0, true},                     // no SLO: counts as attained
		{time.Second, true},           // generous budget
		{5 * time.Millisecond, false}, // tighter than the 10ms backend
		{10 * time.Second, true},      // generous again
	}
	for i, c := range cases {
		resp, err := e.Do(Request{Tenant: "t", Workload: fmt.Sprint("w", i), Policy: "p", Deadline: c.deadline})
		// A missed SLO on a *served* request is not an error — the
		// response arrived, late.
		if err != nil && !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("case %d: %v", i, err)
		}
		if err == nil && c.deadline > 0 && resp.Latency > c.deadline && c.attained {
			t.Fatalf("case %d: expected attainment but latency %v > deadline %v", i, resp.Latency, c.deadline)
		}
	}
	total := e.Total()
	// Cases 0, 1, 3 attain; case 2 either misses (served late) or expired
	// in queue — both cost attainment.
	if total.Attained != 3 {
		t.Fatalf("attained %d of %d, want 3 (totals %+v)", total.Attained, total.Requests, total)
	}
}

// TestSubmitAfterDrain: open-loop admission closes with ErrDraining, and
// a draining engine still delivers every admitted response.
func TestSubmitAfterDrain(t *testing.T) {
	r := &countingRunner{}
	e := NewEngine(r, Config{Concurrency: 2})
	c, err := submit(e, Request{Tenant: "t", Workload: "w", Policy: "p"})
	if err != nil {
		t.Fatal(err)
	}
	e.Drain()
	select {
	case resp := <-c:
		if resp.Err != nil {
			t.Fatalf("admitted request failed across drain: %v", resp.Err)
		}
	default:
		t.Fatal("drained engine did not deliver the admitted response")
	}
	if _, err := submit(e, Request{Tenant: "t", Workload: "w", Policy: "p"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after Drain: err=%v, want ErrDraining", err)
	}
}
