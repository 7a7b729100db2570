package loadgen

import (
	"sort"
	"sync"
	"time"
)

// Event is one scheduled (or observed) request arrival. Durations
// serialize as integer nanoseconds, so a trace line is portable and
// diffable: {"at":1500000,"tenant":"tenant-00","workload":"aes",...}.
type Event struct {
	// At is the arrival offset from the start of the run.
	At time.Duration `json:"at"`
	// Tenant is the accounting principal the request bills to.
	Tenant string `json:"tenant"`
	// Workload names the registered application.
	Workload string `json:"workload"`
	// Policy is the execution policy.
	Policy string `json:"policy"`
	// Deadline is the request's latency budget from submission (its SLO);
	// 0 means none.
	Deadline time.Duration `json:"deadline,omitempty"`
}

// A Recorder captures a live run as a trace: each issued request is
// recorded with its actual wall-clock offset from the recorder's start,
// so the resulting trace replays the run as it really unfolded —
// including closed-loop pacing, which exists nowhere but in the observed
// timestamps. Safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	start  time.Time
	events []Event
}

// NewRecorder starts recording; offsets are measured from this call.
func NewRecorder() *Recorder { return &Recorder{start: time.Now()} }

// Record captures one issued request at the current wall-clock offset.
func (r *Recorder) Record(tenant, workload, policy string, deadline time.Duration) {
	at := time.Since(r.start)
	r.mu.Lock()
	r.events = append(r.events, Event{
		At: at, Tenant: tenant, Workload: workload, Policy: policy, Deadline: deadline,
	})
	r.mu.Unlock()
}

// Events returns the recording so far, sorted by offset (stable, so
// same-instant events keep their capture order). Concurrent recorders
// interleave nondeterministically in capture order; sorting by the
// recorded offset makes the trace itself the canonical artifact.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Replay re-issues a schedule against the wall clock: event i fires at
// offset events[i].At/speed from the call (speed 2 replays twice as
// fast; <= 0 selects 1, exact recorded spacing). issue is called on the
// caller's goroutine, strictly in slice order — the request *sequence* is
// exactly the trace regardless of timing, which is what makes replays
// deterministic; only the wall-clock spacing is best-effort. For open-loop
// semantics issue must not block on request completion (submit, don't
// wait).
func Replay(events []Event, speed float64, issue func(Event)) {
	if speed <= 0 {
		speed = 1
	}
	start := time.Now()
	for _, ev := range events {
		target := start.Add(time.Duration(float64(ev.At) / speed))
		if d := time.Until(target); d > 0 {
			time.Sleep(d)
		}
		issue(ev)
	}
}

// Outcome is how one offered request ended.
type Outcome uint8

const (
	// Served: executed and answered successfully.
	Served Outcome = iota
	// Shed: refused at admission (queue full); never executed.
	Shed
	// Expired: its deadline passed while queued; dropped undispatched.
	Expired
	// Failed: a backend or transport error.
	Failed
)

// Tally counts one open-loop run. Shed and expired requests are the
// open-loop regime working as designed, not failures.
type Tally struct {
	Offered int64 // every request the driver issued
	Served  int64
	Shed    int64
	Expired int64
	Failed  int64
	// Elapsed spans the first issue to the last answer.
	Elapsed time.Duration
}

func (t *Tally) count(o Outcome) {
	switch o {
	case Served:
		t.Served++
	case Shed:
		t.Shed++
	case Expired:
		t.Expired++
	default:
		t.Failed++
	}
}

// A SubmitFunc issues one event without waiting for its completion. A
// request refused at the door returns a nil wait and its final outcome;
// an admitted one returns the function that blocks until it is answered
// and reports how it ended.
type SubmitFunc func(Event) (wait func() Outcome, refused Outcome)

// Drive is the open-loop load driver: it paces events through submit on
// the Replay clock (issue order is exactly slice order), never waiting on
// a completion while arrivals are still due — back-pressure there would
// silently turn the measurement closed-loop — then waits out every
// admitted request in issue order and returns the tally. The serving
// stack plugs in through submit alone: in-process Server.Submit and a
// routed Router.Do drive identically.
func Drive(events []Event, speed float64, submit SubmitFunc) Tally {
	var t Tally
	waits := make([]func() Outcome, 0, len(events))
	start := time.Now()
	Replay(events, speed, func(ev Event) {
		t.Offered++
		wait, refused := submit(ev)
		if wait == nil {
			t.count(refused)
			return
		}
		waits = append(waits, wait)
	})
	for _, wait := range waits {
		t.count(wait())
	}
	t.Elapsed = time.Since(start)
	return t
}
