package sim

import (
	"container/heap"
	"fmt"
)

// event is one scheduled callback.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among events at the same instant
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Engine is a discrete-event simulator: a binary heap of individually
// sequenced events, popped one at a time. Events run in time order, and
// events at one instant run in the order they were scheduled, including
// one a callback schedules at the current time, which runs after the
// events already queued for that instant.
//
// No timed model runs on it: devices price their work on Calendar and
// Group. Its one caller is cmd/conduit-bench, which times scheduling and
// draining 1e5 events for its sim.ns_per_event row.
//
// The zero value is not usable; call NewEngine.
type Engine struct {
	now    Time
	events eventHeap
	seq    uint64
}

// NewEngine returns an engine with the clock at zero and no pending
// events.
func NewEngine() *Engine {
	return &Engine{}
}

// Schedule runs fn at absolute time at. Scheduling in the past panics:
// it always indicates a modelling bug, never a recoverable condition.
func (e *Engine) Schedule(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	heap.Push(&e.events, event{at: at, seq: e.seq, fn: fn})
}

// Run executes events in order, advancing the clock to each one's
// timestamp, until none remain.
func (e *Engine) Run() {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(event)
		e.now = ev.at
		ev.fn()
	}
}
