// Package simtest is the differential-oracle harness for the simulation
// core: it drives the fast coalescing engine (sim.Engine) and the
// reference heap engine (sim.HeapEngine) through identical scripts and
// demands observationally identical behavior — same callbacks, same
// order, same clock readings, same Steps and Pending accounting at every
// point. The license to rewrite the hot path is exactly this harness:
// any divergence from the reference engine, however small, is a bug in
// the fast path by definition.
//
// Scripts come from three sources, mirroring how the engines are used:
// randomized-but-seeded operation sequences (sim.RNG), reservation
// patterns recorded from real workload runs (per-instruction offloading
// decisions with their issue/completion times), and adversarial
// same-timestamp storms that maximize batch coalescing. The script
// encoding is a flat byte stream (DecodeOps) so the native fuzzer can
// mutate it directly (FuzzBucketQueue in internal/sim).
package simtest

import (
	"fmt"

	"conduit/internal/sim"
)

// Script operation kinds.
const (
	// KindSchedule schedules an event Delta after the current clock. When
	// the event fires it appends to the trace and spawns Spawn further
	// events SpawnDelta after its own timestamp (each spawning Spawn-1 in
	// turn) — nested scheduling from inside callbacks, the case that
	// distinguishes a live batch from a frozen one.
	KindSchedule byte = iota
	// KindStep executes at most one event.
	KindStep
	// KindRunUntil runs events for Delta more nanoseconds, then pins the
	// clock there.
	KindRunUntil
	// KindAdvance advances the clock by Delta, executing covered events.
	KindAdvance
	// KindRun drains the queue.
	KindRun
)

// Op is one scripted operation against an engine.
type Op struct {
	Kind       byte
	Delta      sim.Time
	Spawn      int
	SpawnDelta sim.Time
}

// Firing records one executed event: which schedule created it and what
// the clock read when it ran.
type Firing struct {
	ID int
	At sim.Time
}

// Mark snapshots the observable engine state after one script operation.
type Mark struct {
	Now     sim.Time
	Steps   uint64
	Pending int
}

// Trace is everything observable about a script execution.
type Trace struct {
	Fired []Firing
	Marks []Mark
}

// RunScript executes ops against e and returns the full observable trace.
// Event IDs are assigned in schedule order (including events scheduled
// from inside callbacks), so two engines that execute callbacks in
// different orders necessarily produce different traces. After the last
// op the queue is drained so leftover events are compared too. At most
// maxEvents events are ever scheduled; spawns beyond the cap are dropped
// (identically on every engine, since the cap triggers at the same point
// of the same deterministic order being asserted).
func RunScript(e sim.Oracle, ops []Op, maxEvents int) *Trace {
	tr := &Trace{}
	nextID := 0
	var schedule func(at sim.Time, spawn int, spawnDelta sim.Time)
	schedule = func(at sim.Time, spawn int, spawnDelta sim.Time) {
		if nextID >= maxEvents {
			return
		}
		id := nextID
		nextID++
		e.Schedule(at, func() {
			tr.Fired = append(tr.Fired, Firing{ID: id, At: e.Now()})
			for k := 0; k < spawn; k++ {
				schedule(e.Now()+spawnDelta, spawn-1, spawnDelta)
			}
		})
	}
	for _, op := range ops {
		switch op.Kind {
		case KindSchedule:
			schedule(e.Now()+op.Delta, op.Spawn, op.SpawnDelta)
		case KindStep:
			e.Step()
		case KindRunUntil:
			e.RunUntil(e.Now() + op.Delta)
		case KindAdvance:
			e.Advance(op.Delta)
		case KindRun:
			e.Run()
		}
		tr.Marks = append(tr.Marks, Mark{Now: e.Now(), Steps: e.Steps(), Pending: e.Pending()})
	}
	e.Run()
	tr.Marks = append(tr.Marks, Mark{Now: e.Now(), Steps: e.Steps(), Pending: e.Pending()})
	return tr
}

// Diff runs ops on a fresh fast engine and a fresh reference engine and
// returns a descriptive error on the first observable divergence, nil if
// the traces are identical.
func Diff(ops []Op, maxEvents int) error {
	fast := RunScript(sim.NewEngine(), ops, maxEvents)
	ref := RunScript(sim.NewHeapEngine(), ops, maxEvents)
	return Compare(fast, ref)
}

// Compare reports the first divergence between a fast-engine trace and a
// reference-engine trace, nil if none.
func Compare(fast, ref *Trace) error {
	if len(fast.Fired) != len(ref.Fired) {
		return fmt.Errorf("fired %d events, reference fired %d", len(fast.Fired), len(ref.Fired))
	}
	for i := range ref.Fired {
		if fast.Fired[i] != ref.Fired[i] {
			return fmt.Errorf("firing %d: fast ran event %d at %v, reference ran event %d at %v",
				i, fast.Fired[i].ID, fast.Fired[i].At, ref.Fired[i].ID, ref.Fired[i].At)
		}
	}
	if len(fast.Marks) != len(ref.Marks) {
		return fmt.Errorf("recorded %d marks, reference recorded %d", len(fast.Marks), len(ref.Marks))
	}
	for i := range ref.Marks {
		if fast.Marks[i] != ref.Marks[i] {
			return fmt.Errorf("after op %d: fast (now %v, steps %d, pending %d) != reference (now %v, steps %d, pending %d)",
				i, fast.Marks[i].Now, fast.Marks[i].Steps, fast.Marks[i].Pending,
				ref.Marks[i].Now, ref.Marks[i].Steps, ref.Marks[i].Pending)
		}
	}
	return nil
}

// DecodeOps turns a flat byte stream into a script, four bytes per op.
// Deltas are kept small so timestamps collide constantly — the densest
// coalescing regime is the most adversarial one for the fast engine.
// The encoding is total: every byte string is a valid script, which is
// what makes it directly fuzzable.
func DecodeOps(data []byte) []Op {
	var ops []Op
	for len(data) >= 4 {
		b0, b1, b2, b3 := data[0], data[1], data[2], data[3]
		data = data[4:]
		var op Op
		switch b0 % 8 {
		case 0, 1, 2, 3: // schedule-heavy mix
			op = Op{Kind: KindSchedule, Delta: sim.Time(b1 % 32), Spawn: int(b2 % 4), SpawnDelta: sim.Time(b3 % 8)}
		case 4:
			op = Op{Kind: KindStep}
		case 5:
			op = Op{Kind: KindRunUntil, Delta: sim.Time(b1 % 64)}
		case 6:
			op = Op{Kind: KindAdvance, Delta: sim.Time(b1 % 64)}
		case 7:
			op = Op{Kind: KindRun}
		}
		ops = append(ops, op)
	}
	return ops
}
