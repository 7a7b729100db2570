package sim_test

import (
	"sort"
	"testing"

	"conduit/internal/sim"
)

// FuzzEngineOrder decodes an arbitrary byte script into schedules and
// checks the engine's one ordering rule: events run in a stable sort of
// their schedules by time. Four bytes make one operation. Most schedule
// an event a small delay after the clock; its callback schedules further
// events at or after Now(), each of which spawns one fewer in turn, so a
// callback that joins the instant being drained is common. The rest run
// the engine dry mid-script, after which scheduling resumes from the
// clock it stopped at. Every event also checks that the clock reads its
// own time when it runs. Seed corpus lives in
// testdata/fuzz/FuzzEngineOrder.
func FuzzEngineOrder(f *testing.F) {
	// Same-instant storm: spawners append to the instant being drained.
	f.Add([]byte{0, 5, 3, 0, 1, 5, 2, 0, 2, 5, 1, 0, 3, 0, 0, 0, 7, 0, 0, 0})
	// Sparse schedule with runs between arrivals.
	f.Add([]byte{0, 31, 0, 7, 7, 16, 0, 0, 5, 31, 2, 3, 7, 63, 0, 0, 6, 1, 3, 1})
	// Nested spawns at mixed distances.
	f.Add([]byte{0, 1, 3, 1, 1, 1, 3, 0, 2, 0, 2, 2, 7, 0, 0, 0, 0, 1, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxEvents = 2048
		e := sim.NewEngine()
		var scheduled []sim.Time // each event's time, in schedule order
		var ran []int
		var schedule func(at sim.Time, spawn int, spawnDelta sim.Time)
		schedule = func(at sim.Time, spawn int, spawnDelta sim.Time) {
			if len(scheduled) == maxEvents {
				return
			}
			id := len(scheduled)
			scheduled = append(scheduled, at)
			e.Schedule(at, func() {
				if e.Now() != at {
					t.Fatalf("event %d scheduled at %v ran with the clock at %v", id, at, e.Now())
				}
				ran = append(ran, id)
				for k := 0; k < spawn; k++ {
					schedule(e.Now()+spawnDelta, spawn-1, spawnDelta)
				}
			})
		}
		for ; len(data) >= 4; data = data[4:] {
			if data[0]%8 == 7 {
				e.Run()
				continue
			}
			schedule(e.Now()+sim.Time(data[1]%32), int(data[2]%4), sim.Time(data[3]%8))
		}
		e.Run()

		want := make([]int, len(scheduled))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(i, j int) bool { return scheduled[want[i]] < scheduled[want[j]] })
		if len(ran) != len(want) {
			t.Fatalf("ran %d of %d scheduled events", len(ran), len(want))
		}
		for i := range want {
			if ran[i] != want[i] {
				t.Fatalf("run %d: event %d (at %v) ran where the stable sort puts event %d (at %v)",
					i, ran[i], scheduled[ran[i]], want[i], scheduled[want[i]])
			}
		}
	})
}

// FuzzCalendarReserve checks the calendar invariants on arbitrary
// reservation streams:
//
//   - Reserve monotonicity: the horizon never moves backward, and each
//     reservation advances it by at least its duration.
//   - Work conservation: cumulative busy time never exceeds the horizon
//     (the resource can't have done more work than time it was booked).
//   - Queue-delay consistency: QueueDelay(now) == max(0, horizon-now).
//   - Interval sanity: end == start+d, start >= now, start >= notBefore.
//
// Seed corpus lives in testdata/fuzz/FuzzCalendarReserve.
func FuzzCalendarReserve(f *testing.F) {
	f.Add([]byte{10, 0, 50, 3, 200, 255, 0, 1, 0, 0, 0, 8})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1})
	f.Add([]byte{255, 200, 100, 64, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := sim.NewCalendar("fuzz")
		var now sim.Time
		for len(data) >= 4 {
			adv, nbOff, dRaw, nRaw := data[0], data[1], data[2], data[3]
			data = data[4:]
			now += sim.Time(adv % 64) // arrivals move forward
			notBefore := now + sim.Time(nbOff%128) - 32
			if notBefore < 0 {
				notBefore = 0
			}
			d := sim.Time(dRaw % 128)
			n := 1 + int(nRaw%16)

			prevHor, prevBusy := c.Horizon(), c.BusyTime()
			for i := 0; i < n; i++ {
				s, e := c.Reserve(now, notBefore, d)
				if e != s+d {
					t.Fatalf("end %v != start %v + d %v", e, s, d)
				}
				if s < now || s < notBefore {
					t.Fatalf("start %v before now %v / notBefore %v", s, now, notBefore)
				}
			}
			if c.Horizon() < prevHor+sim.Time(n)*d {
				t.Fatalf("horizon %v advanced less than reserved work %v", c.Horizon()-prevHor, sim.Time(n)*d)
			}
			if c.BusyTime() != prevBusy+sim.Time(n)*d {
				t.Fatalf("busy advanced %v, want %v", c.BusyTime()-prevBusy, sim.Time(n)*d)
			}
			if c.BusyTime() > c.Horizon() {
				t.Fatalf("busy %v exceeds horizon %v (work conservation)", c.BusyTime(), c.Horizon())
			}
			if got, want := c.QueueDelay(now), c.Horizon()-now; got != want && !(want < 0 && got == 0) {
				t.Fatalf("QueueDelay(%v) = %v, horizon %v", now, got, c.Horizon())
			}
		}
	})
}
