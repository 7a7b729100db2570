package sim_test

import (
	"testing"

	"conduit/internal/sim"
	"conduit/internal/sim/simtest"
)

// FuzzBucketQueue feeds arbitrary operation scripts to the fast
// coalescing engine and the reference heap engine and demands identical
// observable behavior: same callbacks in the same order at the same
// clock readings, same Now/Steps/Pending after every operation. In
// particular this pins coalesced-drain == one-by-one drain: scripts mix
// whole-queue Runs with single Steps and RunUntil cuts, so a batch that
// drains differently from individually popped events diverges
// immediately. Seed corpus lives in testdata/fuzz/FuzzBucketQueue.
func FuzzBucketQueue(f *testing.F) {
	// Same-timestamp storm: every event at one instant, spawners
	// appending to the batch being drained.
	f.Add([]byte{0, 5, 3, 0, 1, 5, 2, 0, 2, 5, 1, 0, 4, 0, 0, 0, 7, 0, 0, 0})
	// Sparse schedule drained via RunUntil boundaries.
	f.Add([]byte{0, 31, 0, 7, 3, 16, 0, 0, 5, 31, 0, 0, 6, 63, 0, 0})
	// Step-heavy: exercises batch open/close transitions.
	f.Add([]byte{0, 1, 1, 1, 4, 0, 0, 0, 4, 0, 0, 0, 0, 1, 2, 0, 4, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		if err := simtest.Diff(simtest.DecodeOps(data), 2048); err != nil {
			t.Fatalf("engines diverged: %v", err)
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
