package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// quickCfg returns a seeded testing/quick configuration: property
// failures replay bit-identically, matching the repo's determinism
// contract for everything under test.
func quickCfg(seed int64, max int) *quick.Config {
	return &quick.Config{Rand: rand.New(rand.NewSource(seed)), MaxCount: max}
}

// TestPropertyReserveMonotone: horizons never move backward, every
// reservation advances the horizon by at least its duration, and busy
// time never exceeds the horizon (work conservation).
func TestPropertyReserveMonotone(t *testing.T) {
	f := func(steps []uint32) bool {
		c := new(Calendar)
		var now Time
		for _, s := range steps {
			now += Time(s % 97)
			d := Time((s >> 8) % 251)
			before := c.horizon
			_, end := c.Reserve(now, now, d)
			if c.horizon < before+d || end < now+d || c.busy > c.horizon {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(2, 300)); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyQueueDelayConsistent: at every instant, QueueDelay reports
// exactly the clamped horizon distance.
func TestPropertyQueueDelayConsistent(t *testing.T) {
	f := func(steps []uint32) bool {
		c := new(Calendar)
		var now Time
		for _, s := range steps {
			now += Time(s % 97)
			d := Time((s >> 8) % 251)
			c.Reserve(now, now, d)
			want := c.horizon - now
			if want < 0 {
				want = 0
			}
			if c.QueueDelay(now) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(3, 200)); err != nil {
		t.Fatal(err)
	}
}
