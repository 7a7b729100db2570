package cluster

import (
	"testing"

	"conduit/internal/sim"
)

func TestHedgePick(t *testing.T) {
	cases := []struct {
		name      string
		elapsed   []sim.Time
		threshold float64
		want      int
	}{
		{"no straggler", []sim.Time{100, 110, 105}, 2, -1},
		{"clear straggler", []sim.Time{100, 410, 105}, 2, 1},
		{"at threshold not over", []sim.Time{100, 200}, 2, -1},
		{"tie breaks low", []sim.Time{400, 100, 400}, 2, 0},
		{"single shard", []sim.Time{100}, 2, -1},
		{"empty", nil, 2, -1},
	}
	for _, c := range cases {
		if got := HedgePick(c.elapsed, c.threshold); got != c.want {
			t.Errorf("%s: HedgePick(%v, %v) = %d, want %d", c.name, c.elapsed, c.threshold, got, c.want)
		}
	}
}
