package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEngineScheduleDrain measures raw event-queue throughput —
// schedule n events, drain them all — at three decades of queue depth
// and in three timestamp shapes: "ascending" gives event i the instant i,
// the shape cmd/conduit-bench times for sim.ns_per_event (its 1e5 case
// is that row's workload); "coalesced" revisits each instant ~16 times
// in scattered order (many plane operations finishing at one instant);
// "unique" gives every event its own instant in scattered order.
func BenchmarkEngineScheduleDrain(b *testing.B) {
	shapes := []struct {
		name string
		at   func(i, n int) Time
	}{
		{"ascending", func(i, n int) Time { return Time(i) }},
		// 7919 is prime and larger than any n/16 used here, so the walk
		// scatters arrival order across the n/16 distinct instants.
		{"coalesced", func(i, n int) Time { return Time((i * 7919) % (n / 16) * 50) }},
		{"unique", func(i, n int) Time { return Time((i * 7919) % n * 50) }},
	}
	for _, shape := range shapes {
		for _, n := range []int{1e3, 1e5, 1e6} {
			// Precompute the timestamps so generation is not measured.
			times := make([]Time, n)
			for i := range times {
				times[i] = shape.at(i, n)
			}
			b.Run(fmt.Sprintf("%s/%d", shape.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e := NewEngine()
					sink := 0
					for _, at := range times {
						e.Schedule(at, func() { sink++ })
					}
					e.Run()
					if sink != n {
						b.Fatalf("drained %d events, want %d", sink, n)
					}
				}
			})
		}
	}
}
