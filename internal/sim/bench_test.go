package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEngineScheduleDrain measures raw event-queue throughput —
// schedule n events, drain them all — on both Oracle implementations,
// at three decades of queue depth and in two timestamp shapes:
// "coalesced" revisits each instant ~16 times in scattered order (the
// NAND-completion shape the bucket engine is built for — many plane
// operations finish at identical instants), "unique" gives every event
// its own instant (the adversarial shape, where the bucket engine
// degenerates to a heap of batches plus map traffic).
func BenchmarkEngineScheduleDrain(b *testing.B) {
	engines := []struct {
		name string
		make func() Oracle
	}{
		{"bucket", func() Oracle { return NewEngine() }},
		{"heap", func() Oracle { return NewHeapEngine() }},
	}
	shapes := []struct {
		name string
		at   func(i, n int) Time
	}{
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
			for _, eng := range engines {
				b.Run(fmt.Sprintf("%s/%s/%d", shape.name, eng.name, n), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						e := eng.make()
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
}
