package stats

import (
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"conduit/internal/sim"
)

func TestMergeReservoirsUnion(t *testing.T) {
	a := NewReservoir()
	b := NewReservoir()
	for i := 0; i < 5; i++ {
		a.Add(sim.Time(10 * (i + 1)))
		b.Add(sim.Time(7 * (i + 1)))
	}
	m := MergeReservoirs(a, nil, b)
	if got, want := m.Count(), a.Count()+b.Count(); got != want {
		t.Fatalf("merged count = %d, want %d", got, want)
	}
	if got, want := m.sum, a.sum+b.sum; got != want {
		t.Fatalf("merged sum = %d, want %d", got, want)
	}
	if got, want := m.Percentile(100), b.Percentile(100); got == 0 || got < want {
		t.Fatalf("merged max = %d, want >= %d", got, want)
	}
	// Parts are untouched (the merge copies, never steals).
	if a.Count() != 5 || b.Count() != 5 {
		t.Fatalf("merge mutated its parts: %d, %d", a.Count(), b.Count())
	}
}

// TestMergeReservoirsSingleIsClone: merging one reservoir must be
// statistically indistinguishable from the original — the 1-shard
// byte-identity proof leans on this.
func TestMergeReservoirsSingleIsClone(t *testing.T) {
	r := NewReservoir()
	for _, v := range []sim.Time{9, 3, 3, 12, 1} {
		r.Add(v)
	}
	m := MergeReservoirs(r)
	if m.Count() != r.Count() || m.sum != r.sum ||
		m.P99() != r.P99() || m.P9999() != r.P9999() ||
		m.Mean() != r.Mean() || m.Percentile(100) != r.Percentile(100) {
		t.Fatal("single-part merge differs from the original reservoir")
	}
}

// TestMergeReservoirsDeterministicSequence: the raw merged sample
// sequence follows argument order exactly.
func TestMergeReservoirsDeterministicSequence(t *testing.T) {
	a, b := NewReservoir(), NewReservoir()
	a.Add(5)
	a.Add(2)
	b.Add(8)
	m1 := MergeReservoirs(a, b)
	m2 := MergeReservoirs(a, b)
	if !reflect.DeepEqual(m1.samples, m2.samples) {
		t.Fatal("merge of identical parts produced different sequences")
	}
	if want := []sim.Time{5, 2, 8}; !reflect.DeepEqual(m1.samples, want) {
		t.Fatalf("merged sequence = %v, want %v", m1.samples, want)
	}
}

// TestReservoirFuncFillsOnce: a reservoir built from a count, a sum and
// a fill function answers Count and Mean without calling fill, calls it
// once, under concurrent queries, for the first that needs samples, and
// then answers as ReservoirOf the same samples; merged, its samples come
// in fill's order, between its neighbours'.
func TestReservoirFuncFillsOnce(t *testing.T) {
	samples := []sim.Time{9, 3, 3, 12, 1}
	var fills atomic.Int32
	lazy := func() *Reservoir {
		return ReservoirFunc(len(samples), 28, func(dst []sim.Time) {
			fills.Add(1)
			copy(dst, samples)
		})
	}
	r, want := lazy(), ReservoirOf(slices.Clone(samples))
	if r.Count() != 5 || r.Mean() != want.Mean() || fills.Load() != 0 {
		t.Fatalf("Count %d, Mean %d and %d fills, want 5, %d and none", r.Count(), r.Mean(), fills.Load(), want.Mean())
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.P99()
		}()
	}
	wg.Wait()
	if fills.Load() != 1 {
		t.Fatalf("%d fills for four percentile queries, want 1", fills.Load())
	}
	for _, p := range []float64{0, 20, 40, 60, 80, 99, 100} {
		if r.Percentile(p) != want.Percentile(p) {
			t.Fatalf("p%v = %d, want %d", p, r.Percentile(p), want.Percentile(p))
		}
	}
	a := NewReservoir()
	a.Add(7)
	m := MergeReservoirs(a, lazy(), a)
	if got := []sim.Time{7, 9, 3, 3, 12, 1, 7}; !reflect.DeepEqual(m.samples, got) || m.sum != 42 || m.Count() != 7 {
		t.Fatalf("merged %v (sum %d, count %d), want %v", m.samples, m.sum, m.Count(), got)
	}
	added := lazy()
	added.Add(2)
	if added.Count() != 6 || added.Percentile(100) != 12 || added.Percentile(0) != 1 {
		t.Fatal("Add to an unfilled reservoir lost its samples")
	}
}

func TestCountersMerge(t *testing.T) {
	a := NewCounters()
	a.Add("flash.senses", 3)
	a.Add("dram.bbops", 2)
	b := NewCounters()
	b.Add("dram.bbops", 5)
	b.Add("core.cycles", 7)
	a.Merge(b)
	a.Merge(nil)
	if got := a.Get("dram.bbops"); got != 7 {
		t.Fatalf("dram.bbops = %d, want 7", got)
	}
	if got := a.Get("core.cycles"); got != 7 {
		t.Fatalf("core.cycles = %d, want 7", got)
	}
	if got := a.Get("flash.senses"); got != 3 {
		t.Fatalf("flash.senses = %d, want 3", got)
	}
	want := []string{"flash.senses", "dram.bbops", "core.cycles"}
	if !reflect.DeepEqual(a.Names(), want) {
		t.Fatalf("merged order = %v, want %v", a.Names(), want)
	}
	// The merged-from set is untouched.
	if b.Get("dram.bbops") != 5 || len(b.Names()) != 2 {
		t.Fatal("Merge mutated its argument")
	}
}
