package histo

import (
	"math"
	"sort"
	"testing"

	"conduit/internal/sim"
	"conduit/internal/stats"
)

// TestBucketLayoutIsTotalAndMonotonic: every non-negative int64 maps to
// exactly one in-range bucket whose bounds contain it, bucket index is
// monotone in the value, and adjacent buckets tile the value space with
// no gaps or overlaps.
func TestBucketLayoutIsTotalAndMonotonic(t *testing.T) {
	// Exhaustive over the linear range and the first tiers, then spot
	// checks up to int64 max including every power-of-two boundary.
	var vals []int64
	for v := int64(0); v < 4*subBuckets; v++ {
		vals = append(vals, v)
	}
	for shift := uint(0); shift < 63; shift++ {
		p := int64(1) << shift
		vals = append(vals, p-1, p, p+1)
	}
	vals = append(vals, math.MaxInt64-1, math.MaxInt64)
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })

	lastIdx := -1
	for _, v := range vals {
		if v < 0 {
			continue
		}
		idx := bucketIndex(v)
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("value %d: bucket %d out of range [0,%d)", v, idx, numBuckets)
		}
		lo, hi := bucketBounds(idx)
		if v < lo || v > hi {
			t.Fatalf("value %d: bucket %d bounds [%d,%d] do not contain it", v, idx, lo, hi)
		}
		if idx < lastIdx {
			t.Fatalf("bucket index not monotone at value %d", v)
		}
		lastIdx = idx
	}
	// Tiling: bucket i's hi + 1 == bucket i+1's lo, across every bucket.
	for i := 0; i < numBuckets-1; i++ {
		_, hi := bucketBounds(i)
		lo, _ := bucketBounds(i + 1)
		if hi+1 != lo {
			t.Fatalf("buckets %d,%d do not tile: hi=%d lo=%d", i, i+1, hi, lo)
		}
	}
	// The last bucket reaches int64 max, so no sample can escape.
	if _, hi := bucketBounds(numBuckets - 1); hi != math.MaxInt64 {
		t.Fatalf("last bucket tops out at %d, want int64 max", hi)
	}
}

// width is the number of values the bucket holding v represents: the
// granularity at which the histogram remembers v, and so the bound on a
// quantile's distance from the exact sample.
func width(v int64) int64 {
	lo, hi := bucketBounds(bucketIndex(v))
	return hi - lo + 1
}

// TestWidthIsRelativeErrorBound: the bucket width at v never exceeds
// v * 2 / halfSub, a relative error of 1/halfSub either side (and is 1 —
// exact — in the linear range).
func TestWidthIsRelativeErrorBound(t *testing.T) {
	for v := int64(0); v < subBuckets; v++ {
		if width(v) != 1 {
			t.Fatalf("linear-range value %d has width %d, want 1", v, width(v))
		}
	}
	rng := sim.NewRNG(11)
	for i := 0; i < 20000; i++ {
		v := int64(rng.Uint64() >> 1) // non-negative
		if w := width(v); float64(w) > float64(v)*2/halfSub+1 {
			t.Fatalf("value %d: width %d exceeds relative bound", v, w)
		}
	}
}

func fill(seed uint64, n int, spread int64) *Histogram {
	h := New()
	rng := sim.NewRNG(seed)
	for i := 0; i < n; i++ {
		h.Add(int64(rng.Uint64() % uint64(spread)))
	}
	return h
}

// TestMergeAssociativeCommutative pins the merge algebra white-box: full
// bucket-array equality, not just summary statistics, for (A+B)+C vs
// A+(B+C) and A+B vs B+A — including merges with empty histograms.
func TestMergeAssociativeCommutative(t *testing.T) {
	a := fill(1, 5000, 1<<40)
	b := fill(2, 3000, 1<<12)
	c := fill(3, 1, 1<<60)
	empty := New()

	merged := func(parts ...*Histogram) *Histogram {
		out := New()
		for _, p := range parts {
			out.Merge(p)
		}
		return out
	}

	// Commutativity.
	if !merged(a, b).equalTo(merged(b, a)) {
		t.Fatal("A+B != B+A")
	}
	// Associativity: ((A+B)+C) vs (A+(B+C)).
	ab := merged(a, b)
	ab.Merge(c)
	bc := merged(b, c)
	acc := a.Clone()
	acc.Merge(bc)
	if !ab.equalTo(acc) {
		t.Fatal("(A+B)+C != A+(B+C)")
	}
	// Identity: empty is a two-sided unit, and merging never mutates the
	// source.
	before := a.Clone()
	if !merged(a, empty).equalTo(a) || !merged(empty, a).equalTo(a) {
		t.Fatal("empty histogram is not a merge identity")
	}
	if !a.equalTo(before) {
		t.Fatal("Merge mutated its source")
	}
	// Merge equals adding the union of samples directly.
	direct := New()
	for _, seed := range []uint64{1, 2} {
		rng := sim.NewRNG(seed)
		n, spread := 5000, int64(1<<40)
		if seed == 2 {
			n, spread = 3000, 1<<12
		}
		for i := 0; i < n; i++ {
			direct.Add(int64(rng.Uint64() % uint64(spread)))
		}
	}
	if !direct.equalTo(merged(a, b)) {
		t.Fatal("merge differs from adding the union of samples")
	}
}

// TestPercentileDifferentialAgainstReservoir bounds the histogram's
// quantile error against the exact nearest-rank Reservoir: for every
// percentile, |histo - exact| <= width(exact)/2 rounded up — i.e. the
// histogram's answer sits in (the midpoint of) the bucket holding the
// exact sample. Several sample shapes, including heavy tails.
func TestPercentileDifferentialAgainstReservoir(t *testing.T) {
	shapes := map[string]func(rng *sim.RNG) int64{
		"uniform-small": func(rng *sim.RNG) int64 { return int64(rng.Uint64() % 100) },
		"uniform-wide":  func(rng *sim.RNG) int64 { return int64(rng.Uint64() % (1 << 34)) },
		"heavy-tail": func(rng *sim.RNG) int64 {
			base := int64(rng.Uint64() % 1000)
			if rng.Float64() < 0.01 {
				return base + int64(rng.Uint64()%(1<<30))
			}
			return base
		},
		"constant": func(rng *sim.RNG) int64 { return 4242 },
	}
	percentiles := []float64{0, 0.1, 1, 25, 50, 75, 90, 99, 99.9, 99.99, 100}
	for name, gen := range shapes {
		h := New()
		r := stats.NewReservoir()
		rng := sim.NewRNG(99)
		var sum int64
		for i := 0; i < 20000; i++ {
			v := gen(rng)
			h.Add(v)
			r.Add(sim.Time(v))
			sum += v
		}
		for _, p := range percentiles {
			exact := int64(r.Percentile(p))
			got := h.Percentile(p)
			bound := width(exact)/2 + 1
			if d := got - exact; d > bound || d < -bound {
				t.Errorf("%s p%v: histo %d vs exact %d (|diff| %d > bucket half-width %d)",
					name, p, got, exact, d, bound)
			}
		}
		if h.Count() != int64(r.Count()) {
			t.Errorf("%s: count %d vs %d", name, h.Count(), r.Count())
		}
		if h.Max() != int64(r.Percentile(100)) {
			t.Errorf("%s: max %d vs %d (max is tracked exactly)", name, h.Max(), r.Percentile(100))
		}
		if h.Sum() != sum {
			t.Errorf("%s: sum %d vs %d (sum is exact)", name, h.Sum(), sum)
		}
	}
}

// TestPercentileEdgeCases: empty, single-sample, p0/p100, negative
// clamping, and range panics — mirroring the Reservoir contract.
func TestPercentileEdgeCases(t *testing.T) {
	h := New()
	if h.Percentile(50) != 0 || h.Max() != 0 || h.Sum() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Add(777)
	for _, p := range []float64{0, 50, 100} {
		if got := h.Percentile(p); got != 777 {
			t.Fatalf("single sample p%v = %d, want 777", p, got)
		}
	}
	h.Add(-3) // clamps to 0
	if h.min != 0 || h.Percentile(0) != 0 {
		t.Fatal("negative sample must clamp to 0")
	}
	for _, bad := range []float64{-1, 101} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Percentile(%v) did not panic", bad)
				}
			}()
			h.Percentile(bad)
		}()
	}
}
