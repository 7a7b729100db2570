package stats

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"conduit/internal/sim"
)

// Reservoir records a full set of latency samples and computes exact
// percentiles. The evaluated instruction streams are small enough (at most
// a few hundred thousand samples) that keeping every sample exact is
// cheaper and more faithful than an approximating sketch.
//
// A Reservoir is safe for concurrent use: percentile queries sort lazily,
// so even read-only-looking accessors mutate internal state — and shared
// memoized results are read from many sweep goroutines at once.
type Reservoir struct {
	mu      sync.Mutex
	samples []sim.Time
	n       int              // len(samples), or how many fill will write
	sum     sim.Time         // running total of samples, so Sum and Mean are O(1)
	fill    func([]sim.Time) // writes the n samples; nil once they are stored
	sorted  bool
}

// NewReservoir returns an empty reservoir.
func NewReservoir() *Reservoir { return &Reservoir{} }

// ReservoirOf returns a reservoir that adopts samples: no copy is made, so
// the caller must not touch the slice again (percentile queries sort it in
// place). A producer that records one sample per step appends to a plain
// slice and hands it over once, instead of locking per sample.
func ReservoirOf(samples []sim.Time) *Reservoir {
	r := &Reservoir{samples: samples, n: len(samples)}
	for _, s := range samples {
		r.sum += s
	}
	return r
}

// ReservoirFunc returns a reservoir of n samples totalling sum that stores
// them only once a query needs them: Count and Mean answer from n and sum,
// and the first Percentile, Add or merge has fill write them, in order.
func ReservoirFunc(n int, sum sim.Time, fill func(dst []sim.Time)) *Reservoir {
	return &Reservoir{n: n, sum: sum, fill: fill}
}

// materialize stores a ReservoirFunc reservoir's samples; r.mu is held.
func (r *Reservoir) materialize() {
	if r.fill != nil {
		r.samples = make([]sim.Time, r.n)
		r.fill(r.samples)
		r.fill = nil
	}
}

// Add records one sample.
func (r *Reservoir) Add(v sim.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.materialize()
	r.samples = append(r.samples, v)
	r.n++
	r.sum += v
	r.sorted = false
}

// Count reports the number of samples.
func (r *Reservoir) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Percentile returns the p'th percentile (0 <= p <= 100) using the
// nearest-rank method. It returns 0 for an empty reservoir.
func (r *Reservoir) Percentile(p float64) sim.Time {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return 0
	}
	if r.materialize(); !r.sorted {
		slices.Sort(r.samples)
		r.sorted = true
	}
	return r.samples[max(0, min(r.n-1, int(math.Ceil(p/100*float64(r.n)))-1))]
}

// P99 is the 99th percentile.
func (r *Reservoir) P99() sim.Time { return r.Percentile(99) }

// P9999 is the 99.99th percentile.
func (r *Reservoir) P9999() sim.Time { return r.Percentile(99.99) }

// Mean returns the arithmetic mean rounded to the nearest unit (0 if
// empty). Samples are non-negative times, so half-up rounding suffices.
func (r *Reservoir) Mean() sim.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return 0
	}
	n := int64(r.n)
	return sim.Time((int64(r.sum) + n/2) / n)
}

// MergeReservoirs returns a new reservoir holding the union of every part's
// samples, concatenated in argument order. Percentile queries sort lazily,
// so the union is order-insensitive for every derived statistic — but the
// fixed concatenation order keeps the raw sample sequence run-for-run
// deterministic, which is what lets a cluster's scatter-gather merge be
// byte-identical between concurrent and serial shard execution. Nil parts
// are skipped; a part's samples are only ever materialized, never changed.
func MergeReservoirs(parts ...*Reservoir) *Reservoir {
	var samples []sim.Time
	for _, p := range parts {
		if p == nil {
			continue
		}
		p.mu.Lock()
		p.materialize()
		samples = append(samples, p.samples...)
		p.mu.Unlock()
	}
	return ReservoirOf(samples)
}

// Counters is a named set of monotonically increasing tallies, held as
// parallel slices in first-use order: sets are small (a device run records
// 21), so a scan finds a name as fast as a hash and a set costs two
// allocations instead of a map.
type Counters struct {
	names []string
	vals  []int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{} }

// CountersOf returns a set holding vals[i] under names[i], in that order.
// It adopts vals and only reads names, which may therefore be a fixed
// list shared by every set built from it; names must be distinct.
func CountersOf(names []string, vals []int64) *Counters {
	if len(names) != len(vals) {
		panic(fmt.Sprintf("stats: %d counter names for %d values", len(names), len(vals)))
	}
	// Clipped, so that adding a new name appends to a copy and never
	// writes into the caller's list.
	return &Counters{names: slices.Clip(names), vals: vals}
}

// Holds reports whether c holds exactly vals under names, in that order:
// whether it equals what CountersOf(names, vals) builds. It allocates
// nothing, so a producer can compare a tally it keeps on the stack.
func (c *Counters) Holds(names []string, vals []int64) bool {
	return slices.Equal(c.vals, vals) && slices.Equal(c.names, names)
}

// Add increments name by delta.
func (c *Counters) Add(name string, delta int64) {
	if i := slices.Index(c.names, name); i >= 0 {
		c.vals[i] += delta
		return
	}
	c.names = append(c.names, name)
	c.vals = append(c.vals, delta)
}

// Get reports the value of name (0 if never added).
func (c *Counters) Get(name string) int64 {
	if i := slices.Index(c.names, name); i >= 0 {
		return c.vals[i]
	}
	return 0
}

// Merge adds every counter of o into c, preserving c's first-use order
// and appending names new to c in o's order. Merging the per-shard
// counter sets of a cluster run in shard-index order therefore yields a
// deterministic summed set regardless of which shard finished first.
// A nil o is a no-op; o is never mutated.
func (c *Counters) Merge(o *Counters) {
	if o == nil {
		return
	}
	for i, name := range o.names {
		c.Add(name, o.vals[i])
	}
}

// Names returns counter names in first-use order: the set's own list,
// clipped, so an append copies. Read it, never write it.
func (c *Counters) Names() []string { return slices.Clip(c.names) }

// Len is the number of counters in the set.
func (c *Counters) Len() int { return len(c.names) }

// Each calls fn with every counter, name and value, in first-use order,
// without copying the set.
func (c *Counters) Each(fn func(name string, v int64)) {
	for i, name := range c.names {
		fn(name, c.vals[i])
	}
}

// GeoMean returns the geometric mean of xs. It panics if any value is
// non-positive: speedups in the harness are always > 0, so a non-positive
// input indicates a broken experiment.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %v", x))
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}
