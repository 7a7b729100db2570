package histo

import (
	"fmt"
	"math/bits"
)

// Bucket layout: values in [0, 1<<subBits) get one bucket each (exact).
// Above that, each doubling of the value range ("tier") is split into
// subBuckets/2 equal-width buckets, so the bucket width at value v is at
// most v/(subBuckets/2) — a fixed relative error. The layout is total
// over non-negative int64, so the histogram is bounded by construction:
// no clamping, no overflow bucket, no allocation after New.
const (
	subBits    = 7
	subBuckets = 1 << subBits   // exact one-unit buckets: [0, 128)
	halfSub    = subBuckets / 2 // buckets per tier above the linear range
	tiers      = 63 - subBits   // doublings needed to reach 1<<62 .. int64 max
	numBuckets = subBuckets + tiers*halfSub
)

// Histogram is a bounded log-linear histogram over non-negative int64
// samples (the serving layer records wall-clock nanoseconds). The zero
// value is NOT ready to use; call New. Methods are not synchronized —
// callers that share a Histogram across goroutines must provide their own
// exclusion (the serve engine accounts under its accounting mutex; the
// load generator keeps one histogram per collector and merges).
type Histogram struct {
	counts [numBuckets]int64
	count  int64
	sum    int64
	min    int64 // exact; valid only when count > 0
	max    int64 // exact; valid only when count > 0
}

// New returns an empty histogram.
func New() *Histogram { return &Histogram{} }

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < subBuckets {
		return int(u)
	}
	t := bits.Len64(u) - subBits // tier, >= 1
	return subBuckets + (t-1)*halfSub + int(u>>uint(t)) - halfSub
}

// bucketBounds returns the inclusive value range bucket idx covers.
func bucketBounds(idx int) (lo, hi int64) {
	if idx < subBuckets {
		return int64(idx), int64(idx)
	}
	j := idx - subBuckets
	t := uint(j/halfSub + 1)
	s := int64(j%halfSub + halfSub)
	lo = s << t
	return lo, lo + (1 << t) - 1
}

// Add records one sample. Negative samples (clock skew artifacts) clamp
// to zero rather than corrupting the layout.
func (h *Histogram) Add(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	h.sum += v
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
}

// Count reports the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count }

// Sum reports the exact total of all recorded samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Max returns the largest recorded sample, exactly (0 if empty).
func (h *Histogram) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Percentile returns the p'th percentile (0 <= p <= 100) under the same
// nearest-rank semantics as stats.Reservoir: the returned value lies in
// the bucket holding the rank-ceil(p/100*n) smallest sample, so it is
// within a bucket width of the exact nearest-rank answer (and clamped to
// the exact observed [min, Max]). It returns 0 for an empty histogram.
func (h *Histogram) Percentile(p float64) int64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("histo: percentile %v out of range", p))
	}
	if h.count == 0 {
		return 0
	}
	rank := int64(p / 100 * float64(h.count))
	if float64(rank) < p/100*float64(h.count) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for idx, c := range h.counts {
		cum += c
		if cum >= rank {
			lo, hi := bucketBounds(idx)
			mid := lo + (hi-lo)/2
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max // unreachable: cum reaches count >= rank
}

// P50 is the median.
func (h *Histogram) P50() int64 { return h.Percentile(50) }

// P99 is the 99th percentile.
func (h *Histogram) P99() int64 { return h.Percentile(99) }

// P999 is the 99.9th percentile.
func (h *Histogram) P999() int64 { return h.Percentile(99.9) }

// Merge folds o into h bucket-wise. Because buckets align exactly across
// all histograms, merging introduces no error beyond each sample's
// original bucketing, and the operation is associative and commutative:
// any grouping and order of merges yields identical counts, sum, min, and
// max. A nil o is a no-op; o is never modified.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	for i, c := range o.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.count == 0 || o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}

// Clone returns an independent copy of the histogram.
func (h *Histogram) Clone() *Histogram {
	c := *h
	return &c
}

// equalTo reports deep equality including every bucket; it backs the
// white-box merge-algebra tests.
func (h *Histogram) equalTo(o *Histogram) bool {
	if h.count != o.count || h.sum != o.sum {
		return false
	}
	if h.count > 0 && (h.min != o.min || h.max != o.max) {
		return false
	}
	return h.counts == o.counts
}
