package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (mean of the middle two for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (exclusive), which is how the
// benchmark's run-to-run spread is judged; fewer than two samples have
// no spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// pairedDiffs returns a[i]-b[i] over the common prefix: the ladder
// replays one request sequence at two depths, so request i at the deeper
// depth pairs with request i at the shallower one.
func pairedDiffs(a, b []float64) []float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	d := make([]float64, n)
	for i := range d {
		d[i] = a[i] - b[i]
	}
	return d
}

// summary is one metric's per-round values with their median and
// quartiles.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Median: median(xs), Q1: q1, Q3: q3, Values: xs}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// ladderSelfs reconciles the ladder. depths[0] is the innermost call
// (fork then device run) and depths[len-1] the outermost (Router.Do);
// parts are the innermost depth's child spans (fork, run). A depth's
// self time is the median paired difference to the depth below; the
// innermost depth's self is what its parts leave uncovered. The residual
// is whatever the medians do not account for, so that
// sum(partMedians) + sum(selfs) + residual == total exactly.
func ladderSelfs(depths [][]float64, parts [][]float64) (partMedians, selfs []float64, total, residual float64) {
	covered := make([]float64, len(depths[0]))
	for _, p := range parts {
		partMedians = append(partMedians, median(p))
		for i := range covered {
			covered[i] += p[i]
		}
	}
	selfs = append(selfs, median(pairedDiffs(depths[0], covered)))
	for k := 1; k < len(depths); k++ {
		selfs = append(selfs, median(pairedDiffs(depths[k], depths[k-1])))
	}
	total = median(depths[len(depths)-1])
	residual = total
	for _, v := range partMedians {
		residual -= v
	}
	for _, v := range selfs {
		residual -= v
	}
	return partMedians, selfs, total, residual
}
