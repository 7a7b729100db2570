// Package histo provides a bounded, mergeable, log-linear latency
// histogram (HDR-style) for the serving layer's wall-clock path.
//
// The experiment harness keeps every simulated-time sample exact in
// stats.Reservoir — instruction streams are bounded, and the paper's
// figures want exact percentiles. The serving path is different: an
// open-loop load generator at production rates produces an unbounded
// sample stream, and per-tenant Reservoirs would grow without limit for
// the lifetime of the server. A Histogram spends a fixed ~30 KiB per
// tracked series instead, admits samples in O(1) without allocating, and
// answers quantiles with a bounded relative error: 64 buckets per
// doubling, so an answer is within 1/64 of the sample either side.
//
// Merge adds bucket counts pairwise, so it is exact (no re-sketching
// error), associative, and commutative — per-worker histograms can be
// folded in any grouping or order and always yield the same aggregate.
// That is what lets the open-loop load generator account latency in
// per-collector histograms with no shared lock and merge them at report
// time.
package histo
