// Package faultinject is the deterministic chaos layer: seeded,
// replayable fault schedules injected at the three seams of the serving
// stack — device-level shard runs (failures, panics, slow-shard
// degradation of simulated time), pool-level fork acquisition (refused
// or poisoned forks), and serve-level dispatch (backend errors).
//
// The seams are one table: each row names its site prefix and the kinds
// it injects in draw order, which is also the precedence, and one
// method, Injector.Draw, serves every row. Every decision is drawn from
// an explicitly seeded SplitMix64 stream, one independent substream per
// injection site (a seam x workload x shard triple), so whether a given
// attempt faults is a pure function of (seed, site, per-site sequence
// number) — independent of goroutine interleaving across sites. A
// serial driver replays bit-identically; a concurrent driver stays
// deterministic per site.
//
// Every injected fault is recorded, and the log round-trips through the
// repository's one JSON Lines codec (internal/jsonl). A replay injector
// built from such a log reproduces the identical fault sequence without
// consulting the RNG at all, so any chaos run can be re-executed
// exactly; Check refuses a record no injector could have written.
//
// The package also houses the deterministic recovery primitives the
// serving tier composes on top of injection: capped exponential backoff
// charged to simulated time (never slept on the wall clock) and a
// request-count circuit breaker whose open/half-open cadence is counted
// in short-circuited requests rather than wall-clock cooldowns, keeping
// the whole fault-and-recovery story inside simulated time.
package faultinject
