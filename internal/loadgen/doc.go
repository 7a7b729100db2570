// Package loadgen is the open-loop traffic subsystem: deterministic
// arrival processes, schedule generation, and trace record/replay for the
// serving layer.
//
// The closed-loop generator the serving command started with (-clients
// goroutines issuing back-to-back) self-throttles: when the server slows
// down, the offered load drops with it, so overload, queueing, and
// tail-latency behavior never appear. Production traffic is open-loop —
// arrivals do not wait for completions — and that is what this package
// models. An Arrival process turns an explicitly seeded RNG into a stream
// of inter-arrival gaps (Poisson, bursty on-off MMPP, diurnal ramp, or
// degenerate closed-loop), Generate expands a Spec into a timestamped
// schedule of (tenant, workload, policy, deadline) events, and Replay
// paces any schedule against the wall clock at an arbitrary time scale.
//
// Determinism is the organizing constraint, exactly as in the simulator:
// every stochastic choice draws from a SplitMix64 substream derived with
// Stream, so the same Spec always yields the identical event sequence,
// and a recorded trace (JSONL, one Event per line, through internal/jsonl) is a
// reproducible artifact: replaying it re-issues the identical request
// sequence with the recorded arrival spacing, optionally time-scaled.
package loadgen
