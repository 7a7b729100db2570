// Package sim provides the simulated-time core of the Conduit
// reproduction: a virtual clock, resource calendars that capture queueing
// delay on serial resources (flash channels, DRAM banks and buses,
// controller cores), which every timed model uses, a seeded RNG, and a
// discrete-event engine that cmd/conduit-bench times.
//
// Everything here is deliberately single-threaded and deterministic: two
// runs with the same inputs produce identical timelines, which the
// experiment harness and the tests rely on.
package sim
