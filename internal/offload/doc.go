// Package offload implements Conduit's runtime offloading decision — the
// holistic cost function of §4.3.2 (Table 1 features, Eqn. 1–2) — together
// with every prior policy the paper evaluates against it: bandwidth-based
// offloading (BW-Offloading), data-movement-based offloading
// (DM-Offloading), the four single-resource techniques (ISP, PuD-SSD,
// Flash-Cosmos, Ares-Flash) and the naive IFP+ISP combination of the §3.1
// case study. Conduit's switches drop cost-function terms for the §6
// ablations. The unrealizable Ideal policy is not priced here: the device
// executes it directly (ssd.Device.RunIdeal).
//
// Policies are pure functions of a Features snapshot; the SSD runtime
// gathers the features (charging the §4.5 collection latencies) and then
// executes whatever the chosen policy returns. This mirrors the paper's
// split between the SSD offloader and its cost function.
package offload
