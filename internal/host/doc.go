// Package host models outside-storage processing (OSP): executing the
// workload on the host CPU or GPU with operands streamed from the SSD over
// the NVMe/PCIe link. The paper evaluates the hosts on real hardware
// combined with simulated SSD-to-host transfers (§5.3); we substitute
// calibrated roofline models of the same machines (Xeon Gold 5118,
// NVIDIA A100) fed by the same instruction stream: docs/ARCHITECTURE.md
// "Paper section → package map", row §5.3.
//
// Per instruction, execution time is the roofline maximum of three terms:
// PCIe transfer of non-resident operands, host-memory traffic, and compute
// throughput. A host-side page cache models data reuse: an exact LRU over
// the program's pages holding 1/16 of them (at least 4), so that, as in
// the paper's workload sizing (footprints exceed memory capacity, §5.4),
// only a small fraction of the dataset is ever resident, which is what
// keeps OSP data-movement-bound. A hit, a miss and an eviction each cost
// O(1) host time.
package host
