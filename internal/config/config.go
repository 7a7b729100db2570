package config

import (
	"fmt"
	"math"

	"conduit/internal/sim"
)

// SSD describes the simulated solid-state drive (Table 2: 48-WL-layer 3D
// TLC NAND, 2 TB, 8 channels x 8 dies x 2 planes).
type SSD struct {
	// Geometry.
	Channels       int // flash channels, each with one flash controller
	DiesPerChannel int // independently operating dies per channel
	PlanesPerDie   int // planes per die (multi-plane operations)
	BlocksPerPlane int // blocks per plane
	PagesPerBlock  int // wordlines per block (4 x 48 WL layers = 196)
	PageSize       int // bytes per page

	// Interfaces.
	PCIeBandwidth    float64 // host link, bytes/second (PCIe 4.0 x4: 8 GB/s)
	ChannelBandwidth float64 // per flash channel, bytes/second (1.2 GB/s)

	// NAND latencies (SLC mode, Table 2).
	TRead          sim.Time // page sensing (tR)
	TProg          sim.Time // page program
	TErase         sim.Time // block erase (tBERS)
	TAndOr         sim.Time // in-flash multi-wordline AND/OR
	TLatchTransfer sim.Time // page-buffer latch-to-latch transfer
	TXor           sim.Time // in-flash XOR via latches
	TDMA           sim.Time // page buffer <-> flash controller DMA

	// NAND energies (Table 2).
	EReadPerChannel float64 // J per page sense, per channel
	EAndOrPerKB     float64 // J per KiB for in-flash AND/OR
	ELatchPerKB     float64 // J per KiB for latch transfers
	EXorPerKB       float64 // J per KiB for in-flash XOR
	EDMAPerChannel  float64 // J per DMA transfer, per channel

	// SSD-internal DRAM (2 GB LPDDR4-1866, 1 channel, 1 rank, 8 banks).
	DRAMSize         int64    // bytes
	DRAMBanks        int      // independent banks
	DRAMRowSize      int      // bytes per row per bank
	DRAMBusBandwidth float64  // bytes/second on the shared LPDDR4 bus
	TBbop            sim.Time // one bulk bitwise operation round (49 ns)
	TRCD             sim.Time // row activate-to-column delay
	TRP              sim.Time // row precharge
	EBbop            float64  // J per bbop round
	EDRAMPerByte     float64  // J per byte moved over the DRAM bus

	// SSD controller (5 ARM Cortex-R8 @ 1.5 GHz).
	Cores         int     // embedded cores; one runs offloaded computation
	CoreClockHz   float64 // core frequency
	MVEWidthBytes int     // M-Profile Vector Extension datapath width
	ECorePerCycle float64 // J per active core cycle

	// Runtime offloader overheads (§4.5).
	TL2PLookupDRAM  sim.Time // L2P lookup when the mapping entry is cached
	TL2PLookupFlash sim.Time // L2P lookup when the entry must be fetched
	TDepTrack       sim.Time // data-dependence delay estimation, per queue
	TQueueTrack     sim.Time // resource queueing-delay lookup, per resource
	TDMLookup       sim.Time // precomputed data-movement latency lookup
	TCompLookup     sim.Time // precomputed computation latency lookup
	TTranslate      sim.Time // instruction transformation table lookup

	// FTL.
	MappingCacheRatio float64 // fraction of L2P entries resident in DRAM
	GCThreshold       float64 // free-block fraction that triggers GC
	OPRatio           float64 // over-provisioning fraction

	// TimingOnly is a simulation-engine switch, not a hardware parameter:
	// when set, the data plane is elided — page payloads are never stored
	// or computed, only timing, energy, and activity counters are tracked.
	// Every latency in the model is data-independent (transfer times are
	// functions of the page size, compute times of lane count and element
	// width), so a timing-only run produces byte-identical Results to a
	// functional run; only the payload-readback hook (Device.PageBytes)
	// becomes unavailable. Control flow, including every validation error
	// path, is unchanged.
	TimingOnly bool
}

// Host describes the outside-storage-processing baselines (Table 2: Xeon
// Gold 5118 and NVIDIA A100) as calibrated roofline models.
type Host struct {
	// CPU.
	CPUCores      int     // physical cores
	CPUClockHz    float64 // sustained clock
	CPUSIMDBytes  int     // vector datapath bytes per cycle per core (AVX-512)
	CPUPowerWatts float64 // package power while computing
	MemBandwidth  float64 // host DRAM, bytes/second (19.2 GB/s)
	LLCBytes      int64   // last-level cache capacity

	// GPU.
	GPUSMs         int     // streaming multiprocessors
	GPUClockHz     float64 // base clock
	GPULanesPerSM  int     // INT8 operations per SM per cycle
	GPUPowerWatts  float64 // board power while computing
	HBMBandwidth   float64 // device memory bandwidth, bytes/second
	GPUMemoryBytes int64   // device memory capacity

	EPCIePerByte float64 // J per byte over the host link
	EHostPerByte float64 // J per byte through host DRAM
}

// Config is the complete simulated system.
type Config struct {
	SSD  SSD
	Host Host
}

// Default returns the evaluated configuration of Table 2. The flash
// geometry is scaled down from the paper's 2 TB drive (2048 blocks/plane)
// to keep functional simulation in memory; all experiments size workload
// footprints relative to the configured capacity, so contention and
// data-movement ratios are preserved (docs/ARCHITECTURE.md "Paper section → package map").
func Default() Config {
	return Config{
		SSD: SSD{
			Channels:       8,
			DiesPerChannel: 8,
			PlanesPerDie:   2,
			BlocksPerPlane: 32, // paper: 2048; scaled, see doc comment
			PagesPerBlock:  196,
			PageSize:       16 << 10, // one 4096-lane x 32-bit vector (§4.3.1)

			PCIeBandwidth:    8e9,
			ChannelBandwidth: 1.2e9,

			TRead:          sim.Time(22500),        // 22.5 µs SLC-mode sense
			TProg:          400 * sim.Microsecond,  // SLC-mode program
			TErase:         3500 * sim.Microsecond, // tBERS
			TAndOr:         20 * sim.Nanosecond,    // Flash-Cosmos MWS
			TLatchTransfer: 20 * sim.Nanosecond,    // ParaBit/Ares-Flash latches
			TXor:           30 * sim.Nanosecond,    // in-flash XOR
			TDMA:           sim.Time(3300),         // 3.3 µs page DMA

			EReadPerChannel: 20.5e-6,
			EAndOrPerKB:     10e-9,
			ELatchPerKB:     10e-9,
			EXorPerKB:       20e-9,
			EDMAPerChannel:  7.656e-6,

			// The paper's 2 TB drive carries 2 GB of DRAM and workload
			// footprints exceed memory capacity (§5.4): hot working sets
			// fit, but streamed data (round keys, model weights, filter
			// banks) does not and continuously evicts. The scaled
			// geometry preserves that pressure: 8 MiB of DRAM (512 page
			// slots) against multi-thousand-page streams.
			DRAMSize:         8 << 20,
			DRAMBanks:        8,
			DRAMRowSize:      2 << 10,
			DRAMBusBandwidth: 7.46e9, // LPDDR4-1866 x32
			TBbop:            49 * sim.Nanosecond,
			TRCD:             18 * sim.Nanosecond,
			TRP:              18 * sim.Nanosecond,
			EBbop:            0.864e-9,
			EDRAMPerByte:     20e-12,

			Cores:         5,
			CoreClockHz:   1.5e9,
			MVEWidthBytes: 32,
			ECorePerCycle: 0.2e-9, // Cortex-R8 class embedded core

			TL2PLookupDRAM:  100 * sim.Nanosecond,
			TL2PLookupFlash: 30 * sim.Microsecond,
			TDepTrack:       1 * sim.Microsecond,
			TQueueTrack:     1 * sim.Microsecond,
			TDMLookup:       100 * sim.Nanosecond,
			TCompLookup:     150 * sim.Nanosecond,
			TTranslate:      300 * sim.Nanosecond,

			MappingCacheRatio: 0.25, // DFTL-style demand mapping cache
			GCThreshold:       0.10,
			OPRatio:           0.07,
		},
		Host: Host{
			CPUCores:      6,
			CPUClockHz:    3.2e9,
			CPUSIMDBytes:  64, // AVX-512
			CPUPowerWatts: 105,
			MemBandwidth:  19.2e9,
			LLCBytes:      8 << 20,

			GPUSMs:         108,
			GPUClockHz:     1.4e9,
			GPULanesPerSM:  256, // INT8 ops/SM/cycle, tensor-core class
			GPUPowerWatts:  250,
			HBMBandwidth:   1555e9,
			GPUMemoryBytes: 40 << 30,

			EPCIePerByte: 100e-12,
			EHostPerByte: 30e-12,
		},
	}
}

// TestScale returns Default shrunk further (fewer blocks) for fast unit
// tests. Experiments use Default.
func TestScale() Config {
	c := Default()
	c.SSD.BlocksPerPlane = 8
	c.SSD.PagesPerBlock = 48
	c.SSD.DRAMSize = 2 << 20 // 128 page slots, preserving capacity pressure
	return c
}

// Validate checks internal consistency and returns a descriptive error for
// the first violated constraint.
func (c *Config) Validate() error {
	s := &c.SSD
	checks := []struct {
		ok  bool
		msg string
	}{
		{s.Channels > 0, "Channels must be positive"},
		{s.DiesPerChannel > 0, "DiesPerChannel must be positive"},
		{s.PlanesPerDie > 0, "PlanesPerDie must be positive"},
		{s.BlocksPerPlane > 1, "BlocksPerPlane must exceed 1 (GC needs a spare)"},
		{s.PagesPerBlock > 0, "PagesPerBlock must be positive"},
		// The FTL holds page, block and page-offset indexes as int32; a
		// float product cannot overflow.
		{float64(s.Channels)*float64(s.DiesPerChannel)*float64(s.PlanesPerDie)*
			float64(s.BlocksPerPlane)*float64(s.PagesPerBlock) <= math.MaxInt32,
			"the drive must have at most 2^31-1 flash pages"},
		{s.PageSize > 0 && s.PageSize%512 == 0, "PageSize must be a positive multiple of 512"},
		{s.PCIeBandwidth > 0, "PCIeBandwidth must be positive"},
		{s.ChannelBandwidth > 0, "ChannelBandwidth must be positive"},
		{s.TRead > 0 && s.TProg > 0 && s.TErase > 0, "flash latencies must be positive"},
		{s.DRAMBanks > 0 && s.DRAMRowSize > 0, "DRAM geometry must be positive"},
		{s.DRAMBusBandwidth > 0, "DRAMBusBandwidth must be positive"},
		{s.Cores >= 2, "need >=2 controller cores (firmware + compute, §4.3.2)"},
		{s.CoreClockHz > 0, "CoreClockHz must be positive"},
		{s.MVEWidthBytes > 0 && s.PageSize%s.MVEWidthBytes == 0, "MVEWidthBytes must divide PageSize"},
		{s.MappingCacheRatio > 0 && s.MappingCacheRatio <= 1, "MappingCacheRatio must be in (0,1]"},
		{s.GCThreshold > 0 && s.GCThreshold < 1, "GCThreshold must be in (0,1)"},
		{c.Host.CPUCores > 0 && c.Host.GPUSMs > 0, "host geometry must be positive"},
		{c.Host.MemBandwidth > 0 && c.Host.HBMBandwidth > 0, "host bandwidths must be positive"},
	}
	for _, ch := range checks {
		if !ch.ok {
			return fmt.Errorf("config: %s", ch.msg)
		}
	}
	return nil
}

// TotalPages reports the number of physical flash pages.
func (s *SSD) TotalPages() int {
	return s.Channels * s.DiesPerChannel * s.PlanesPerDie * s.BlocksPerPlane * s.PagesPerBlock
}

// TotalDies reports the number of independently operating flash dies.
func (s *SSD) TotalDies() int { return s.Channels * s.DiesPerChannel }

// UsablePages reports logical capacity after over-provisioning.
func (s *SSD) UsablePages() int {
	return int(float64(s.TotalPages()) * (1 - s.OPRatio))
}

// ChannelTransferTime is the time to move n bytes over one flash channel.
func (s *SSD) ChannelTransferTime(n int) sim.Time {
	return sim.Time(float64(n) / s.ChannelBandwidth * 1e9)
}

// DRAMTransferTime is the time to move n bytes over the SSD DRAM bus.
func (s *SSD) DRAMTransferTime(n int) sim.Time {
	return sim.Time(float64(n) / s.DRAMBusBandwidth * 1e9)
}

// PCIeTransferTime is the time to move n bytes over the host link.
func (s *SSD) PCIeTransferTime(n int) sim.Time {
	return sim.Time(float64(n) / s.PCIeBandwidth * 1e9)
}

// CoreCycles converts a cycle count on a controller core into time.
func (s *SSD) CoreCycles(n int64) sim.Time {
	return sim.Time(float64(n) / s.CoreClockHz * 1e9)
}
