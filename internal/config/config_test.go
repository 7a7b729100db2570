package config

import (
	"testing"

	"conduit/internal/sim"
)

func TestDefaultValidates(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("Default config invalid: %v", err)
	}
	ts := TestScale()
	if err := ts.Validate(); err != nil {
		t.Fatalf("TestScale config invalid: %v", err)
	}
}

func TestDefaultMatchesTable2(t *testing.T) {
	c := Default()
	s := c.SSD
	if s.Channels != 8 || s.DiesPerChannel != 8 || s.PlanesPerDie != 2 {
		t.Errorf("geometry %d/%d/%d does not match Table 2 (8/8/2)",
			s.Channels, s.DiesPerChannel, s.PlanesPerDie)
	}
	if s.TRead != sim.Time(22500) {
		t.Errorf("TRead = %v, want 22.5µs", s.TRead)
	}
	if s.TProg != 400*sim.Microsecond {
		t.Errorf("TProg = %v, want 400µs", s.TProg)
	}
	if s.TErase != 3500*sim.Microsecond {
		t.Errorf("TErase = %v, want 3.5ms", s.TErase)
	}
	if s.TAndOr != 20 || s.TLatchTransfer != 20 || s.TXor != 30 {
		t.Errorf("in-flash op latencies %v/%v/%v, want 20/20/30ns",
			s.TAndOr, s.TLatchTransfer, s.TXor)
	}
	if s.TBbop != 49 {
		t.Errorf("TBbop = %v, want 49ns", s.TBbop)
	}
	if s.ChannelBandwidth != 1.2e9 || s.PCIeBandwidth != 8e9 {
		t.Errorf("bandwidths %v/%v, want 1.2GB/s and 8GB/s",
			s.ChannelBandwidth, s.PCIeBandwidth)
	}
	if s.Cores != 5 || s.CoreClockHz != 1.5e9 {
		t.Errorf("controller %d cores @%v, want 5 @1.5GHz", s.Cores, s.CoreClockHz)
	}
	if c.Host.CPUCores != 6 || c.Host.GPUSMs != 108 {
		t.Errorf("host %d cores / %d SMs, want 6 / 108", c.Host.CPUCores, c.Host.GPUSMs)
	}
}

func TestValidateRejectsBrokenConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero channels", func(c *Config) { c.SSD.Channels = 0 }},
		{"one block per plane", func(c *Config) { c.SSD.BlocksPerPlane = 1 }},
		{"unaligned page size", func(c *Config) { c.SSD.PageSize = 1000 }},
		{"negative read latency", func(c *Config) { c.SSD.TRead = -1 }},
		{"single core", func(c *Config) { c.SSD.Cores = 1 }},
		{"mve does not divide page", func(c *Config) { c.SSD.MVEWidthBytes = 48 }},
		{"cache ratio too big", func(c *Config) { c.SSD.MappingCacheRatio = 1.5 }},
		{"gc threshold 1", func(c *Config) { c.SSD.GCThreshold = 1 }},
		{"no host cores", func(c *Config) { c.Host.CPUCores = 0 }},
	}
	for _, m := range mutations {
		c := Default()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken config", m.name)
		}
	}
}

func TestDerivedQuantities(t *testing.T) {
	c := Default()
	s := &c.SSD
	wantPages := 8 * 8 * 2 * 32 * 196
	if got := s.TotalPages(); got != wantPages {
		t.Errorf("TotalPages = %d, want %d", got, wantPages)
	}
	if got := s.TotalDies(); got != 64 {
		t.Errorf("TotalDies = %d, want 64", got)
	}
	if got := s.UsablePages(); got >= wantPages || got <= 0 {
		t.Errorf("UsablePages = %d not in (0, total)", got)
	}
}

func TestTransferTimes(t *testing.T) {
	c := Default()
	s := &c.SSD
	// 1.2 GB over a 1.2 GB/s channel takes 1 s.
	if got := s.ChannelTransferTime(1.2e9); got != sim.Second {
		t.Errorf("ChannelTransferTime(1.2e9) = %v, want 1s", got)
	}
	// One 16 KiB page over the channel: 16384/1.2e9 s ≈ 13.65 µs.
	got := s.ChannelTransferTime(s.PageSize)
	if got < 13*sim.Microsecond || got > 14*sim.Microsecond {
		t.Errorf("page channel transfer = %v, want ≈13.65µs", got)
	}
	// PCIe is faster than the flash channel for the same payload.
	if s.PCIeTransferTime(s.PageSize) >= got {
		t.Error("PCIe transfer should beat one flash channel")
	}
	// 1500 core cycles at 1.5 GHz = 1 µs.
	if got := s.CoreCycles(1500); got != sim.Microsecond {
		t.Errorf("CoreCycles(1500) = %v, want 1µs", got)
	}
}
