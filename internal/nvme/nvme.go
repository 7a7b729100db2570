package nvme

import (
	"bytes"
	"fmt"

	"conduit/internal/coherence"
	"conduit/internal/ftl"
	"conduit/internal/isa"
	"conduit/internal/sim"
	"conduit/internal/ssd"
)

// Controller is the NVMe-facing view of the simulated drive.
type Controller struct {
	dev *ssd.Device

	fwImage   bytes.Buffer
	committed *isa.Program

	staged map[isa.PageID][]byte // host writes staged before commit
}

// NewController wraps dev.
func NewController(dev *ssd.Device) *Controller {
	return &Controller{dev: dev, staged: make(map[isa.PageID][]byte)}
}

// Device exposes the underlying drive.
func (c *Controller) Device() *ssd.Device { return c.dev }

// FWDownload stages one chunk of the firmware image at offset (NVMe
// Firmware Image Download). Chunks must arrive in order.
func (c *Controller) FWDownload(chunk []byte, offset int) error {
	if offset != c.fwImage.Len() {
		return fmt.Errorf("nvme: out-of-order fw chunk at %d (have %d)", offset, c.fwImage.Len())
	}
	c.fwImage.Write(chunk)
	return nil
}

// FWCommit activates the downloaded image (NVMe Firmware Commit). With
// conduitBinary set — the paper's added flag — the image is interpreted as
// a Conduit program, installed together with any staged host data, and the
// device performs its NDP-aware placement. Without the flag the image is
// treated as vendor firmware and merely accepted.
func (c *Controller) FWCommit(conduitBinary bool) error {
	if c.dev.Mode() == ssd.ModeComputation {
		return fmt.Errorf("nvme: firmware commit refused in computation mode")
	}
	if !conduitBinary {
		c.fwImage.Reset()
		return nil // vendor firmware path: accept and discard in the model
	}
	prog, err := unmarshalProgram(c.fwImage.Bytes())
	if err != nil {
		return fmt.Errorf("nvme: decoding Conduit binary: %w", err)
	}
	c.fwImage.Reset()
	if err := c.dev.LoadProgram(prog, c.staged); err != nil {
		return err
	}
	c.committed = prog
	return nil
}

// Committed reports the active Conduit program, if any.
func (c *Controller) Committed() *isa.Program { return c.committed }

// WritePage is a host I/O write of one logical page. Before a program is
// committed, writes stage input data; afterwards they are refused while
// the drive computes (§4.4: host I/O is suspended in computation mode).
//
// The drive stages data itself, not a copy: the caller must leave it
// unchanged until the commit, which programs its own copy into flash.
// data is one whole page, or nil for a page whose bytes nothing will read
// (a timing-only deploy's), which reads back and commits as a zero page.
func (c *Controller) WritePage(p isa.PageID, data []byte) error {
	if c.dev.Mode() == ssd.ModeComputation {
		return fmt.Errorf("nvme: write refused in computation mode")
	}
	if ps := c.dev.Cfg.SSD.PageSize; data != nil && len(data) != ps {
		return fmt.Errorf("nvme: write of %d bytes to page %d, want %d", len(data), p, ps)
	}
	c.staged[p] = data
	return nil
}

// ReadPage is a host I/O read of one logical page. Reading a page that a
// computation resource owns triggers the host-transfer synchronization of
// §4.4: the page is committed to flash before the data leaves the drive.
func (c *Controller) ReadPage(p isa.PageID) ([]byte, error) {
	if c.dev.Mode() == ssd.ModeComputation {
		return nil, fmt.Errorf("nvme: read refused in computation mode")
	}
	if c.committed == nil {
		if d, ok := c.staged[p]; ok {
			page := make([]byte, c.dev.Cfg.SSD.PageSize) // zeros when staged nil
			copy(page, d)
			return page, nil
		}
		return nil, fmt.Errorf("nvme: page %d not staged", p)
	}
	data, err := c.dev.PageBytes(p)
	if err != nil {
		return nil, err
	}
	if c.dev.Dir.Owner(int(p)) != coherence.LocFlash {
		// Commit the latest version to flash and hand it to the host.
		if c.dev.Dir.Sync(int(p), coherence.SyncHostTransfer) {
			if _, werr := c.dev.FTL.Write(0, ftl.LPN(p), data, -1); werr != nil {
				return nil, werr
			}
		}
	}
	return data, nil
}

// HostRead is a timed host I/O read in regular I/O mode: the §4.4
// host-transfer synchronization (committing a computation result to flash)
// plus the flash read and the PCIe transfer to the host. It returns the
// data and the completion time — the I/O-latency path of the storage
// stack.
func (c *Controller) HostRead(now sim.Time, p isa.PageID) ([]byte, sim.Time, error) {
	data, err := c.ReadPage(p) // performs the coherence sync bookkeeping
	if err != nil {
		return nil, 0, err
	}
	dev := c.dev
	cfg := &dev.Cfg.SSD
	done := now
	if _, lat, err := dev.FTL.Lookup(ftl.LPN(p)); err == nil {
		// Flash-resident: sense + channel transfer.
		_, rdone, rerr := dev.FTL.Read(now, now+lat, ftl.LPN(p))
		if rerr == nil {
			_ = rdone
			done = rdone
		}
	}
	done += cfg.PCIeTransferTime(cfg.PageSize)
	return data, done, nil
}

// EnterComputationMode switches the drive into computation mode.
func (c *Controller) EnterComputationMode() { c.dev.EnterComputationMode() }

// ExitComputationMode resumes host I/O service.
func (c *Controller) ExitComputationMode() { c.dev.ExitComputationMode() }
