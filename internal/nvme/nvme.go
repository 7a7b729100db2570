package nvme

import (
	"fmt"

	"conduit/internal/isa"
	"conduit/internal/ssd"
)

// Controller is the NVMe-facing view of the simulated drive.
type Controller struct {
	dev *ssd.Device

	fwImage []byte // the chunks downloaded since the last commit

	staged map[isa.PageID][]byte // host writes staged before commit
}

// NewController wraps dev.
func NewController(dev *ssd.Device) *Controller {
	return &Controller{dev: dev, staged: make(map[isa.PageID][]byte)}
}

// FWDownload stages one chunk of the firmware image at offset (NVMe
// Firmware Image Download). Chunks must arrive in order.
//
// As with WritePage, the drive stages a first chunk itself, not a copy:
// the caller must leave it unchanged until the commit. It is staged
// clipped, so a second chunk appends to a copy and never writes past the
// first into the caller's array.
func (c *Controller) FWDownload(chunk []byte, offset int) error {
	if offset != len(c.fwImage) {
		return fmt.Errorf("nvme: out-of-order fw chunk at %d (have %d)", offset, len(c.fwImage))
	}
	if offset == 0 {
		c.fwImage = chunk[:len(chunk):len(chunk)]
	} else {
		c.fwImage = append(c.fwImage, chunk...)
	}
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
		c.fwImage = nil
		return nil // vendor firmware path: accept and discard in the model
	}
	prog, err := unmarshalProgram(c.fwImage)
	if err != nil {
		return fmt.Errorf("nvme: decoding Conduit binary: %w", err)
	}
	c.fwImage = nil
	return c.dev.LoadProgram(prog, c.staged)
}

// WritePage is a host I/O write of one logical page. Before a program is
// committed, writes stage input data; afterwards they are refused while
// the drive computes (§4.4: host I/O is suspended in computation mode).
//
// The drive stages data itself, not a copy: the caller must leave it
// unchanged until the commit, which programs its own copy into flash.
// data is one whole page, or nil for a page whose bytes nothing will read
// (a timing-only deploy's), which commits as a zero page.
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
