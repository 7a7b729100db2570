package nand

import (
	"fmt"

	"conduit/internal/config"
)

// Addr identifies one physical flash page.
type Addr struct {
	Channel int
	Die     int
	Plane   int
	Block   int
	Page    int
}

// String renders the address as ch/die/plane/block/page.
func (a Addr) String() string {
	return fmt.Sprintf("c%d.d%d.p%d.b%d.pg%d", a.Channel, a.Die, a.Plane, a.Block, a.Page)
}

// Geometry flattens and validates physical flash addresses for a given SSD
// configuration.
type Geometry struct {
	cfg *config.SSD
}

// NewGeometry returns address arithmetic for cfg.
func NewGeometry(cfg *config.SSD) Geometry { return Geometry{cfg: cfg} }

// Valid reports whether every coordinate of a is in range.
func (g Geometry) Valid(a Addr) bool {
	c := g.cfg
	return a.Channel >= 0 && a.Channel < c.Channels &&
		a.Die >= 0 && a.Die < c.DiesPerChannel &&
		a.Plane >= 0 && a.Plane < c.PlanesPerDie &&
		a.Block >= 0 && a.Block < c.BlocksPerPlane &&
		a.Page >= 0 && a.Page < c.PagesPerBlock
}

// PageIndex flattens a to a dense index in [0, TotalPages).
func (g Geometry) PageIndex(a Addr) int {
	c := g.cfg
	if !g.Valid(a) {
		panic(fmt.Sprintf("nand: invalid address %v", a))
	}
	idx := a.Channel
	idx = idx*c.DiesPerChannel + a.Die
	idx = idx*c.PlanesPerDie + a.Plane
	idx = idx*c.BlocksPerPlane + a.Block
	idx = idx*c.PagesPerBlock + a.Page
	return idx
}

// AddrOf inverts PageIndex.
func (g Geometry) AddrOf(idx int) Addr {
	c := g.cfg
	if idx < 0 || idx >= c.TotalPages() {
		panic(fmt.Sprintf("nand: page index %d out of range", idx))
	}
	a := Addr{}
	a.Page = idx % c.PagesPerBlock
	idx /= c.PagesPerBlock
	a.Block = idx % c.BlocksPerPlane
	idx /= c.BlocksPerPlane
	a.Plane = idx % c.PlanesPerDie
	idx /= c.PlanesPerDie
	a.Die = idx % c.DiesPerChannel
	idx /= c.DiesPerChannel
	a.Channel = idx
	return a
}

// Locate reports the flat plane index, flat block index and channel of
// the page at flat index idx (in range): PlaneIndex(AddrOf(idx)),
// BlockIndex(AddrOf(idx)) and AddrOf(idx).Channel, by three divisions,
// since each flat index is a prefix of the next one's mixed-radix digits.
func (g Geometry) Locate(idx int) (plane, block, channel int) {
	c := g.cfg
	block = idx / c.PagesPerBlock
	plane = block / c.BlocksPerPlane
	return plane, block, plane / (c.PlanesPerDie * c.DiesPerChannel)
}

// BlockIndex flattens the block coordinates of a (ignoring Page) to a dense
// index in [0, TotalBlocks).
func (g Geometry) BlockIndex(a Addr) int {
	c := g.cfg
	idx := a.Channel
	idx = idx*c.DiesPerChannel + a.Die
	idx = idx*c.PlanesPerDie + a.Plane
	idx = idx*c.BlocksPerPlane + a.Block
	return idx
}

// BlockAddrOf inverts BlockIndex (the returned Addr has Page 0).
func (g Geometry) BlockAddrOf(idx int) Addr {
	c := g.cfg
	if idx < 0 || idx >= g.TotalBlocks() {
		panic(fmt.Sprintf("nand: block index %d out of range", idx))
	}
	a := Addr{}
	a.Block = idx % c.BlocksPerPlane
	idx /= c.BlocksPerPlane
	a.Plane = idx % c.PlanesPerDie
	idx /= c.PlanesPerDie
	a.Die = idx % c.DiesPerChannel
	idx /= c.DiesPerChannel
	a.Channel = idx
	return a
}

// TotalBlocks reports the number of physical blocks.
func (g Geometry) TotalBlocks() int {
	c := g.cfg
	return c.Channels * c.DiesPerChannel * c.PlanesPerDie * c.BlocksPerPlane
}

// PlaneIndex flattens the plane coordinates of a to a dense index.
func (g Geometry) PlaneIndex(a Addr) int {
	c := g.cfg
	idx := a.Channel
	idx = idx*c.DiesPerChannel + a.Die
	idx = idx*c.PlanesPerDie + a.Plane
	return idx
}

// DieIndex flattens the die coordinates of a to a dense index.
func (g Geometry) DieIndex(a Addr) int {
	return a.Channel*g.cfg.DiesPerChannel + a.Die
}

// SameBlock reports whether all addresses share one physical block —
// the placement constraint for Flash-Cosmos multi-wordline AND.
func (g Geometry) SameBlock(addrs []Addr) bool {
	if len(addrs) == 0 {
		return false
	}
	b := g.BlockIndex(addrs[0])
	for _, a := range addrs[1:] {
		if g.BlockIndex(a) != b {
			return false
		}
	}
	return true
}

// SamePlane reports whether all addresses share one plane — the placement
// constraint for Flash-Cosmos inter-block OR.
func (g Geometry) SamePlane(addrs []Addr) bool {
	if len(addrs) == 0 {
		return false
	}
	p := g.PlaneIndex(addrs[0])
	for _, a := range addrs[1:] {
		if g.PlaneIndex(a) != p {
			return false
		}
	}
	return true
}
