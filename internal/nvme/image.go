package nvme

import (
	"bytes"
	"errors"

	"conduit/internal/isa"
	"conduit/internal/walk"
)

// A firmware image is imageMagic, whose last byte is the layout version,
// then the name, Pages, the instruction count and the total of their
// sources, each instruction's fields in the order inst walks them (its two
// bools in one flags byte), and the input and output page lists. Version 2
// dropped version 1's per-instruction dependence lists and their total;
// narrowing a field's Go type moves no byte (testdata/image.sha256).
const imageMagic = "CND\x02"

var errMagic = errors.New("nvme: not a Conduit firmware image of this layout version")
var errImage = errors.New("nvme: malformed firmware image")

// MarshalProgram serializes a vector IR program into a firmware image.
func MarshalProgram(p *isa.Program) []byte {
	// The evaluated workloads' instructions take about 20 bytes each.
	c := cursor{Cursor: walk.Cursor{Enc: true, B: make([]byte, 0, 64+len(p.Name)+24*len(p.Insts))}}
	c.program(p)
	return c.B
}

// unmarshalProgram decodes a firmware image that ends where its layout
// does. Every walk error but the magic's is errImage.
func unmarshalProgram(img []byte) (*isa.Program, error) {
	p, c := new(isa.Program), cursor{Cursor: walk.Cursor{B: img}}
	if c.program(p); len(c.B) != 0 {
		c.Fail(errImage)
	}
	switch c.Err {
	case nil:
		return p, nil
	case errMagic:
		return nil, errMagic
	}
	return nil, errImage
}

// cursor walks an image in layout order on the shared cursor
// (internal/walk), which holds every integer to its shortest zigzag
// varint and the type it is walked into. srcs backs every decoded
// instruction's Srcs.
type cursor struct {
	walk.Cursor
	srcs []isa.PageID
}

// list walks a list, decoding into the front of *pool (a fresh array when
// pool is nil); empty decodes as nil.
func (c *cursor) list(s, pool *[]isa.PageID) {
	n := len(*s)
	if walk.Int(&c.Cursor, &n); c.Count(n, 1) && n > 0 {
		if pool == nil {
			fresh := make([]isa.PageID, n)
			pool = &fresh
		}
		if n > len(*pool) {
			c.Fail(errImage)
			return
		}
		*s, *pool = (*pool)[:n:n], (*pool)[n:]
	}
	for i := range *s {
		walk.Int(&c.Cursor, &(*s)[i])
	}
}

func (c *cursor) program(p *isa.Program) {
	var ok bool
	if c.Enc {
		c.B = append(c.B, imageMagic...)
	} else if c.B, ok = bytes.CutPrefix(c.B, []byte(imageMagic)); !ok {
		c.Fail(errMagic)
	}
	n := len(p.Name)
	if walk.Int(&c.Cursor, &n); c.Enc {
		c.B = append(c.B, p.Name...)
	} else if name := c.Take(n); c.Err == nil {
		p.Name = string(name)
	}
	walk.Int(&c.Cursor, &p.Pages)
	n, srcs := len(p.Insts), 0
	for i := range p.Insts {
		srcs += len(p.Insts[i].Srcs)
	}
	walk.Int(&c.Cursor, &n)
	walk.Int(&c.Cursor, &srcs)
	// An instruction takes a byte per field at least.
	if c.Count(n, 12) && c.Count(srcs, 1) && c.Count(12*n+srcs, 1) {
		c.srcs = make([]isa.PageID, srcs)
		if n > 0 {
			p.Insts = make([]isa.Inst, n)
		}
	}
	for i := range p.Insts {
		c.inst(&p.Insts[i])
	}
	if len(c.srcs) != 0 {
		c.Fail(errImage) // a total the instructions did not use
	}
	c.list(&p.InputPages, nil)
	c.list(&p.OutputPages, nil)
}

func (c *cursor) inst(in *isa.Inst) {
	walk.Int(&c.Cursor, &in.ID)
	walk.Int(&c.Cursor, &in.Op)
	walk.Int(&c.Cursor, &in.Dst)
	c.list(&in.Srcs, &c.srcs)
	walk.Int(&c.Cursor, &in.Imm)
	var flags uint8
	if in.UseImm {
		flags = 1
	}
	if in.Meta.Unvectorized {
		flags |= 2
	}
	if walk.Int(&c.Cursor, &flags); flags > 3 {
		c.Fail(errImage)
	} else if !c.Enc {
		in.UseImm, in.Meta.Unvectorized = flags&1 != 0, flags&2 != 0
	}
	walk.Int(&c.Cursor, &in.Elem)
	walk.Int(&c.Cursor, &in.Lanes)
	walk.Int(&c.Cursor, &in.ScalarCycles)
	walk.Int(&c.Cursor, &in.Meta.Class)
	walk.Int(&c.Cursor, &in.Meta.LoopID)
	walk.Int(&c.Cursor, &in.Meta.OperandFootprint)
}
