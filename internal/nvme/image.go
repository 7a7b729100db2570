package nvme

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"

	"conduit/internal/isa"
)

// A firmware image is imageMagic, whose last byte is the layout version,
// then the name, Pages, the instruction count and the total of their
// sources, each instruction's fields in declaration order (its two bools
// in one flags byte), and the input and output page lists. Version 2
// dropped version 1's per-instruction dependence lists and their total.
const imageMagic = "CND\x02"

var errMagic = errors.New("nvme: not a Conduit firmware image of this layout version")
var errImage = errors.New("nvme: malformed firmware image")

// MarshalProgram serializes a vector IR program into a firmware image.
func MarshalProgram(p *isa.Program) []byte {
	// The evaluated workloads' instructions take about 20 bytes each.
	c := cursor{enc: true, b: make([]byte, 0, 64+len(p.Name)+24*len(p.Insts))}
	c.program(p)
	return c.b
}

// unmarshalProgram decodes a firmware image that ends where its layout does.
func unmarshalProgram(img []byte) (*isa.Program, error) {
	p, c := new(isa.Program), cursor{b: img}
	if c.program(p); len(c.b) != 0 {
		c.fail(errImage)
	}
	if c.err != nil {
		return nil, c.err
	}
	return p, nil
}

// cursor walks an image in layout order for both directions: an encoder
// (enc) appends each field it is handed to b and only reads it, a decoder
// consumes b into it. A decoder's first error sticks and empties b. srcs
// backs every decoded instruction's Srcs.
type cursor struct {
	b    []byte
	enc  bool
	err  error
	srcs []isa.PageID
}

func (c *cursor) fail(err error) { c.err, c.b = cmp.Or(c.err, err), nil }

// field walks an integer as a zigzag varint, refusing a non-shortest
// encoding and a value T cannot hold.
func field[T ~int | ~int32 | ~int64 | ~uint8 | ~uint64](c *cursor, v *T) {
	x := int64(*v)
	if c.enc {
		c.b = binary.AppendUvarint(c.b, uint64(x<<1^x>>63))
		return
	}
	u, n := binary.Uvarint(c.b)
	if x = int64(u>>1) ^ -int64(u&1); n <= 0 || n > 1 && c.b[n-1] == 0 || int64(T(x)) != x {
		c.fail(errImage)
		return
	}
	*v, c.b = T(x), c.b[n:]
}

// count walks a length prefix of elements taking min bytes or more each.
func (c *cursor) count(n *int, min int) {
	if field(c, n); !c.enc && (*n < 0 || *n > len(c.b)/min) {
		c.fail(errImage)
	}
}

// list walks a list, decoding into the front of *pool (a fresh array when
// pool is nil); empty decodes as nil.
func (c *cursor) list(s, pool *[]isa.PageID) {
	n := len(*s)
	if c.count(&n, 1); !c.enc && c.err == nil && n > 0 {
		if pool == nil {
			fresh := make([]isa.PageID, n)
			pool = &fresh
		}
		if n > len(*pool) {
			c.fail(errImage)
			return
		}
		*s, *pool = (*pool)[:n:n], (*pool)[n:]
	}
	for i := range *s {
		field(c, &(*s)[i])
	}
}

func (c *cursor) program(p *isa.Program) {
	var ok bool
	if c.enc {
		c.b = append(c.b, imageMagic...)
	} else if c.b, ok = bytes.CutPrefix(c.b, []byte(imageMagic)); !ok {
		c.fail(errMagic)
	}
	n := len(p.Name)
	if c.count(&n, 1); c.enc {
		c.b = append(c.b, p.Name...)
	} else if c.err == nil {
		p.Name, c.b = string(c.b[:n]), c.b[n:]
	}
	field(c, &p.Pages)
	n, srcs := len(p.Insts), 0
	for i := range p.Insts {
		srcs += len(p.Insts[i].Srcs)
	}
	c.count(&n, 12) // an instruction takes a byte per field at least
	c.count(&srcs, 1)
	if !c.enc && c.err == nil && 12*n+srcs > len(c.b) {
		c.fail(errImage)
	} else if !c.enc && c.err == nil {
		c.srcs = make([]isa.PageID, srcs)
		if n > 0 {
			p.Insts = make([]isa.Inst, n)
		}
	}
	for i := range p.Insts {
		c.inst(&p.Insts[i])
	}
	if len(c.srcs) != 0 {
		c.fail(errImage) // a total the instructions did not use
	}
	c.list(&p.InputPages, nil)
	c.list(&p.OutputPages, nil)
}

func (c *cursor) inst(in *isa.Inst) {
	field(c, &in.ID)
	field(c, &in.Op)
	field(c, &in.Dst)
	c.list(&in.Srcs, &c.srcs)
	field(c, &in.Imm)
	var flags uint8
	if in.UseImm {
		flags = 1
	}
	if in.Meta.Unvectorized {
		flags |= 2
	}
	if field(c, &flags); flags > 3 {
		c.fail(errImage)
	} else if !c.enc {
		in.UseImm, in.Meta.Unvectorized = flags&1 != 0, flags&2 != 0
	}
	field(c, &in.Elem)
	field(c, &in.Lanes)
	field(c, &in.ScalarCycles)
	field(c, &in.Meta.Class)
	field(c, &in.Meta.LoopID)
	field(c, &in.Meta.OperandFootprint)
}
