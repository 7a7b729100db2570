package nvme

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"

	"conduit/internal/isa"
)

// A firmware image is imageMagic, whose last byte is the layout version,
// then the name, Pages, the instruction count and the totals of their
// sources and dependences, each instruction's fields in declaration order
// (its two bools in one flags byte), and the input and output page lists.
const imageMagic = "CND\x01"

var errMagic = errors.New("nvme: not a Conduit firmware image of this layout version")
var errImage = errors.New("nvme: malformed firmware image")

// MarshalProgram serializes a vector IR program into a firmware image.
func MarshalProgram(p *isa.Program) []byte {
	// The evaluated workloads' instructions take about 25 bytes each.
	c := cursor{enc: true, b: make([]byte, 0, 64+len(p.Name)+32*len(p.Insts))}
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
// and deps back every decoded instruction's Srcs and Deps.
type cursor struct {
	b    []byte
	enc  bool
	err  error
	srcs []isa.PageID
	deps []int
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
func list[T ~int | ~int32](c *cursor, s *[]T, pool *[]T) {
	n := len(*s)
	if c.count(&n, 1); !c.enc && c.err == nil && n > 0 {
		if pool == nil {
			fresh := make([]T, n)
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
	n, srcs, deps := len(p.Insts), 0, 0
	for i := range p.Insts {
		srcs, deps = srcs+len(p.Insts[i].Srcs), deps+len(p.Insts[i].Deps)
	}
	c.count(&n, 13) // an instruction takes a byte per field at least
	c.count(&srcs, 1)
	c.count(&deps, 1)
	if !c.enc && c.err == nil && 13*n+srcs+deps > len(c.b) {
		c.fail(errImage)
	} else if !c.enc && c.err == nil {
		c.srcs, c.deps = make([]isa.PageID, srcs), make([]int, deps)
		if n > 0 {
			p.Insts = make([]isa.Inst, n)
		}
	}
	for i := range p.Insts {
		c.inst(&p.Insts[i])
	}
	if len(c.srcs)+len(c.deps) != 0 {
		c.fail(errImage) // totals the instructions did not use
	}
	list(c, &p.InputPages, nil)
	list(c, &p.OutputPages, nil)
}

func (c *cursor) inst(in *isa.Inst) {
	field(c, &in.ID)
	field(c, &in.Op)
	field(c, &in.Dst)
	list(c, &in.Srcs, &c.srcs)
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
	list(c, &in.Deps, &c.deps)
	field(c, &in.Meta.Class)
	field(c, &in.Meta.LoopID)
	field(c, &in.Meta.OperandFootprint)
}
