// Package walk is the one cursor every binary layout of the module is
// written with: wire frames (internal/wire), the firmware image
// (internal/nvme) and histogram snapshots (internal/histo). A layout is
// one walk over its fields that runs in either direction, so encoder and
// decoder cannot disagree about field order, and the canonical-form rules
// live here once:
//
//   - a varint is in its shortest form (no trailing zero byte), and a
//     zigzag integer fits the type it is walked into;
//   - a bool byte is 0 or 1;
//   - a decoder sizes nothing the bytes left cannot hold (Count, Take).
//
// So an input a walk accepts re-encodes to the same bytes, and decoding
// allocates in proportion to the input. The errors name no package:
// callers wrap or map them.
package walk

import (
	"encoding/binary"
	"errors"
	"math"
)

var (
	errShort  = errors.New("truncated")
	errVarint = errors.New("truncated, non-shortest or out-of-range varint")
	errBool   = errors.New("bool byte is neither 0 nor 1")
)

// Cursor walks a layout's fields in order. Encoding (Enc), each primitive
// appends the field it is handed to B and only reads it; decoding, it
// consumes the field from the front of B into the pointer.
//
// The first error sticks in Err. A decoder that failed drops the rest of
// B, so every later field comes up short and stays as it was: walks need
// no error checks of their own. An encoder that failed keeps appending.
type Cursor struct {
	B   []byte
	Enc bool
	Err error
}

// Fail records err unless an error is already recorded.
func (c *Cursor) Fail(err error) {
	if c.Err == nil {
		c.Err = err
	}
	if !c.Enc {
		c.B = nil
	}
}

// Byte walks one byte.
func (c *Cursor) Byte(v *byte) {
	if c.Enc {
		c.B = append(c.B, *v)
		return
	}
	if len(c.B) < 1 {
		c.Fail(errShort)
		return
	}
	*v, c.B = c.B[0], c.B[1:]
}

// Bool walks a bool as one byte, 0 or 1.
func (c *Cursor) Bool(v *bool) {
	var b byte
	if *v {
		b = 1
	}
	if c.Byte(&b); b > 1 {
		c.Fail(errBool)
	} else if !c.Enc {
		*v = b == 1
	}
}

// U64 walks a fixed 8-byte big-endian integer.
func (c *Cursor) U64(v *uint64) {
	if c.Enc {
		c.B = binary.BigEndian.AppendUint64(c.B, *v)
		return
	}
	if len(c.B) < 8 {
		c.Fail(errShort)
		return
	}
	*v, c.B = binary.BigEndian.Uint64(c.B), c.B[8:]
}

// F64 walks a float64 as the U64 of its bits, so every value, NaN
// included, round-trips exactly.
func (c *Cursor) F64(v *float64) {
	u := math.Float64bits(*v)
	if c.U64(&u); !c.Enc {
		*v = math.Float64frombits(u)
	}
}

// Uvarint walks an unsigned varint in its shortest form.
func (c *Cursor) Uvarint(v *uint64) {
	if c.Enc {
		c.B = binary.AppendUvarint(c.B, *v)
		return
	}
	u, n := binary.Uvarint(c.B)
	if n <= 0 || n > 1 && c.B[n-1] == 0 {
		c.Fail(errVarint)
		return
	}
	*v, c.B = u, c.B[n:]
}

// Int walks an integer as a zigzag varint, so small negatives stay small,
// refusing a non-shortest form and a value T cannot hold. It stays one
// expression with one error so that it inlines: the firmware image walks
// a dozen per instruction.
func Int[T ~int | ~int32 | ~int64 | ~uint8 | ~uint64](c *Cursor, v *T) {
	x := int64(*v)
	if c.Enc {
		c.B = binary.AppendUvarint(c.B, uint64(x<<1^x>>63))
		return
	}
	u, n := binary.Uvarint(c.B)
	if x = int64(u>>1) ^ -int64(u&1); n <= 0 || n > 1 && c.B[n-1] == 0 || int64(T(x)) != x {
		c.Fail(errVarint)
		return
	}
	*v, c.B = T(x), c.B[n:]
}

// Count holds a decoded count of n elements, each taking at least min
// bytes, to the bytes left, and reports whether a decoder may now size
// them: true only when decoding, without error, and n fits.
func (c *Cursor) Count(n, min int) bool {
	if c.Enc {
		return false
	}
	if n < 0 || n > len(c.B)/min {
		c.Fail(errShort)
	}
	return c.Err == nil
}

// Take consumes the next n bytes of a decoder's input and returns them,
// aliasing B.
func (c *Cursor) Take(n int) []byte {
	if n < 0 || n > len(c.B) {
		c.Fail(errShort)
		return nil
	}
	b := c.B[:n:n]
	c.B = c.B[n:]
	return b
}
