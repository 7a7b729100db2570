package walk

import (
	"math"
	"testing"
)

// trip walks each value out and back in, and checks the decode returns it
// and consumes exactly the bytes the encode wrote.
func trip[T comparable](t *testing.T, name string, walk func(*Cursor, *T), vals ...T) {
	t.Helper()
	for _, v := range vals {
		enc := Cursor{Enc: true}
		walk(&enc, &v)
		dec := Cursor{B: enc.B}
		var got T
		if walk(&dec, &got); dec.Err != nil || len(dec.B) != 0 || got != v {
			t.Errorf("%s %v: decoded %v (%v) from %x, %d bytes left", name, v, got, dec.Err, enc.B, len(dec.B))
		}
	}
}

// encoded is v as Int writes it.
func encoded(v int64) []byte {
	c := Cursor{Enc: true}
	Int(&c, &v)
	return c.B
}

// TestCursor round-trips each primitive's edge values, the bounds of every
// type Int is instantiated with, and refuses each non-canonical or
// oversized input once: a refused decode records an error and drops the
// rest of its input.
func TestCursor(t *testing.T) {
	trip(t, "Byte", (*Cursor).Byte, 0, 1, math.MaxUint8)
	trip(t, "Bool", (*Cursor).Bool, false, true)
	trip(t, "U64", (*Cursor).U64, 0, 1, math.MaxUint64)
	trip(t, "Uvarint", (*Cursor).Uvarint, 0, 1, 127, 128, math.MaxUint64)
	// F64 is checked on the float's bits, so NaN compares.
	f64 := func(c *Cursor, bits *uint64) {
		f := math.Float64frombits(*bits)
		c.F64(&f)
		*bits = math.Float64bits(f)
	}
	trip(t, "F64", f64, 0, math.Float64bits(-1), math.Float64bits(math.Inf(1)), math.Float64bits(math.NaN()))
	trip(t, "Int[int64]", Int[int64], 0, 1, -1, math.MinInt64, math.MaxInt64)
	trip(t, "Int[int]", Int[int], 0, 1, -1, math.MinInt, math.MaxInt)
	trip(t, "Int[int32]", Int[int32], 0, 1, -1, math.MinInt32, math.MaxInt32)
	trip(t, "Int[uint8]", Int[uint8], 0, 1, math.MaxUint8)
	trip(t, "Int[uint64]", Int[uint64], 0, 1, math.MaxUint64)

	var (
		b   byte
		ok  bool
		u   uint64
		i64 int64
		i32 int32
		u8  uint8
	)
	for _, c := range []struct {
		name string
		in   []byte
		walk func(*Cursor)
	}{
		{"overlong uvarint", []byte{0x81, 0x00}, func(c *Cursor) { c.Uvarint(&u) }},
		{"overlong int", []byte{0x81, 0x00}, func(c *Cursor) { Int(c, &i64) }},
		{"truncated varint", []byte{0x80}, func(c *Cursor) { c.Uvarint(&u) }},
		{"varint past 64 bits", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, func(c *Cursor) { Int(c, &i64) }},
		{"above int32", encoded(math.MaxInt32 + 1), func(c *Cursor) { Int(c, &i32) }},
		{"below int32", encoded(math.MinInt32 - 1), func(c *Cursor) { Int(c, &i32) }},
		{"above uint8", encoded(math.MaxUint8 + 1), func(c *Cursor) { Int(c, &u8) }},
		{"negative uint8", encoded(-1), func(c *Cursor) { Int(c, &u8) }},
		{"bool byte 2", []byte{2}, func(c *Cursor) { c.Bool(&ok) }},
		{"missing byte", nil, func(c *Cursor) { c.Byte(&b) }},
		{"short u64", []byte{1, 2, 3, 4, 5, 6, 7}, func(c *Cursor) { c.U64(&u) }},
		{"count past bytes left", []byte{1, 2, 3}, func(c *Cursor) { c.Count(2, 2) }},
		{"negative count", []byte{1}, func(c *Cursor) { c.Count(-1, 1) }},
		{"take past the end", []byte{1, 2}, func(c *Cursor) { c.Take(3) }},
	} {
		cur := Cursor{B: c.in}
		if c.walk(&cur); cur.Err == nil || cur.B != nil {
			t.Errorf("%s: err %v, %d bytes left", c.name, cur.Err, len(cur.B))
		}
	}

	in := Cursor{B: []byte{1, 2, 3}}
	if !in.Count(1, 3) || string(in.Take(3)) != "\x01\x02\x03" || in.Err != nil {
		t.Errorf("a count and a take that fit the input exactly: %v", in.Err)
	}
	if out := (Cursor{Enc: true}); out.Count(0, 1) {
		t.Error("Count lets an encoder size a list")
	}
	first := Cursor{B: []byte{2}}
	if first.Bool(&ok); first.Take(1) != nil || first.Err != errBool {
		t.Errorf("the first error is not the one kept: %v", first.Err)
	}
}
