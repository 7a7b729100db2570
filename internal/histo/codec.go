package histo

import (
	"errors"
	"fmt"
	"math"

	"conduit/internal/walk"
)

// Wire format for histogram snapshots (the per-target latency state the
// router merges into fleet-wide percentiles), walked on internal/walk's
// cursor, whose varint rules it inherits:
//
//	byte    codecVersion
//	uvarint count
//	uvarint sum                         (present only when count > 0)
//	uvarint min, uvarint max            (present only when count > 0)
//	uvarint nonzero-bucket entries
//	entries: uvarint index-delta, uvarint bucket-count
//
// Bucket indexes are delta-encoded in strictly ascending order (the
// first entry's delta is its absolute index), so the encoding of a
// histogram is canonical: equal histograms encode to equal bytes, and
// the decoder can enforce ordering as a validity check. All counts are
// non-negative by construction, so plain uvarints suffice.
const codecVersion = 1

// AppendBinary appends the canonical encoding of h to b and returns the
// extended slice. The encoding is a pure function of the histogram's
// state: byte-equal encodings iff the histograms are equal.
func (h *Histogram) AppendBinary(b []byte) []byte {
	c := walk.Cursor{B: b, Enc: true}
	h.walk(&c)
	return c.B
}

// Decode parses a canonical encoding produced by AppendBinary. It
// validates strictly — version, bucket ordering and bounds, count
// arithmetic, min/max consistency, and exact input consumption — and
// never panics or allocates proportionally to attacker-controlled
// lengths (the histogram's storage is a fixed-size array). Adversarial
// inputs yield an error, not a corrupt histogram.
func Decode(b []byte) (*Histogram, error) {
	h, c := New(), walk.Cursor{B: b}
	if h.walk(&c); c.Err == nil && len(c.B) != 0 {
		c.Fail(fmt.Errorf("%d trailing bytes after encoding", len(c.B)))
	}
	if c.Err != nil {
		return nil, fmt.Errorf("histo: %w", c.Err)
	}
	return h, nil
}

// walk visits h's fields in layout order, encoding or decoding as c does.
// An encoder only reads h; a decoder fills a New histogram and checks
// every rule a histogram built by Add and Merge keeps.
func (h *Histogram) walk(c *walk.Cursor) {
	version := byte(codecVersion)
	if c.Byte(&version); version != codecVersion {
		c.Fail(fmt.Errorf("unknown codec version %d", version))
	}
	count := uint64(h.count)
	if c.Uvarint(&count); count > math.MaxInt64 {
		c.Fail(fmt.Errorf("implausible sample count %d", count))
	}
	if count > 0 {
		// sum round-trips as raw int64 bits: with 2^63 samples near the
		// top of the value range the accumulated sum can wrap, and the
		// codec's job is to reproduce the histogram's state exactly, not
		// to relitigate it. min and max are clamped non-negative by Add,
		// so out-of-range values there are malformed input.
		sum, lo, hi := uint64(h.sum), uint64(h.min), uint64(h.max)
		c.Uvarint(&sum)
		c.Uvarint(&lo)
		c.Uvarint(&hi)
		switch {
		case lo > math.MaxInt64 || hi > math.MaxInt64:
			c.Fail(errors.New("min or max overflows int64"))
		case lo > hi:
			c.Fail(fmt.Errorf("min %d > max %d", lo, hi))
		case !c.Enc:
			h.count, h.sum, h.min, h.max = int64(count), int64(sum), int64(lo), int64(hi)
		}
	}
	var entries uint64
	for _, n := range h.counts {
		if n != 0 {
			entries++
		}
	}
	c.Uvarint(&entries)
	switch {
	case entries > numBuckets:
		c.Fail(fmt.Errorf("%d bucket entries exceed the %d-bucket layout", entries, numBuckets))
	case count == 0 && entries != 0:
		c.Fail(fmt.Errorf("empty histogram with %d bucket entries", entries))
	case count > 0 && entries == 0:
		c.Fail(fmt.Errorf("%d samples with no bucket entries", count))
	}
	// left counts the samples no entry has accounted for yet: an entry
	// holding more is refused before it is added, so no sum can wrap.
	idx, first, left := 0, 0, count
	for i := uint64(0); i < entries && c.Err == nil; i++ {
		next := idx
		if c.Enc {
			if i > 0 {
				next++
			}
			for h.counts[next] == 0 {
				next++
			}
		}
		delta, n := uint64(next-idx), uint64(h.counts[next])
		c.Uvarint(&delta)
		c.Uvarint(&n)
		switch {
		case n == 0:
			c.Fail(fmt.Errorf("zero-count bucket entry %d", i))
		case i > 0 && delta == 0:
			c.Fail(fmt.Errorf("bucket indexes not strictly ascending at entry %d", i))
		case delta >= uint64(numBuckets-idx):
			c.Fail(fmt.Errorf("bucket index %d+%d out of range", idx, delta))
		case n > left:
			c.Fail(fmt.Errorf("bucket counts exceed sample count %d", count))
		default:
			if idx += int(delta); i == 0 {
				first = idx
			}
			if left -= n; !c.Enc {
				h.counts[idx] = int64(n)
			}
		}
	}
	switch {
	case c.Err != nil:
	case left != 0:
		c.Fail(fmt.Errorf("bucket counts sum to %d, want %d", count-left, count))
	case count > 0 && (bucketIndex(h.min) != first || bucketIndex(h.max) != idx):
		// The exact min and max each lie in their own bucket, and those
		// buckets are the extremes of the occupied set.
		c.Fail(errors.New("min/max inconsistent with occupied buckets"))
	}
}
