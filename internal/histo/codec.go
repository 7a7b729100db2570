package histo

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Wire format for histogram snapshots (the per-target latency state the
// router merges into fleet-wide percentiles):
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

// maxEncodedSize bounds any valid encoding: version byte plus four
// 10-byte uvarints plus one (delta, count) pair per bucket.
const maxEncodedSize = 1 + 4*10 + numBuckets*20

// AppendBinary appends the canonical encoding of h to b and returns the
// extended slice. The encoding is a pure function of the histogram's
// state: byte-equal encodings iff the histograms are equal.
func (h *Histogram) AppendBinary(b []byte) []byte {
	b = append(b, codecVersion)
	b = binary.AppendUvarint(b, uint64(h.count))
	if h.count == 0 {
		return binary.AppendUvarint(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(h.sum))
	b = binary.AppendUvarint(b, uint64(h.min))
	b = binary.AppendUvarint(b, uint64(h.max))
	nonzero := 0
	for _, c := range h.counts {
		if c != 0 {
			nonzero++
		}
	}
	b = binary.AppendUvarint(b, uint64(nonzero))
	prev := 0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		b = binary.AppendUvarint(b, uint64(i-prev))
		b = binary.AppendUvarint(b, uint64(c))
		prev = i
	}
	return b
}

// MarshalBinary returns the canonical encoding of h.
func (h *Histogram) MarshalBinary() []byte { return h.AppendBinary(nil) }

// errTruncated is the shared decode failure for inputs that end before
// the structure they promise.
var errTruncated = fmt.Errorf("histo: truncated encoding")

// uvarint reads one uvarint from b, returning the value and the rest. It
// refuses an overlong form (a trailing zero byte), which AppendBinary
// never writes, so the encoding stays canonical.
func uvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errTruncated
	}
	if n > 1 && b[n-1] == 0 {
		return 0, nil, fmt.Errorf("histo: overlong varint")
	}
	return v, b[n:], nil
}

// Decode parses a canonical encoding produced by AppendBinary. It
// validates strictly — version, bucket ordering and bounds, count
// arithmetic, min/max consistency, and exact input consumption — and
// never panics or allocates proportionally to attacker-controlled
// lengths (the histogram's storage is a fixed-size array). Adversarial
// inputs yield an error, not a corrupt histogram.
func Decode(b []byte) (*Histogram, error) {
	if len(b) == 0 {
		return nil, errTruncated
	}
	if b[0] != codecVersion {
		return nil, fmt.Errorf("histo: unknown codec version %d", b[0])
	}
	b = b[1:]
	count, b, err := uvarint(b)
	if err != nil {
		return nil, err
	}
	if count > math.MaxInt64 {
		return nil, fmt.Errorf("histo: implausible sample count %d", count)
	}
	h := New()
	h.count = int64(count)
	if count > 0 {
		var sum, min, max uint64
		if sum, b, err = uvarint(b); err != nil {
			return nil, err
		}
		if min, b, err = uvarint(b); err != nil {
			return nil, err
		}
		if max, b, err = uvarint(b); err != nil {
			return nil, err
		}
		// sum round-trips as raw int64 bits: with 2^63 samples near the
		// top of the value range the accumulated sum can wrap, and the
		// codec's job is to reproduce the histogram's state exactly, not
		// to relitigate it. min and max are clamped non-negative by Add,
		// so out-of-range values there are malformed input.
		if min > math.MaxInt64 || max > math.MaxInt64 {
			return nil, fmt.Errorf("histo: field overflows int64")
		}
		h.sum, h.min, h.max = int64(sum), int64(min), int64(max)
		if h.min > h.max {
			return nil, fmt.Errorf("histo: min %d > max %d", h.min, h.max)
		}
	}
	entries, b, err := uvarint(b)
	if err != nil {
		return nil, err
	}
	if entries > numBuckets {
		return nil, fmt.Errorf("histo: %d bucket entries exceed the %d-bucket layout", entries, numBuckets)
	}
	if count == 0 && entries != 0 {
		return nil, fmt.Errorf("histo: empty histogram with %d bucket entries", entries)
	}
	if count > 0 && entries == 0 {
		return nil, fmt.Errorf("histo: %d samples with no bucket entries", count)
	}
	idx, total := -1, uint64(0)
	for i := uint64(0); i < entries; i++ {
		var delta, c uint64
		if delta, b, err = uvarint(b); err != nil {
			return nil, err
		}
		if c, b, err = uvarint(b); err != nil {
			return nil, err
		}
		if c == 0 {
			return nil, fmt.Errorf("histo: zero-count bucket entry %d", i)
		}
		next := idx
		if i == 0 {
			next = int(delta)
		} else {
			if delta == 0 {
				return nil, fmt.Errorf("histo: bucket indexes not strictly ascending at entry %d", i)
			}
			if delta > uint64(numBuckets) {
				return nil, fmt.Errorf("histo: bucket delta %d out of range", delta)
			}
			next = idx + int(delta)
		}
		if next < 0 || next >= numBuckets {
			return nil, fmt.Errorf("histo: bucket index %d out of range", next)
		}
		total += c
		if total > count {
			return nil, fmt.Errorf("histo: bucket counts exceed sample count %d", count)
		}
		h.counts[next] = int64(c)
		idx = next
	}
	if total != count {
		return nil, fmt.Errorf("histo: bucket counts sum to %d, want %d", total, count)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("histo: %d trailing bytes after encoding", len(b))
	}
	if count > 0 {
		// The exact min/max must be consistent with the populated buckets:
		// each lies inside its own bucket's range, and those buckets are
		// the extremes of the occupied set.
		lo := bucketIndex(h.min)
		hi := bucketIndex(h.max)
		first, last := -1, -1
		for i, c := range h.counts {
			if c != 0 {
				if first < 0 {
					first = i
				}
				last = i
			}
		}
		if lo != first || hi != last {
			return nil, fmt.Errorf("histo: min/max inconsistent with occupied buckets")
		}
	}
	return h, nil
}
