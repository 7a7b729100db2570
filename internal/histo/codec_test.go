package histo

import (
	"bytes"
	"strings"
	"testing"

	"conduit/internal/sim"
)

// randomHisto fills a histogram with n samples drawn from a seeded RNG,
// mixing the linear range, mid tiers, and far tail so encodings cover
// sparse and dense bucket sets.
func randomHisto(seed uint64, n int) *Histogram {
	rng := sim.NewRNG(seed)
	h := New()
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			h.Add(int64(rng.Intn(subBuckets)))
		case 1:
			h.Add(int64(rng.Intn(1 << 20)))
		case 2:
			h.Add(int64(rng.Intn(1 << 40)))
		default:
			h.Add(int64(1)<<62 + int64(rng.Intn(1<<30)))
		}
	}
	return h
}

// roundTrip encodes h and decodes the bytes, failing the test on any
// codec error.
func roundTrip(t *testing.T, h *Histogram) *Histogram {
	t.Helper()
	dec, err := Decode(h.AppendBinary(nil))
	if err != nil {
		t.Fatalf("decode of canonical encoding failed: %v", err)
	}
	return dec
}

// TestCodecRoundTripExact: decode(encode(h)) reproduces every bucket,
// the exact min/max/sum/count, and therefore every quantile.
func TestCodecRoundTripExact(t *testing.T) {
	cases := []*Histogram{
		New(),
		randomHisto(1, 1),
		randomHisto(2, 10),
		randomHisto(3, 1000),
		randomHisto(4, 100000),
	}
	one := New()
	one.Add(0)
	cases = append(cases, one)
	for i, h := range cases {
		dec := roundTrip(t, h)
		if !h.equalTo(dec) {
			t.Errorf("case %d: decoded histogram differs from original", i)
		}
		// Canonical: re-encoding the decoded histogram reproduces the bytes.
		if !bytes.Equal(h.AppendBinary(nil), dec.AppendBinary(nil)) {
			t.Errorf("case %d: re-encoding is not canonical", i)
		}
	}
}

// TestCodecMergeEqualsInProcessMerge is the wire-merge identity the
// router's fleet aggregation rests on: merging decoded snapshots is
// exactly merging the originals — same buckets, same count/sum/min/max,
// and therefore byte-identical canonical encodings.
func TestCodecMergeEqualsInProcessMerge(t *testing.T) {
	a, b := randomHisto(10, 5000), randomHisto(11, 3000)

	direct := a.Clone()
	direct.Merge(b)

	viaWire := roundTrip(t, a)
	viaWire.Merge(roundTrip(t, b))

	if !direct.equalTo(viaWire) {
		t.Fatal("merge of decoded snapshots differs from in-process merge")
	}
	if !bytes.Equal(direct.AppendBinary(nil), viaWire.AppendBinary(nil)) {
		t.Fatal("merged encodings differ byte-wise")
	}
}

// TestCodecMergeAlgebraAcrossWire re-pins the merge algebra when every
// operand crosses the wire: associativity, commutativity, and the empty
// histogram as identity.
func TestCodecMergeAlgebraAcrossWire(t *testing.T) {
	a, b, c := randomHisto(20, 2000), randomHisto(21, 1), randomHisto(22, 700)

	// (a ⊕ b) ⊕ c
	left := roundTrip(t, a)
	left.Merge(roundTrip(t, b))
	left = roundTrip(t, left)
	left.Merge(roundTrip(t, c))

	// a ⊕ (b ⊕ c)
	bc := roundTrip(t, b)
	bc.Merge(roundTrip(t, c))
	right := roundTrip(t, a)
	right.Merge(roundTrip(t, bc))

	if !left.equalTo(right) {
		t.Fatal("wire merge is not associative")
	}

	ab := roundTrip(t, a)
	ab.Merge(roundTrip(t, b))
	ba := roundTrip(t, b)
	ba.Merge(roundTrip(t, a))
	if !ab.equalTo(ba) {
		t.Fatal("wire merge is not commutative")
	}

	id := roundTrip(t, a)
	id.Merge(roundTrip(t, New()))
	if !id.equalTo(a) {
		t.Fatal("empty snapshot is not a merge identity across the wire")
	}
}

// TestCodecFleetQuantileIdentity models the router's aggregation: N
// per-target histograms, each snapshotted over the wire, merged into a
// fleet histogram — whose quantiles must equal both (a) the merge of
// the in-process originals and (b) a single histogram fed every sample
// directly. (a) is exact structural equality; (b) holds because merge
// introduces no error beyond each sample's original bucketing.
func TestCodecFleetQuantileIdentity(t *testing.T) {
	const targets = 4
	fleetDirect := New()
	fleetWire := New()
	union := New()
	for i := 0; i < targets; i++ {
		rng := sim.NewRNG(uint64(100 + i))
		part := New()
		for j := 0; j < 2500; j++ {
			v := int64(rng.Intn(1 << uint(10+4*i)))
			part.Add(v)
			union.Add(v)
		}
		fleetDirect.Merge(part)
		fleetWire.Merge(roundTrip(t, part))
	}
	if !fleetDirect.equalTo(fleetWire) {
		t.Fatal("fleet merge via wire snapshots differs from direct merge")
	}
	if !fleetWire.equalTo(union) {
		t.Fatal("fleet merge differs from the all-samples histogram")
	}
	for _, p := range []float64{0, 25, 50, 90, 99, 99.9, 100} {
		if got, want := fleetWire.Percentile(p), union.Percentile(p); got != want {
			t.Errorf("p%v: fleet %d, union %d", p, got, want)
		}
	}
}

// adversarialInputs are malformed encodings, each breaking one rule the
// decoder enforces.
func adversarialInputs() map[string][]byte {
	valid := randomHisto(30, 500).AppendBinary(nil)
	return map[string][]byte{
		"empty":          {},
		"bad version":    {99},
		"trailing bytes": append(append([]byte{}, valid...), 0),
		// count=1 with no further fields.
		"count without fields": {codecVersion, 1},
		// count=0 but one bucket entry claimed.
		"empty with entries": {codecVersion, 0, 1},
		// count=2, sum=5, min=2, max=3, 1 entry: bucket 2 count 3 (> count).
		"bucket counts exceed count": {codecVersion, 2, 5, 2, 3, 1, 2, 3},
		// count=2, sum=4, min=1, max=3, 3 entries: buckets 1, 2 and 3
		// holding 1, 2^64-1 and 2. Summed in uint64 the counts wrap to 2,
		// so the middle bucket would decode to -1.
		"bucket counts wrap": {codecVersion, 2, 4, 1, 3, 3, 1, 1,
			1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1, 2},
		// count=1, sum=5, min=3, max=2 (min > max).
		"min above max": {codecVersion, 1, 5, 3, 2, 1, 3, 1},
		// count=1, sum=0, min=0, max=0, 1 entry with zero count.
		"zero-count entry": {codecVersion, 1, 0, 0, 0, 1, 0, 0},
		// count=2, two entries with delta 0 (not ascending).
		"non-ascending buckets": {codecVersion, 2, 2, 1, 1, 2, 1, 1, 0, 1},
		// count=1 in a bucket inconsistent with min/max (min=max=0 but
		// the entry sits in bucket 5).
		"min max bucket mismatch": {codecVersion, 1, 0, 0, 0, 1, 5, 1},
		// One sample of 5 with its count=1 written 81 00, an overlong
		// uvarint; otherwise valid.
		"overlong count": {codecVersion, 0x81, 0x00, 5, 5, 5, 1, 5, 1},
		// implausible sample count (2^63-ish uvarint).
		"implausible count": {codecVersion, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 0},
	}
}

// TestCodecRejectsAdversarialInputs: the decoder must error — never
// panic, never trust a length — on malformed frames.
func TestCodecRejectsAdversarialInputs(t *testing.T) {
	valid := randomHisto(30, 500).AppendBinary(nil)

	// Every strict prefix of a valid encoding is truncated or
	// inconsistent, never accepted.
	for i := 0; i < len(valid); i++ {
		if _, err := Decode(valid[:i]); err == nil {
			t.Fatalf("prefix of length %d accepted", i)
		}
	}

	for name, in := range adversarialInputs() {
		if _, err := Decode(in); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Out-of-range bucket index via a huge first delta.
	big := []byte{codecVersion, 1, 0, 0, 0, 1}
	big = append(big, 0xff, 0xff, 0xff, 0x7f) // delta ~2^28
	big = append(big, 1)
	if _, err := Decode(big); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("huge bucket index: got %v", err)
	}
}

// FuzzHistoDecode holds Decode to three properties on any input: it
// never panics, an accepted input re-encodes to the same bytes, and an
// accepted histogram's buckets are positive where occupied and sum to
// its sample count.
func FuzzHistoDecode(f *testing.F) {
	for _, in := range adversarialInputs() {
		f.Add(in)
	}
	for _, h := range []*Histogram{New(), randomHisto(1, 1), randomHisto(3, 1000)} {
		f.Add(h.AppendBinary(nil))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		h, err := Decode(in)
		if err != nil {
			return
		}
		if again := h.AppendBinary(nil); !bytes.Equal(again, in) {
			t.Fatalf("an accepted encoding re-encodes differently:\n%x\n%x", in, again)
		}
		var total int64
		for i, n := range h.counts {
			if n < 0 {
				t.Fatalf("bucket %d holds %d", i, n)
			}
			total += n
		}
		if total != h.count {
			t.Fatalf("buckets sum to %d, count is %d", total, h.count)
		}
	})
}
