package compiler

import (
	"bytes"
	"testing"

	"conduit/internal/sim"
)

// FuzzRandomFill: any window Random generates on its own, at any offset
// and length, aligned or not, equals that window of one eager RNG.Bytes
// buffer drawn from the same seed.
func FuzzRandomFill(f *testing.F) {
	f.Add(uint64(0xAE5), uint16(0), uint16(4096))
	f.Add(uint64(1), uint16(3), uint16(5))
	f.Add(uint64(0x6E7), uint16(4093), uint16(9))
	f.Add(uint64(0), uint16(8), uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, off, n uint16) {
		eager := make([]byte, int(off)+int(n))
		sim.NewRNG(seed).Bytes(eager)
		got := make([]byte, n)
		Random(seed)(int(off), got)
		if !bytes.Equal(got, eager[off:]) {
			t.Fatalf("Random(%#x) window [%d, %d) differs from the eager stream", seed, off, int(off)+int(n))
		}
	})
}

// TestInputPagePadsAndDeclines: a page of an input array holds its
// filler's window, zero past the array's end (whatever dst held before);
// a page of no input array is declined.
func TestInputPagePadsAndDeclines(t *testing.T) {
	data := seqData(testPage+10, func(i int) byte { return byte(i + 1) })
	c, err := Compile(&Source{Name: "pad", Arrays: []*Array{
		{Name: "in", Elem: 1, Len: len(data), Input: true, Fill: Bytes(data)},
		{Name: "zero", Elem: 1, Len: 4, Input: true},
		{Name: "out", Elem: 1, Len: 4},
	}}, testPage)
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Repeat([]byte{0xEE}, testPage)
	if !c.InputPage(c.ArrayPages("in")[1], page) || !bytes.Equal(page[:10], data[testPage:]) ||
		!bytes.Equal(page[10:], make([]byte, testPage-10)) {
		t.Errorf("tail page of %q is not its last 10 bytes zero-padded", "in")
	}
	if !c.InputPage(c.ArrayPages("zero")[0], page) || !bytes.Equal(page, make([]byte, testPage)) {
		t.Error("an input array without a filler must read as zero")
	}
	if c.InputPage(c.ArrayPages("out")[0], page) {
		t.Error("a page of a non-input array was reported as an input page")
	}
}
