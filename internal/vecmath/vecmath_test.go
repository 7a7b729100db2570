package vecmath

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// quickCfg seeds testing/quick explicitly: a nil Config draws from a
// time-seeded generator, so failures would not reproduce run to run.
func quickCfg(seed int64) *quick.Config {
	return &quick.Config{Rand: rand.New(rand.NewSource(seed))}
}

func TestLoadStoreRoundTripProperty(t *testing.T) {
	f := func(v uint64, idx uint8, elemSel uint8) bool {
		elem := []int{1, 2, 4}[int(elemSel)%3]
		p := make([]byte, 64)
		i := int(idx) % (len(p) / elem)
		Store(p, i, elem, v)
		return Load(p, i, elem) == v&Mask(elem)
	}
	if err := quick.Check(f, quickCfg(11)); err != nil {
		t.Fatal(err)
	}
}

func TestToSigned(t *testing.T) {
	cases := []struct {
		v    uint64
		elem int
		want int64
	}{
		{0xFF, 1, -1},
		{0x7F, 1, 127},
		{0x80, 1, -128},
		{0xFFFF, 2, -1},
		{0x8000, 2, -32768},
		{0xFFFFFFFF, 4, -1},
		{0x7FFFFFFF, 4, 2147483647},
	}
	for _, c := range cases {
		if got := ToSigned(c.v, c.elem); got != c.want {
			t.Errorf("ToSigned(%#x, %d) = %d, want %d", c.v, c.elem, got, c.want)
		}
	}
}

func TestSignedRoundTripProperty(t *testing.T) {
	f := func(v uint32, elemSel uint8) bool {
		elem := []int{1, 2, 4}[int(elemSel)%3]
		u := uint64(v) & Mask(elem)
		return uint64(ToSigned(u, elem))&Mask(elem) == u // truncating the sign extension back
	}
	if err := quick.Check(f, quickCfg(12)); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryAliasing(t *testing.T) {
	a := []byte{1, 2, 3, 4}
	b := []byte{10, 20, 30, 40}
	Binary(a, a, b, 1, func(x, y uint64) uint64 { return x + y })
	want := []byte{11, 22, 33, 44}
	for i := range a {
		if a[i] != want[i] {
			t.Fatalf("aliased binary = %v, want %v", a, want)
		}
	}
}

func TestUnaryAndBroadcast(t *testing.T) {
	p := make([]byte, 8)
	Broadcast(p, 2, 0x1234)
	for i := 0; i < 4; i++ {
		if Load(p, i, 2) != 0x1234 {
			t.Fatalf("broadcast lane %d = %#x", i, Load(p, i, 2))
		}
	}
	Unary(p, p, 2, func(x uint64) uint64 { return ^x })
	if Load(p, 0, 2) != (^uint64(0x1234))&Mask(2) {
		t.Fatal("unary NOT wrong")
	}
}

func TestBinaryImm(t *testing.T) {
	p := []byte{1, 2, 3, 4}
	out := make([]byte, 4)
	BinaryImm(out, p, 1, 10, func(x, y uint64) uint64 { return x * y })
	for i, want := range []byte{10, 20, 30, 40} {
		if out[i] != want {
			t.Fatalf("BinaryImm = %v", out)
		}
	}
}

func TestReduceAdd(t *testing.T) {
	p := []byte{1, 2, 3, 250}
	if got := ReduceAdd(p, 1); got != 0 { // 256 mod 256
		t.Fatalf("ReduceAdd = %d, want 0 (wraparound)", got)
	}
	if got := ReduceAdd([]byte{1, 0, 2, 0}, 2); got != 3 {
		t.Fatalf("ReduceAdd 16-bit = %d, want 3", got)
	}
}

func TestBool(t *testing.T) {
	if Bool(true, 1) != 0xFF || Bool(false, 4) != 0 {
		t.Fatal("Bool lane encoding wrong")
	}
}

func TestCheckElemPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CheckElem(3) should panic")
		}
	}()
	CheckElem(3)
}
