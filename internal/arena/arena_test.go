package arena

import "testing"

func TestGetPutReuse(t *testing.T) {
	p := New(64)
	b := p.Get()
	if len(b) != 64 {
		t.Fatalf("Get returned %d bytes, want 64", len(b))
	}
	b[0] = 0xAB
	p.Put(b)
	if len(p.free) != 1 {
		t.Fatalf("idle = %d after one Put, want 1", len(p.free))
	}
	b2 := p.Get()
	if &b2[0] != &b[0] {
		t.Fatal("Get did not reuse the freed buffer")
	}
	if b2[0] != 0xAB {
		t.Fatal("Get must return buffers with arbitrary (stale) contents")
	}
}

func TestGetZeroedClearsStaleContents(t *testing.T) {
	p := New(16)
	b := p.Get()
	for i := range b {
		b[i] = 0xFF
	}
	p.Put(b)
	z := p.GetZeroed()
	for i, v := range z {
		if v != 0 {
			t.Fatalf("GetZeroed byte %d = %#x, want 0", i, v)
		}
	}
}

func TestGetCopy(t *testing.T) {
	p := New(4)
	src := []byte{1, 2, 3, 4}
	c := p.GetCopy(src)
	src[0] = 99
	if c[0] != 1 || c[3] != 4 {
		t.Fatalf("GetCopy = %v, want independent copy of [1 2 3 4]", c)
	}
}

func TestPutRejectsWrongSizeAndNil(t *testing.T) {
	p := New(8)
	p.Put(nil)
	p.Put(make([]byte, 7))
	p.Put(make([]byte, 9))
	if len(p.free) != 0 {
		t.Fatalf("idle = %d, want 0: wrong-size buffers must be rejected", len(p.free))
	}
	var nilPool *Pool
	nilPool.Put(make([]byte, 8)) // must not panic
}

func TestRetentionCap(t *testing.T) {
	p := New(8)
	for i := 0; i < maxFree+10; i++ {
		p.Put(make([]byte, 8))
	}
	if len(p.free) != maxFree {
		t.Fatalf("idle = %d, want cap %d", len(p.free), maxFree)
	}
}
