package sim

import (
	"bytes"
	"testing"
	"testing/quick"
)

// forEachStart runs a case from two starting states of the engine. The
// "heap" subtest uses a fresh engine. The "bucket" subtest uses one that
// has already drained a bucket of events at instant zero: its clock is
// still zero, but its heap's backing array has grown and emptied, and
// its sequence counter no longer starts at one. The subtest names date
// from when the cases ran on two engines, a binary heap and a coalescing
// engine that queued one bucket per instant.
func forEachStart(t *testing.T, fn func(t *testing.T, e *Engine)) {
	t.Run("bucket", func(t *testing.T) {
		e := NewEngine()
		ran := 0
		for i := 0; i < 8; i++ {
			e.Schedule(0, func() { ran++ })
		}
		e.Run()
		if ran != 8 || e.now != 0 {
			t.Fatalf("warm-up bucket ran %d of 8 events, clock %v", ran, e.now)
		}
		fn(t, e)
	})
	t.Run("heap", func(t *testing.T) { fn(t, NewEngine()) })
}

func TestEngineOrdersEventsByTime(t *testing.T) {
	forEachStart(t, func(t *testing.T, e *Engine) {
		var got []int
		e.Schedule(30, func() { got = append(got, 3) })
		e.Schedule(10, func() { got = append(got, 1) })
		e.Schedule(20, func() { got = append(got, 2) })
		e.Run()
		if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
			t.Fatalf("events out of order: %v", got)
		}
		if e.now != 30 {
			t.Fatalf("clock = %v, want 30", e.now)
		}
	})
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	forEachStart(t, func(t *testing.T, e *Engine) {
		var got []int
		for i := 0; i < 10; i++ {
			i := i
			e.Schedule(5, func() { got = append(got, i) })
		}
		e.Run()
		if len(got) != 10 {
			t.Fatalf("ran %d of 10 same-instant events", len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("same-instant events not FIFO: %v", got)
			}
		}
	})
}

func TestEngineNestedScheduling(t *testing.T) {
	forEachStart(t, func(t *testing.T, e *Engine) {
		var fired []Time
		e.Schedule(10, func() {
			fired = append(fired, e.now)
			e.Schedule(e.now+5, func() { fired = append(fired, e.now) })
		})
		e.Run()
		if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
			t.Fatalf("nested schedule produced %v", fired)
		}
	})
}

// TestEngineNestedSameInstant: an event a callback schedules at Now()
// runs at that instant, after everything already queued for it.
func TestEngineNestedSameInstant(t *testing.T) {
	forEachStart(t, func(t *testing.T, e *Engine) {
		var got []int
		e.Schedule(5, func() {
			got = append(got, 0)
			e.Schedule(e.now, func() { got = append(got, 2) })
		})
		e.Schedule(5, func() { got = append(got, 1) })
		e.Schedule(6, func() { got = append(got, 3) })
		e.Run()
		if len(got) != 4 || got[0] != 0 || got[1] != 1 || got[2] != 2 || got[3] != 3 {
			t.Fatalf("same-instant nested events ran as %v, want [0 1 2 3]", got)
		}
	})
}

func TestEngineSchedulePastPanics(t *testing.T) {
	forEachStart(t, func(t *testing.T, e *Engine) {
		e.Schedule(10, func() {})
		e.Run()
		defer func() {
			if recover() == nil {
				t.Fatal("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{20, "20ns"},
		{22500, "22.50µs"},
		{3500 * Microsecond, "3.500ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestCalendarQueueing(t *testing.T) {
	c := new(Calendar)
	s, e := c.Reserve(0, 0, 100)
	if s != 0 || e != 100 {
		t.Fatalf("first reserve = [%v,%v), want [0,100)", s, e)
	}
	// Work arriving while busy queues behind.
	s, e = c.Reserve(50, 50, 100)
	if s != 100 || e != 200 {
		t.Fatalf("queued reserve = [%v,%v), want [100,200)", s, e)
	}
	if d := c.QueueDelay(150); d != 50 {
		t.Fatalf("QueueDelay(150) = %v, want 50", d)
	}
	// Work arriving after the horizon starts immediately.
	s, e = c.Reserve(500, 500, 10)
	if s != 500 || e != 510 {
		t.Fatalf("idle reserve = [%v,%v), want [500,510)", s, e)
	}
}

func TestCalendarNotBeforeConstraint(t *testing.T) {
	c := new(Calendar)
	s, _ := c.Reserve(0, 42, 10)
	if s != 42 {
		t.Fatalf("start = %v, want 42 (operand availability)", s)
	}
}

func TestCalendarUtilization(t *testing.T) {
	c := new(Calendar)
	c.Reserve(0, 0, 250)
	if u := c.Utilization(1000); u != 0.25 {
		t.Fatalf("utilization = %v, want 0.25", u)
	}
	if u := c.Utilization(0); u != 0 {
		t.Fatalf("utilization at t=0 = %v, want 0", u)
	}
}

func TestGroupPicksEarliestMember(t *testing.T) {
	g := NewGroup("die", 4)
	// Load members unevenly.
	g.Member(0).Reserve(0, 0, 100)
	g.Member(1).Reserve(0, 0, 50)
	g.Member(2).Reserve(0, 0, 75)
	// Member 3 is idle, so queue delay is 0 and a new reservation lands there.
	if d := g.Earliest().QueueDelay(0); d != 0 {
		t.Fatalf("group queue delay = %v, want 0 while a member is idle", d)
	}
	s, _ := g.Reserve(10, 10, 5)
	if s != 10 {
		t.Fatalf("group reserve start = %v, want 10 (idle member)", s)
	}
	// All members now busy at t=0: delay is the smallest horizon (15).
	if d := g.Earliest().QueueDelay(0); d != 15 {
		t.Fatalf("group queue delay = %v, want 15 once all members are busy", d)
	}
}

// Property: a calendar never books overlapping intervals, and intervals are
// handed out in non-decreasing start order for non-decreasing arrivals.
func TestCalendarNoOverlapProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		c := new(Calendar)
		var now, lastEnd Time
		for _, d := range durs {
			now += Time(d % 64) // arrivals move forward
			s, e := c.Reserve(now, now, Time(d%512))
			if s < lastEnd || e < s {
				return false
			}
			lastEnd = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(3)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

// bytesBytewise is the byte-at-a-time fill Bytes replaced: a fresh draw
// every eighth byte, consumed least significant byte first.
func bytesBytewise(r *RNG, p []byte) {
	var v uint64
	for i := range p {
		if i%8 == 0 {
			v = r.Uint64()
		}
		p[i] = byte(v)
		v >>= 8
	}
}

// TestRNGBytesMatchesBytewise: the word-wise Bytes writes the same bytes
// as the byte-wise reference and leaves the generator in the same state —
// the next Uint64 agrees, so both took the same number of draws — for
// every length up to 64 and for a whole page with and without a tail.
func TestRNGBytesMatchesBytewise(t *testing.T) {
	lengths := []int{16 << 10, 16<<10 + 3}
	for n := 0; n <= 64; n++ {
		lengths = append(lengths, n)
	}
	for _, seed := range []uint64{0, 1, 0xAE5, 0x9e3779b97f4a7c15, ^uint64(0)} {
		for _, n := range lengths {
			got, want := make([]byte, n), make([]byte, n)
			fast, ref := NewRNG(seed), NewRNG(seed)
			fast.Bytes(got)
			bytesBytewise(ref, want)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %#x, %d bytes: Bytes differs from the byte-wise fill", seed, n)
			}
			if a, b := fast.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("seed %#x, %d bytes: next draw %#x after Bytes, %#x after the byte-wise fill", seed, n, a, b)
			}
		}
	}
}
