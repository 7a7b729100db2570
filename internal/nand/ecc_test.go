package nand

import (
	"bytes"
	"errors"
	"testing"

	"conduit/internal/energy"
	"conduit/internal/sim"
)

func newTestAccount() *energy.Account { return energy.NewAccount() }

func sim1ms() sim.Time { return sim.Millisecond }

func TestECCCorrectsFewBitErrors(t *testing.T) {
	a, cfg, _ := newTestArray()
	addr := Addr{Block: 1, Page: 0}
	data := fill(cfg, 0x77)
	a.Program(0, 0, addr, data)
	a.InjectBitErrors(addr, ECCCorrectableBits)

	got, done, err := a.ReadChecked(0, 0, addr)
	if err != nil {
		t.Fatalf("correctable read failed: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("corrected read returned wrong data")
	}
	// Correction costs decode latency on top of a clean read.
	b := NewArray(cfg, newTestAccount())
	b.Program(0, 0, addr, data)
	_, clean, _ := b.ReadChecked(0, 0, addr)
	if done <= clean {
		t.Fatalf("corrected read (%v) must be slower than clean read (%v)", done, clean)
	}
	if a.ECCCorrections() != 1 || a.ECCFailures() != 0 {
		t.Fatalf("correction counters = %d/%d", a.ECCCorrections(), a.ECCFailures())
	}
}

func TestECCUncorrectable(t *testing.T) {
	a, cfg, _ := newTestArray()
	addr := Addr{Block: 1, Page: 0}
	a.Program(0, 0, addr, fill(cfg, 1))
	a.InjectBitErrors(addr, ECCCorrectableBits+1)

	_, _, err := a.ReadChecked(0, 0, addr)
	var ue *ErrUncorrectable
	if !errors.As(err, &ue) {
		t.Fatalf("want ErrUncorrectable, got %v", err)
	}
	if ue.Bits != ECCCorrectableBits+1 {
		t.Fatalf("error reports %d bits", ue.Bits)
	}
	if a.ECCFailures() != 1 {
		t.Fatal("failure must be counted")
	}
}

func TestBitErrorsAccumulateAndClear(t *testing.T) {
	a, cfg, _ := newTestArray()
	addr := Addr{Block: 2, Page: 0}
	a.Program(0, 0, addr, fill(cfg, 1))
	a.InjectBitErrors(addr, 5)
	a.InjectBitErrors(addr, 5) // accumulates past the budget
	if _, _, err := a.ReadChecked(0, 0, addr); err == nil {
		t.Fatal("accumulated errors must become uncorrectable")
	}
	// Erase clears raw-cell damage bookkeeping; a reprogram is clean.
	a.Erase(0, addr)
	a.Program(sim1ms(), sim1ms(), addr, fill(cfg, 2))
	if _, _, err := a.ReadChecked(sim1ms(), sim1ms(), addr); err != nil {
		t.Fatalf("reprogrammed page must read clean: %v", err)
	}
}

func TestUncheckedReadIgnoresECC(t *testing.T) {
	// In-flash computation senses raw cells: it neither pays for nor
	// benefits from FC-side ECC (a documented IFP limitation).
	a, cfg, _ := newTestArray()
	addr := Addr{Block: 3, Page: 0}
	a.Program(0, 0, addr, fill(cfg, 0x0F))
	a.InjectBitErrors(addr, 100)
	if _, err := a.Bitwise(0, 0, BitNot, []Operand{{Addr: addr}}); err != nil {
		t.Fatalf("in-flash op must not consult FC ECC: %v", err)
	}
}

// TestEveryProgramPathClearsBitErrors: bit errors injected on an erased
// page last "until the page is erased or reprogrammed" whichever way it
// is programmed — over the channel (Program), from the plane buffer
// (FlushBuffer), or by the fixture hook (SetPageForTest).
func TestEveryProgramPathClearsBitErrors(t *testing.T) {
	a, cfg, _ := newTestArray()
	src := Addr{Block: 0, Page: 0}
	a.SetPageForTest(src, fill(cfg, 0x3C))
	paths := []struct {
		name    string
		dst     Addr
		program func(dst Addr)
	}{
		{"Program", Addr{Block: 1, Page: 0}, func(dst Addr) { a.Program(0, 0, dst, fill(cfg, 1)) }},
		{"FlushBuffer", Addr{Block: 1, Page: 1}, func(dst Addr) {
			if _, err := a.Bitwise(0, 0, BitNot, []Operand{{Addr: src}}); err != nil {
				t.Fatal(err)
			}
			if _, err := a.FlushBuffer(0, 0, dst); err != nil {
				t.Fatal(err)
			}
		}},
		{"SetPageForTest", Addr{Block: 1, Page: 2}, func(dst Addr) { a.SetPageForTest(dst, fill(cfg, 2)) }},
	}
	for _, p := range paths {
		a.InjectBitErrors(p.dst, ECCCorrectableBits+1)
		p.program(p.dst)
		if _, _, err := a.ReadChecked(0, 0, p.dst); err != nil {
			t.Errorf("%s left the erased page's injected bit errors in place: %v", p.name, err)
		}
	}
	if a.ECCCorrections() != 0 || a.ECCFailures() != 0 {
		t.Errorf("clean reads counted %d corrections, %d failures", a.ECCCorrections(), a.ECCFailures())
	}
}
