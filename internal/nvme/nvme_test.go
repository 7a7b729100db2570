package nvme

import (
	"bytes"
	"slices"
	"testing"

	"conduit/internal/config"
	"conduit/internal/isa"
	"conduit/internal/offload"
	"conduit/internal/sim"
	"conduit/internal/ssd"
)

func testProgram(ps int) (*isa.Program, map[isa.PageID][]byte) {
	r := sim.NewRNG(42)
	a := make([]byte, ps)
	b := make([]byte, ps)
	r.Bytes(a)
	r.Bytes(b)
	prog := &isa.Program{
		Name:  "nvme-test",
		Pages: 3,
		Insts: []isa.Inst{
			{ID: 0, Op: isa.OpXor, Dst: 2, Srcs: []isa.PageID{0, 1}, Elem: 1, Lanes: int32(ps)},
		},
		InputPages: []isa.PageID{0, 1},
	}
	return prog, map[isa.PageID][]byte{0: a, 1: b}
}

func newController(t *testing.T) (*Controller, *config.Config) {
	t.Helper()
	cfg := config.TestScale()
	return NewController(ssd.New(&cfg)), &cfg
}

func TestFullHostFlow(t *testing.T) {
	c, cfg := newController(t)
	prog, inputs := testProgram(cfg.SSD.PageSize)

	// 1. Host writes input data via regular I/O.
	for p, d := range inputs {
		if err := c.WritePage(p, d); err != nil {
			t.Fatal(err)
		}
	}
	// 2. Host transfers the Conduit binary in chunks.
	img := MarshalProgram(prog)
	half := len(img) / 2
	if err := c.FWDownload(img[:half], 0); err != nil {
		t.Fatal(err)
	}
	if err := c.FWDownload(img[half:], half); err != nil {
		t.Fatal(err)
	}
	// 3. Commit with the Conduit flag installs the program.
	if err := c.FWCommit(true); err != nil {
		t.Fatal(err)
	}
	// 4. Computation mode: host writes refused, program runs.
	c.dev.EnterComputationMode()
	if err := c.WritePage(0, inputs[0]); err == nil {
		t.Fatal("write must be refused in computation mode")
	}
	if _, err := c.dev.Run(offload.Conduit{}); err != nil {
		t.Fatal(err)
	}
	got, err := c.dev.PageBytes(2)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, cfg.SSD.PageSize)
	for i := range want {
		want[i] = inputs[0][i] ^ inputs[1][i]
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the installed program computed a wrong result")
	}
}

// TestWritePageRefusesPartialPage: a host write stages one whole page or
// nil (a page whose bytes nothing reads, committed as zeros); anything
// else is refused at the write, not left to fail the commit.
func TestWritePageRefusesPartialPage(t *testing.T) {
	c, cfg := newController(t)
	prog, inputs := testProgram(cfg.SSD.PageSize)
	if err := c.WritePage(0, inputs[0][:100]); err == nil {
		t.Fatal("a 100-byte page write must be refused")
	}
	if err := c.WritePage(0, inputs[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.WritePage(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.FWDownload(MarshalProgram(prog), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.FWCommit(true); err != nil {
		t.Fatal(err)
	}
	got, err := c.dev.PageBytes(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, cfg.SSD.PageSize)) {
		t.Fatal("a page staged nil must commit as zeros")
	}
}

// TestDownloadKeepsTheCallersArray cuts two chunks from one backing array
// with other bytes between them. The drive stages the first chunk without
// a copy (a lone chunk allocates nothing), and the second chunk must not
// be written past the first into the bytes between; the two still commit
// as the image they make up.
func TestDownloadKeepsTheCallersArray(t *testing.T) {
	c, cfg := newController(t)
	prog, inputs := testProgram(cfg.SSD.PageSize)
	for p, d := range inputs {
		if err := c.WritePage(p, d); err != nil {
			t.Fatal(err)
		}
	}
	img := MarshalProgram(prog)
	half := len(img) / 2
	between := bytes.Repeat([]byte{0xA5}, len(img)-half)
	backing := slices.Concat(img[:half], between, img[half:])
	second := backing[len(img):]
	if n := testing.AllocsPerRun(10, func() {
		if err := c.FWDownload(backing[:half], 0); err != nil {
			t.Fatal(err)
		}
		c.fwImage = nil
	}); n != 0 {
		t.Errorf("staging a lone chunk allocated %v times, want 0", n)
	}
	if err := c.FWDownload(backing[:half], 0); err != nil {
		t.Fatal(err)
	}
	if err := c.FWDownload(second, half); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(backing[half:len(img)], between) {
		t.Fatal("the second chunk was written into the caller's array past the first")
	}
	if err := c.FWCommit(true); err != nil {
		t.Fatal(err)
	}
	c.dev.EnterComputationMode()
	if _, err := c.dev.Run(offload.Conduit{}); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfOrderDownloadRejected(t *testing.T) {
	c, _ := newController(t)
	if err := c.FWDownload([]byte{1, 2, 3}, 5); err == nil {
		t.Fatal("out-of-order chunk must be rejected")
	}
}

func TestVendorFirmwarePathIgnored(t *testing.T) {
	c, _ := newController(t)
	if err := c.FWDownload([]byte("vendor-blob"), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.FWCommit(false); err != nil {
		t.Fatal("vendor firmware commit should be accepted")
	}
	c.dev.EnterComputationMode()
	if _, err := c.dev.Run(offload.Conduit{}); err == nil {
		t.Fatal("vendor firmware must not install a Conduit program")
	}
}

func TestCorruptBinaryRejected(t *testing.T) {
	c, _ := newController(t)
	if err := c.FWDownload([]byte("garbage"), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.FWCommit(true); err == nil {
		t.Fatal("corrupt Conduit binary must be rejected")
	}
}

func TestCommitRefusedInComputationMode(t *testing.T) {
	c, cfg := newController(t)
	prog, _ := testProgram(cfg.SSD.PageSize)
	img := MarshalProgram(prog)
	if err := c.FWDownload(img, 0); err != nil {
		t.Fatal(err)
	}
	c.dev.EnterComputationMode()
	if err := c.FWCommit(true); err == nil {
		t.Fatal("commit must be refused in computation mode")
	}
}
