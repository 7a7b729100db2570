package nvme

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"conduit/internal/compiler"
	"conduit/internal/config"
	"conduit/internal/isa"
	"conduit/internal/ssd"
	"conduit/internal/walk"
	"conduit/internal/workloads"
)

// workloadPrograms compiles the six evaluated workloads at scale.
func workloadPrograms(t testing.TB, scale int) []*isa.Program {
	t.Helper()
	cfg := config.Default()
	var progs []*isa.Program
	for _, w := range workloads.All(scale) {
		c, err := compiler.Compile(w.Source, cfg.SSD.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, c.Prog)
	}
	return progs
}

// nilEmpty returns a copy of p whose empty lists are nil, the form a
// decoded image takes.
func nilEmpty(p *isa.Program) *isa.Program {
	q := *p
	if len(q.Insts) == 0 {
		q.Insts = nil
	}
	if len(q.InputPages) == 0 {
		q.InputPages = nil
	}
	if len(q.OutputPages) == 0 {
		q.OutputPages = nil
	}
	return &q
}

func TestImageRoundTrip(t *testing.T) {
	for _, scale := range []int{1, 2} {
		for _, p := range workloadPrograms(t, scale) {
			img := MarshalProgram(p)
			got, err := unmarshalProgram(img)
			if err != nil {
				t.Fatalf("%s scale %d: %v", p.Name, scale, err)
			}
			if want := nilEmpty(p); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s scale %d: decoded image differs from the program", p.Name, scale)
			}
			t.Logf("%s scale %d: %d instructions in %d bytes", p.Name, scale, len(p.Insts), len(img))
		}
	}
}

// TestImageDecodeAllocs pins that decoding costs a fixed number of
// allocations whatever the instruction count — the cursor, the program,
// its name, the instructions (their sources inline) and the two page
// lists — and that appending to an instruction's Srcs cannot write into
// the instruction.
func TestImageDecodeAllocs(t *testing.T) {
	for _, p := range workloadPrograms(t, 1) {
		img := MarshalProgram(p)
		if n := testing.AllocsPerRun(10, func() { _, _ = unmarshalProgram(img) }); n > 6 {
			t.Errorf("%s: decoding %d instructions takes %v allocations, want at most 6", p.Name, len(p.Insts), n)
		}
		got, _ := unmarshalProgram(img)
		for i := range got.Insts {
			in := &got.Insts[i]
			was := *in
			if _ = append(in.Srcs(), 7); *in != was {
				t.Fatalf("%s: appending to inst %d's sources wrote into the instruction", p.Name, in.ID)
			}
		}
	}
}

// sourcesImage is testProgram's image with its one instruction, an XOR of
// pages 0 and 1, edited to list n sources (page 1 repeated) and the source
// total to match. Decoding checks no arity, so it decodes for n up to
// isa.MaxSrcs and must refuse more.
func sourcesImage(n int) []byte {
	p, _ := testProgram(512)
	img := MarshalProgram(p)
	id := len(imageMagic) + 1 + len(p.Name) + 3 // after Pages, the count and the total
	img[id-1], img[id+3] = byte(2*n), byte(2*n) // the total and the instruction's count
	for k := 2; k < n; k++ {
		img = slices.Insert(img, id+6, 2)
	}
	return img
}

// BenchmarkImageRoundTrip marshals and unmarshals the six evaluated
// workloads' scale-1 programs, the image round trip of a cold sweep_grid
// cell's deploys, and reports the time per instruction.
func BenchmarkImageRoundTrip(b *testing.B) {
	progs := workloadPrograms(b, 1)
	insts := 0
	for _, p := range progs {
		insts += len(p.Insts)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if _, err := unmarshalProgram(MarshalProgram(p)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*insts), "ns/inst")
}

// TestImageRejects pins each rule that keeps the encoding canonical and
// the decoder bounded, on edits of a valid image: another layout version,
// a trailing byte, a truncation, a varint longer than its shortest form,
// an unknown flag bit, an operand total the instructions do not use, and
// an instruction listing more sources than any operation takes.
func TestImageRejects(t *testing.T) {
	p, _ := testProgram(512)
	img := MarshalProgram(p)
	pagesAt := len(imageMagic) + 1 + len(p.Name) // then the count and totals
	if img[pagesAt] != 2*3 {
		t.Fatalf("Pages is not at offset %d", pagesAt)
	}
	p.Insts[0].UseImm = true // the flags byte is the one this changes
	withImm, flagsAt := MarshalProgram(p), 0
	for withImm[flagsAt] == img[flagsAt] {
		flagsAt++
	}
	for _, c := range []struct {
		name string
		edit func(b []byte) []byte
	}{
		{"version 1", func(b []byte) []byte { b[3] = 1; return b }},
		{"trailing byte", func(b []byte) []byte { return append(b, 0) }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-1] }},
		{"overlong varint", func(b []byte) []byte { return slices.Replace(b, pagesAt, pagesAt+1, 0x86, 0) }},
		{"unknown flag", func(b []byte) []byte { b[flagsAt] = 2 * 4; return b }},
		{"unused source total", func(b []byte) []byte { b[pagesAt+2] += 2; return b }},
		{"four sources", func([]byte) []byte { return sourcesImage(isa.MaxSrcs + 1) }},
	} {
		if _, err := unmarshalProgram(c.edit(slices.Clone(img))); err == nil {
			t.Errorf("%s: image decoded", c.name)
		}
	}
	if _, err := unmarshalProgram(img); err != nil {
		t.Fatalf("the unedited image: %v", err)
	}
	if got, err := unmarshalProgram(sourcesImage(isa.MaxSrcs)); err != nil || got.Insts[0].Srcs()[isa.MaxSrcs-1] != 1 {
		t.Fatalf("the image listing %d sources: %v", isa.MaxSrcs, err)
	}
}

// TestCommitRejectsOutOfRangePages is the table of images whose page lists
// or operands point outside the program: FWCommit must refuse each with an
// error, never index out of range.
func TestCommitRejectsOutOfRangePages(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(p *isa.Program)
	}{
		{"output page past the end", func(p *isa.Program) { p.OutputPages = []isa.PageID{99} }},
		{"negative output page", func(p *isa.Program) { p.OutputPages = []isa.PageID{-1} }},
		{"negative input page", func(p *isa.Program) { p.InputPages = []isa.PageID{-2} }},
		{"input page past the end", func(p *isa.Program) { p.InputPages = []isa.PageID{99} }},
		{"negative destination", func(p *isa.Program) { p.Insts[0].Dst = -5 }},
		{"negative page count", func(p *isa.Program) { p.Pages = -1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctrl, cfg := newController(t)
			prog, _ := testProgram(cfg.SSD.PageSize)
			c.edit(prog)
			if err := ctrl.FWDownload(MarshalProgram(prog), 0); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("FWCommit panicked: %v", r)
				}
			}()
			if err := ctrl.FWCommit(true); err == nil {
				t.Fatal("FWCommit accepted the image")
			}
		})
	}
}

// FuzzFirmwareImage holds the image decoder to three properties on any
// input: downloading and committing it never panics the drive, an image
// that decodes re-encodes to the same bytes (the encoding is canonical),
// and decoding allocates O(len(image)) whatever the length prefixes claim.
func FuzzFirmwareImage(f *testing.F) {
	for _, p := range workloadPrograms(f, 1) {
		img := MarshalProgram(p)
		f.Add(img)
		for _, n := range []int{0, 3, 4, 9, len(img) / 2, len(img) - 1} {
			f.Add(img[:n])
		}
	}
	f.Add([]byte("garbage"))
	f.Add(sourcesImage(isa.MaxSrcs + 1))
	// Counts that each fit the 1 300 bytes left but not together: decoding
	// them anyway would allocate 12 times the image.
	hostile := walk.Cursor{Enc: true, B: []byte(imageMagic)}
	for _, v := range []int{0, 0, 100, 1300} { // name, Pages, insts, srcs
		walk.Int(&hostile, &v)
	}
	f.Add(append(hostile.B, make([]byte, 1300)...))
	// The wire decoder's canonical-form cases: a name length written 80 00
	// (a non-shortest 0), a 1 000-byte name in no bytes, and a one-
	// instruction image whose Op, a uint8, is 256.
	f.Add(append([]byte(imageMagic), 0x80, 0x00))
	for _, fields := range [][]int{
		{1000},
		{0, 1, 1, 0, 0, 256, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // header, instruction, page lists
	} {
		c := walk.Cursor{Enc: true, B: []byte(imageMagic)}
		for _, v := range fields {
			walk.Int(&c, &v)
		}
		f.Add(c.B)
	}
	cfg := config.TestScale()
	f.Fuzz(func(t *testing.T, img []byte) {
		if grew, limit := decodeBytes(img), uint64(10*len(img)+1024); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(img), grew, limit)
		}
		p, err := unmarshalProgram(img)
		if err == nil {
			if again := MarshalProgram(p); !bytes.Equal(again, img) {
				t.Fatalf("a decoded image re-encodes differently:\n%x\n%x", img, again)
			}
		}
		ctrl := NewController(ssd.New(&cfg))
		if err := ctrl.FWDownload(img, 0); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("FWCommit panicked: %v", r)
			}
		}()
		_ = ctrl.FWCommit(true)
	})
}

// decodeBytes reports what decoding img allocates: the least of three
// decodes, since the heap counters are process-wide and the fuzzing
// engine allocates beside the target.
func decodeBytes(img []byte) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = unmarshalProgram(img)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestImageBytesPinned checks the SHA-256 of each scale-1 workload's
// firmware image against testdata/image.sha256. Round trips cannot see a
// change of field order or width that moves image bytes; this can. Only a
// layout change, which bumps imageMagic's version byte, may rewrite the
// file: a failure prints the lines to paste.
func TestImageBytesPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/image.sha256")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, p := range workloadPrograms(t, 1) {
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256(MarshalProgram(p)), p.Name)
	}
	if got.String() != string(want) {
		t.Fatalf("firmware image bytes moved; testdata/image.sha256 would read:\n%s", got.String())
	}
}
